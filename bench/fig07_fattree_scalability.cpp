//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 7: scalability on FatTree data centers. For a sweep of FatTree
/// parameters p, measures the time to compile the ECMP network model to a
/// stochastic-matrix representation with (a) the native FDD backend and
/// (b) the PRISM pipeline (syntactic translation + prismlite explicit
/// model checking), each without failures (#f=0) and with independent
/// link failures at 1/1000.
///
/// Shape expected from the paper: both backends grow polynomially, the
/// native backend is consistently faster, and failures cost extra. A
/// per-point time budget retires series that exceed it (the paper's
/// timeout discipline). Knobs: MCNK_FIG7_MAXP (default 12),
/// MCNK_TIME_LIMIT seconds (default 30).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "analysis/Verifier.h"
#include "prism/Checker.h"
#include "prism/Translate.h"
#include "routing/Routing.h"

#include <cstdio>
#include <string>

using namespace mcnk;
using namespace mcnk::bench;
using namespace mcnk::routing;

namespace {

double compileNative(const topology::FatTreeLayout &L,
                     const FailureModel &F) {
  ast::Context Ctx;
  ModelOptions O;
  O.RoutingScheme = Scheme::F100;
  O.Failures = F;
  NetworkModel M = buildFatTreeModel(L, O, Ctx);
  analysis::Verifier V(markov::SolverKind::Direct);
  WallTimer T;
  fdd::FddRef Ref = V.compile(M.Program);
  (void)Ref;
  return T.elapsed();
}

double checkPrism(const topology::FatTreeLayout &L, const FailureModel &F) {
  ast::Context Ctx;
  ModelOptions O;
  O.RoutingScheme = Scheme::F100;
  O.Failures = F;
  NetworkModel M = buildFatTreeModel(L, O, Ctx);
  Packet In = M.ingressPacket(M.Ingresses.size() - 1, Ctx);
  WallTimer T;
  prism::Translation Tr = prism::translate(Ctx, M.Program, In);
  prism::Model PM;
  prism::GuardExpr Goal;
  std::string Error;
  if (!prism::parseModel(Tr.Source, PM, Error) ||
      !prism::parseGuard(Tr.DoneGuard, PM, Goal, Error)) {
    std::fprintf(stderr, "prism pipeline error: %s\n", Error.c_str());
    return T.elapsed();
  }
  prism::CheckResult CR;
  if (!prism::checkReachability(PM, Goal, markov::SolverKind::Iterative, CR,
                                Error))
    std::fprintf(stderr, "prismlite error: %s\n", Error.c_str());
  return T.elapsed();
}

/// MCNK_GOLDEN=1: deterministic table values instead of timings — the
/// compiled diagram size and exact mean delivery for the native backend,
/// and the reachable state space plus exact delivery probability for the
/// PRISM pipeline. Diffed against tests/golden/fig07.txt under ctest.
int runGolden(unsigned MaxP) {
  std::printf("=== Fig 7 golden: FatTree table values (ECMP to sw 1) "
              "===\n");
  std::printf("%4s %9s  %10s %12s  %10s %12s\n", "p", "switches",
              "fdd nodes", "delivery", "pri states", "pri prob");
  FailureModel Fail = FailureModel::iid(Rational(1, 1000));
  for (unsigned P = 4; P <= MaxP; P += 2) {
    topology::FatTreeLayout L;
    topology::makeFatTree(P, L);

    ast::Context Ctx;
    ModelOptions O;
    O.RoutingScheme = Scheme::F100;
    O.Failures = Fail;
    NetworkModel M = buildFatTreeModel(L, O, Ctx);
    analysis::Verifier V; // Exact engine for decided table values.
    fdd::FddRef Ref = V.compile(M.Program);
    std::vector<Packet> Inputs;
    for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
      Inputs.push_back(M.ingressPacket(I, Ctx));
    Rational Delivery = V.averageDeliveryProbability(Ref, Inputs);

    prism::Translation Tr =
        prism::translate(Ctx, M.Program, Inputs.front());
    prism::Model PM;
    prism::GuardExpr Goal;
    std::string Error;
    std::size_t States = 0;
    std::string Prob = "-";
    if (prism::parseModel(Tr.Source, PM, Error) &&
        prism::parseGuard(Tr.DoneGuard, PM, Goal, Error)) {
      prism::CheckResult CR;
      if (prism::checkReachability(PM, Goal, markov::SolverKind::Exact, CR,
                                   Error)) {
        States = CR.NumStates;
        Prob = CR.Probability.toString();
      }
    }
    std::printf("%4u %9u  %10zu %12s  %10zu %12s\n", P, L.numSwitches(),
                V.manager().diagramSize(Ref), Delivery.toString().c_str(),
                States, Prob.c_str());
  }
  return 0;
}

} // namespace

int main() {
  unsigned MaxP = envUnsigned("MCNK_FIG7_MAXP", 12);
  if (envUnsigned("MCNK_GOLDEN", 0))
    return runGolden(std::min(MaxP, 6u));
  double Limit = envDouble("MCNK_TIME_LIMIT", 30.0);
  std::printf("=== Fig 7: FatTree scalability (ECMP to switch 1) ===\n");
  std::printf("series: native / native(#f=0) compile the full model; "
              "prism / prism(#f=0) answer one delivery query\n");
  std::printf("per-point budget: %.0fs (MCNK_TIME_LIMIT); '-' = retired\n\n",
              Limit);
  std::printf("%4s %9s  %10s  %10s  %10s  %10s\n", "p", "switches",
              "nat(#f=0)", "native", "pri(#f=0)", "prism");

  FailureModel NoFail = FailureModel::none();
  FailureModel Fail = FailureModel::iid(Rational(1, 1000));
  BudgetedSeries NativeNoFail(Limit), NativeFail(Limit), PrismNoFail(Limit),
      PrismFail(Limit);

  for (unsigned P = 4; P <= MaxP; P += 2) {
    topology::FatTreeLayout L;
    topology::makeFatTree(P, L);
    std::printf("%4u %9u", P, L.numSwitches());
    printCell(NativeNoFail.measure([&] { compileNative(L, NoFail); }));
    printCell(NativeFail.measure([&] { compileNative(L, Fail); }));
    printCell(PrismNoFail.measure([&] { checkPrism(L, NoFail); }));
    printCell(PrismFail.measure([&] { checkPrism(L, Fail); }));
    std::printf("\n");
    std::fflush(stdout);
  }
  return 0;
}
