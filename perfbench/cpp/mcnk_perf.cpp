//===----------------------------------------------------------------------===//
///
/// \file
/// Workload runner of the verifier benchmark. One process runs one
/// workload for a given number of seconds and writes its raw measurements
/// (set-up and pass times, request latencies, counters, answers and their
/// checks) as JSON; perfbench/run.py turns them into metrics.
///
///   mcnk_perf --workload fattree_ecmp|f10_resilience|chain_exact|serve_mix
///             --seed N --seconds S --trace 0|1 --out RESULT.json
///             --reference REFERENCE.json [--spans SPANS.json]
///             [--workdir DIR]
///
/// Only public library entry points are called: routing::build*Model,
/// parser::parseProgram, ast::programHash, analysis::Verifier and
/// fdd::compile, FddManager::solveLoop, serve::Service / Session and the
/// cache and store stats(). Traced runs time those calls from outside.
///
//===----------------------------------------------------------------------===//

#include "trace.h"

#include "analysis/Verifier.h"
#include "ast/Hash.h"
#include "ast/Node.h"
#include "ast/Printer.h"
#include "fdd/CacheStore.h"
#include "fdd/Compile.h"
#include "gen/Scenario.h"
#include "parser/Parser.h"
#include "routing/Routing.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/Casting.h"
#include "topology/Topology.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <sched.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace mcnk;
using perfbench::Span;
using perfbench::Tracer;
using serve::Json;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Whether to start another trial in a window of \p Seconds opened at
/// \p Start, the last trial having taken \p Last seconds: not when it
/// would likely end more than half a trial past the window, so a run
/// lasts about its --seconds however long a trial is.
bool anotherTrial(Clock::time_point Start, double Seconds, double Last) {
  return since(Start) + Last / 2 < Seconds;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Out;
  std::string Spans;
  std::string Reference;
  std::string Workdir = ".";
};

unsigned hostNproc() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

Json numbers(const std::vector<double> &V) {
  Json A = Json::array();
  for (double X : V)
    A.push(Json::number(X));
  return A;
}

Json count(uint64_t N) { return Json::integer(static_cast<int64_t>(N)); }

//===----------------------------------------------------------------------===//
// Answer checking
//===----------------------------------------------------------------------===//

/// Every answer the workload produces is counted as attempted; an answer
/// that differs from its reference (or a request that errs) is a failure.
class Checker {
public:
  void check(const std::string &What, const std::string &Got,
             const std::string &Want) {
    ++Attempted;
    if (Got == Want)
      return;
    ++Failed;
    if (Mismatches.size() < 20)
      Mismatches.push_back(What + ": got " + Got + ", want " + Want);
  }
  void fail(const std::string &What) {
    ++Attempted;
    ++Failed;
    if (Mismatches.size() < 20)
      Mismatches.push_back(What);
  }
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Mismatches;
};

/// Exact answers recorded from an earlier build (perfbench/reference.json):
/// {"<workload>": {"<answer name>": "<exact string>", ...}, ...}.
class Reference {
public:
  bool load(const std::string &Path, const std::string &Workload) {
    std::ifstream In(Path);
    if (!In)
      return false;
    std::stringstream Buf;
    Buf << In.rdbuf();
    Json Root;
    if (!serve::parseJson(Buf.str(), Root, nullptr) || !Root.isObject())
      return false;
    if (const Json *W = Root.find(Workload))
      for (const auto &[Key, Value] : W->members())
        if (Value.isString())
          Answers[Key] = Value.asString();
    return true;
  }
  /// Records \p Got under \p Key and checks it against the reference.
  void check(Checker &C, Json &Recorded, const std::string &Key,
             const std::string &Got) const {
    Recorded.set(Key, Json::string(Got));
    auto It = Answers.find(Key);
    C.check(Key, Got, It == Answers.end() ? "<no reference>" : It->second);
  }

private:
  std::map<std::string, std::string> Answers;
};

//===----------------------------------------------------------------------===//
// Layer counters and the traced compile
//===----------------------------------------------------------------------===//

struct LayerCounters {
  uint64_t InnerNodes = 0;
  uint64_t DiagramSize = 0;
  uint64_t Leaves = 0;
  uint64_t LeafEntries = 0;
  uint64_t LeafMaxBits = 0;
  uint64_t StatesSolved = 0;
  uint64_t ElimOps = 0;
  uint64_t FillIn = 0;
  uint64_t Queries = 0;
  uint64_t ProgramNodes = 0;

  /// Adds the node and leaf pools of one manager. Leaf handles are the
  /// documented tagged indices (index << 1 | 1).
  void addManager(const fdd::FddManager &M) {
    InnerNodes += M.numInnerNodes();
    Leaves += M.numLeaves();
    for (std::size_t I = 0; I < M.numLeaves(); ++I) {
      const fdd::ActionDist &D =
          M.leafDist(static_cast<fdd::FddRef>((I << 1) | 1));
      LeafEntries += D.entries().size();
      for (const auto &Entry : D.entries()) {
        uint64_t Bits = std::max(Entry.second.numerator().bitLength(),
                                 Entry.second.denominator().bitLength());
        LeafMaxBits = std::max(LeafMaxBits, Bits);
      }
    }
  }
  void addLoop(const fdd::LoopSolveStats &S) {
    StatesSolved += S.NumSolved;
    ElimOps += S.EliminationOps;
    FillIn += S.FillIn;
  }
  Json toJson() const {
    Json J = Json::object();
    J.set("fdd.inner_nodes", count(InnerNodes));
    J.set("fdd.diagram_size", count(DiagramSize));
    J.set("fdd.leaves", count(Leaves));
    J.set("fdd.leaf_entries", count(LeafEntries));
    J.set("fdd.leaf_max_bits", count(LeafMaxBits));
    J.set("markov.states_solved", count(StatesSolved));
    J.set("markov.elim_ops", count(ElimOps));
    J.set("markov.fill_in", count(FillIn));
    J.set("analysis.queries", count(Queries));
    J.set("ast.program_nodes", count(ProgramNodes));
    return J;
  }
};

/// Calls \p F on each direct child of \p N.
void forEachChild(const ast::Node *N,
                  const std::function<void(const ast::Node *)> &F) {
  using namespace ast;
  switch (N->kind()) {
  case NodeKind::Not:
    F(cast<NotNode>(N)->operand());
    break;
  case NodeKind::Seq:
    F(cast<SeqNode>(N)->lhs());
    F(cast<SeqNode>(N)->rhs());
    break;
  case NodeKind::Union:
    F(cast<UnionNode>(N)->lhs());
    F(cast<UnionNode>(N)->rhs());
    break;
  case NodeKind::Choice:
    F(cast<ChoiceNode>(N)->lhs());
    F(cast<ChoiceNode>(N)->rhs());
    break;
  case NodeKind::Star:
    F(cast<StarNode>(N)->body());
    break;
  case NodeKind::IfThenElse:
    F(cast<IfThenElseNode>(N)->cond());
    F(cast<IfThenElseNode>(N)->thenBranch());
    F(cast<IfThenElseNode>(N)->elseBranch());
    break;
  case NodeKind::While:
    F(cast<WhileNode>(N)->cond());
    F(cast<WhileNode>(N)->body());
    break;
  case NodeKind::Case:
    for (const auto &B : cast<CaseNode>(N)->branches()) {
      F(B.first);
      F(B.second);
    }
    F(cast<CaseNode>(N)->defaultBranch());
    break;
  default:
    break;
  }
}

/// Distinct AST nodes reachable from \p Root (the hash-consed DAG size).
uint64_t dagNodes(const ast::Node *Root) {
  std::unordered_set<const ast::Node *> Seen{Root};
  std::vector<const ast::Node *> Stack{Root};
  while (!Stack.empty()) {
    const ast::Node *N = Stack.back();
    Stack.pop_back();
    forEachChild(N, [&](const ast::Node *C) {
      if (Seen.insert(C).second)
        Stack.push_back(C);
    });
  }
  return Seen.size();
}

/// Compiles like fdd::compile (serial, no cache), but splits each while
/// loop into the compile of its guard and body and a separately timed
/// FddManager::solveLoop, so the trace can tell FDD construction from
/// the loop solve. Loop-free subterms go straight to fdd::compile; the
/// composition steps are the manager operations fdd::compile itself uses,
/// so the diagram is the same canonical one.
class TracedCompiler {
public:
  TracedCompiler(fdd::FddManager &M, Tracer *T, LayerCounters &L)
      : M(M), T(T), L(L) {}

  fdd::FddRef compile(const ast::Node *P) {
    using namespace ast;
    if (!hasLoop(P))
      return fdd::compile(M, P);
    switch (P->kind()) {
    case NodeKind::Not:
      return M.negate(compile(cast<NotNode>(P)->operand()));
    case NodeKind::Seq: {
      fdd::FddRef A = compile(cast<SeqNode>(P)->lhs());
      return M.seq(A, compile(cast<SeqNode>(P)->rhs()));
    }
    case NodeKind::Union: {
      fdd::FddRef A = compile(cast<UnionNode>(P)->lhs());
      return M.disjoin(A, compile(cast<UnionNode>(P)->rhs()));
    }
    case NodeKind::Choice: {
      const auto *C = cast<ChoiceNode>(P);
      fdd::FddRef A = compile(C->lhs());
      return M.choice(C->probability(), A, compile(C->rhs()));
    }
    case NodeKind::IfThenElse: {
      const auto *I = cast<IfThenElseNode>(P);
      fdd::FddRef G = compile(I->cond());
      fdd::FddRef A = compile(I->thenBranch());
      return M.branch(G, A, compile(I->elseBranch()));
    }
    case NodeKind::While: {
      const auto *W = cast<WhileNode>(P);
      fdd::FddRef G = compile(W->cond());
      fdd::FddRef B = compile(W->body());
      Span S(T, "markov.solve");
      fdd::FddRef R = M.solveLoop(G, B);
      S.close();
      L.addLoop(M.lastLoopStats());
      return R;
    }
    case NodeKind::Case: {
      const auto *C = cast<CaseNode>(P);
      fdd::FddRef Acc = compile(C->defaultBranch());
      for (std::size_t I = C->branches().size(); I-- > 0;) {
        fdd::FddRef G = compile(C->branches()[I].first);
        fdd::FddRef B = compile(C->branches()[I].second);
        Acc = M.branch(G, B, Acc);
      }
      return Acc;
    }
    default:
      return fdd::compile(M, P);
    }
  }

private:
  bool hasLoop(const ast::Node *P) {
    auto It = Memo.find(P);
    if (It != Memo.end())
      return It->second;
    bool Loop = P->kind() == ast::NodeKind::While;
    forEachChild(P, [&](const ast::Node *C) { Loop = hasLoop(C) || Loop; });
    Memo.emplace(P, Loop);
    return Loop;
  }

  fdd::FddManager &M;
  Tracer *T;
  LayerCounters &L;
  std::unordered_map<const ast::Node *, bool> Memo;
};

/// One compile: the library's own entry point untraced, the split
/// compile under a "fdd.compile" span when tracing.
fdd::FddRef compileProgram(analysis::Verifier &V, const ast::Node *P,
                           Tracer *T, LayerCounters &L) {
  if (!T)
    return V.compile(P);
  Span S(T, "fdd.compile");
  TracedCompiler C(V.manager(), T, L);
  fdd::FddRef R = C.compile(P);
  S.close();
  L.DiagramSize += V.manager().diagramSize(R);
  return R;
}

//===----------------------------------------------------------------------===//
// Measurement loop shared by the batch workloads
//===----------------------------------------------------------------------===//

/// A batch workload: set-up builds the model(s); a pass verifies them on
/// fresh verifiers and checks every answer. With tracing on, a pass also
/// sums the layer counters of its managers.
struct Batch {
  /// Builds the model, moving the previous one aside for Discard.
  std::function<void(Tracer *)> Setup;
  /// Frees the models Setup moved aside (outside the set-up clock).
  std::function<void()> Discard;
  /// Runs one pass; adds the seconds spent freeing verifiers (after
  /// their last answer, so not part of verify_s) to the last argument.
  std::function<void(Tracer *, Checker &, LayerCounters &, double &)> Pass;
};

/// Frees a verifier after its last answer, timing the teardown.
void retire(std::unique_ptr<analysis::Verifier> &V, Tracer *T,
            double &Teardown) {
  Span S(T, "fdd.teardown");
  auto T0 = Clock::now();
  V.reset();
  Teardown += since(T0);
}

void runBatch(const Args &A, Batch &B, Checker &C, Json &Out, Tracer *T) {
  // Before each pass the model is built again, several times (for at
  // least 50 ms, so a sub-millisecond set-up gets many samples); the pass
  // verifies the last one. Spreading the set-ups over the whole run keeps
  // their median from resting on one moment of the host's load.
  std::vector<double> Setup;
  auto SetUp = [&](Tracer *Tr) {
    auto Start = Clock::now();
    do {
      Span S(Tr, "setup");
      auto T0 = Clock::now();
      B.Setup(Tr);
      Setup.push_back(since(T0));
      S.close();
      B.Discard();
    } while (since(Start) < 0.05);
  };

  // Traced runs spend the first half untraced, for the overhead figure.
  std::vector<double> Untraced, Traced;
  LayerCounters Layers;
  auto Window = Clock::now();
  const double Half = A.Trace ? A.Seconds / 2 : A.Seconds;
  do {
    SetUp(nullptr);
    LayerCounters Ignored;
    double Teardown = 0;
    auto T0 = Clock::now();
    B.Pass(nullptr, C, Ignored, Teardown);
    Untraced.push_back(since(T0) - Teardown);
  } while (anotherTrial(Window, Half, Untraced.back()));
  if (A.Trace) {
    Window = Clock::now();
    do {
      SetUp(T);
      Layers = LayerCounters();
      double Teardown = 0;
      Span S(T, "pass");
      auto T0 = Clock::now();
      B.Pass(T, C, Layers, Teardown);
      Traced.push_back(since(T0) - Teardown);
    } while (anotherTrial(Window, Half, Traced.back()));
  }
  Out.set("setup_s", numbers(Setup));
  Out.set("verify_s", numbers(Untraced));
  if (A.Trace) {
    Out.set("traced_verify_s", numbers(Traced));
    Out.set("counters", Layers.toJson());
  }
}

std::vector<Packet> ingressPackets(const routing::NetworkModel &M,
                                   const ast::Context &Ctx) {
  std::vector<Packet> In;
  for (std::size_t I = 0; I < M.Ingresses.size(); ++I)
    In.push_back(M.ingressPacket(I, Ctx));
  return In;
}

//===----------------------------------------------------------------------===//
// fattree_ecmp: Fig 7, standard FatTree p=20, ECMP, iid 1/1000
//===----------------------------------------------------------------------===//

void fattreeEcmp(const Args &A, const Reference &Ref, Checker &C, Json &Out,
                 Tracer *T) {
  std::unique_ptr<ast::Context> Ctx, Old;
  routing::NetworkModel Model;
  std::vector<Packet> Inputs;
  Json Answers = Json::object();

  Batch B;
  B.Discard = [&] { Old.reset(); };
  B.Setup = [&](Tracer *Tr) {
    Old = std::move(Ctx);
    Ctx = std::make_unique<ast::Context>();
    Span S(Tr, "routing.build");
    topology::FatTreeLayout L;
    topology::makeFatTree(20, L);
    routing::ModelOptions O;
    O.RoutingScheme = routing::Scheme::F100;
    O.Failures = routing::FailureModel::iid(Rational(1, 1000));
    Model = routing::buildFatTreeModel(L, O, *Ctx);
    Inputs = ingressPackets(Model, *Ctx);
    S.close();
    // The seed fixes the order in which the ingresses are queried.
    std::mt19937_64 Rng(A.Seed);
    std::shuffle(Inputs.begin(), Inputs.end(), Rng);
  };
  B.Pass = [&](Tracer *Tr, Checker &Ch, LayerCounters &L, double &Down) {
    auto V = std::make_unique<analysis::Verifier>();
    fdd::FddRef R = compileProgram(*V, Model.Program, Tr, L);
    Rational Sum;
    for (const Packet &In : Inputs) {
      Span S(Tr, "analysis.query");
      Sum += V->deliveryProbability(R, In);
      ++L.Queries;
    }
    Rational Mean = Sum / Rational(static_cast<int64_t>(Inputs.size()));
    Ref.check(Ch, Answers, "mean_delivery", Mean.toString());
    if (Tr) {
      Span Counting(Tr, "trace.counters");
      L.addManager(V->manager());
      L.ProgramNodes = dagNodes(Model.Program);
    }
    retire(V, Tr, Down);
  };
  runBatch(A, B, C, Out, T);
  Out.set("answers", Answers);
}

//===----------------------------------------------------------------------===//
// f10_resilience: Fig 11(b,c), AB FatTree, F10 schemes under f_k
//===----------------------------------------------------------------------===//

/// One f_k row: the three schemes and the teleport spec, built in one
/// context so they are comparable.
struct F10Row {
  std::string K;
  std::unique_ptr<ast::Context> Ctx;
  const ast::Node *Programs[3] = {nullptr, nullptr, nullptr};
  const ast::Node *Teleport = nullptr;
};

const char *const SchemeNames[3] = {"F10_0", "F10_3", "F10_3,5"};

F10Row buildF10Row(unsigned P, unsigned K, Tracer *T) {
  F10Row Row;
  bool Infinite = K == 5;
  Row.K = Infinite ? "inf" : std::to_string(K);
  Row.Ctx = std::make_unique<ast::Context>();
  Span S(T, "routing.build");
  routing::FailureModel F =
      K == 0 ? routing::FailureModel::none()
             : (Infinite ? routing::FailureModel::iid(Rational(1, 100))
                         : routing::FailureModel::bounded(Rational(1, 100),
                                                          K));
  topology::FatTreeLayout L;
  topology::makeAbFatTree(P, L);
  const routing::Scheme Schemes[3] = {routing::Scheme::F100,
                                      routing::Scheme::F103,
                                      routing::Scheme::F1035};
  for (int I = 0; I < 3; ++I) {
    routing::ModelOptions O;
    O.RoutingScheme = Schemes[I];
    O.Failures = F;
    routing::NetworkModel M = routing::buildFatTreeModel(L, O, *Row.Ctx);
    Row.Programs[I] = M.Program;
    Row.Teleport = M.Teleport;
  }
  return Row;
}

/// "=" equivalent, "<" strictly refines, "?" neither (Fig 11(c)).
const char *order(const analysis::Verifier &V, fdd::FddRef X, fdd::FddRef Y,
                  Tracer *T, LayerCounters &L) {
  Span S(T, "analysis.query");
  L.Queries += 2;
  if (V.equivalent(X, Y))
    return "=";
  return V.refines(X, Y) ? "<" : "?";
}

/// Verifies one row on a fresh verifier: resilience (Fig 11(b)) and the
/// pairwise comparison (Fig 11(c)). Keys are "p<P>/k<K>/...".
void verifyF10Row(unsigned P, const F10Row &Row, Tracer *T, LayerCounters &L,
                  double &Teardown,
                  const std::function<void(const std::string &,
                                           const std::string &)> &Answer) {
  auto V = std::make_unique<analysis::Verifier>();
  fdd::FddRef Ref[3];
  for (int I = 0; I < 3; ++I)
    Ref[I] = compileProgram(*V, Row.Programs[I], T, L);
  fdd::FddRef Tele = compileProgram(*V, Row.Teleport, T, L);
  std::string Key = "p" + std::to_string(P) + "/k" + Row.K + "/";
  for (int I = 0; I < 3; ++I) {
    Span S(T, "analysis.query");
    ++L.Queries;
    Answer(Key + SchemeNames[I] + "~teleport",
           V->equivalent(Ref[I], Tele) ? "yes" : "no");
  }
  Answer(Key + "F10_0:F10_3", order(*V, Ref[0], Ref[1], T, L));
  Answer(Key + "F10_3:F10_3,5", order(*V, Ref[1], Ref[2], T, L));
  Answer(Key + "F10_3,5:teleport", order(*V, Ref[2], Tele, T, L));
  if (T) {
    Span Counting(T, "trace.counters");
    L.addManager(V->manager());
    for (const ast::Node *Prog : Row.Programs)
      L.ProgramNodes += dagNodes(Prog);
    L.ProgramNodes += dagNodes(Row.Teleport);
  }
  retire(V, T, Teardown);
}

/// The paper's Fig 11(b) pattern: F10_0 is 0-resilient, F10_3 is
/// 2-resilient, F10_3,5 is 3-resilient (none survives f_inf).
std::string paperResilience(const std::string &K, int Scheme) {
  const int Resilience[3] = {0, 2, 3};
  if (K == "inf")
    return "no";
  return std::stoi(K) <= Resilience[Scheme] ? "yes" : "no";
}

void f10Resilience(const Args &A, const Reference &Ref, Checker &C,
                   Json &Out, Tracer *T) {
  Json Answers = Json::object();

  // The p=4 table against the paper's pattern, once per run, untimed.
  for (unsigned K = 0; K <= 5; ++K) {
    F10Row Row = buildF10Row(4, K, nullptr);
    LayerCounters Ignored;
    double Teardown = 0;
    verifyF10Row(4, Row, nullptr, Ignored, Teardown,
                 [&](const std::string &Key, const std::string &Got) {
                   Answers.set(Key, Json::string(Got));
                   for (int I = 0; I < 3; ++I)
                     if (Key == "p4/k" + Row.K + "/" + SchemeNames[I] +
                                    "~teleport")
                       C.check(Key, Got, paperResilience(Row.K, I));
                 });
  }

  std::vector<F10Row> Rows, Old;
  Batch B;
  B.Discard = [&] { Old.clear(); };
  B.Setup = [&](Tracer *Tr) {
    Old = std::move(Rows);
    Rows.clear();
    for (unsigned K = 0; K <= 5; ++K)
      Rows.push_back(buildF10Row(8, K, Tr));
    // The seed fixes the order in which the rows are verified.
    std::mt19937_64 Rng(A.Seed);
    std::shuffle(Rows.begin(), Rows.end(), Rng);
  };
  B.Pass = [&](Tracer *Tr, Checker &Ch, LayerCounters &L, double &Down) {
    for (const F10Row &Row : Rows)
      verifyF10Row(8, Row, Tr, L, Down,
                   [&](const std::string &Key, const std::string &Got) {
                     Ref.check(Ch, Answers, Key, Got);
                   });
  };
  runBatch(A, B, C, Out, T);
  Out.set("answers", Answers);
}

//===----------------------------------------------------------------------===//
// chain_exact: Fig 10, diamond chain K=384, lower links fail at 1/1000
//===----------------------------------------------------------------------===//

void chainExact(const Args &A, Checker &C, Json &Out, Tracer *T) {
  constexpr unsigned K = 384;
  const Rational PFail(1, 1000);
  // Closed form: each diamond delivers with probability 1 - pfail/2.
  Rational Closed(1);
  const Rational PerDiamond = Rational(1) - PFail / Rational(2);
  for (unsigned I = 0; I < K; ++I)
    Closed *= PerDiamond;
  const std::string Want = Closed.toString();

  std::unique_ptr<ast::Context> Ctx, Old;
  routing::NetworkModel Model;
  Packet In;
  Json Answers = Json::object();

  Batch B;
  B.Discard = [&] { Old.reset(); };
  B.Setup = [&](Tracer *Tr) {
    Old = std::move(Ctx);
    Ctx = std::make_unique<ast::Context>();
    Span S(Tr, "routing.build");
    topology::ChainLayout L;
    topology::makeChain(K, L);
    Model = routing::buildChainModel(L, PFail, *Ctx);
    In = Model.ingressPacket(0, *Ctx);
  };
  B.Pass = [&](Tracer *Tr, Checker &Ch, LayerCounters &L, double &Down) {
    auto V = std::make_unique<analysis::Verifier>();
    fdd::FddRef R = compileProgram(*V, Model.Program, Tr, L);
    Span S(Tr, "analysis.query");
    std::string Got = V->deliveryProbability(R, In).toString();
    S.close();
    ++L.Queries;
    Ch.check("delivery_H1_H2", Got, Want);
    Answers.set("delivery_H1_H2_bits",
                count(Closed.denominator().bitLength()));
    if (Tr) {
      Span Counting(Tr, "trace.counters");
      L.addManager(V->manager());
      L.ProgramNodes = dagNodes(Model.Program);
    }
    retire(V, Tr, Down);
  };
  runBatch(A, B, C, Out, T);
  Out.set("answers", Answers);
}

//===----------------------------------------------------------------------===//
// serve_mix: closed-loop request stream through an in-process daemon
//===----------------------------------------------------------------------===//

/// One program of the stream as the daemon sees it: printed text, inputs
/// by field name, and the texts its two-program queries compare it with.
struct ServedProgram {
  std::string Name;
  std::string Text;
  std::string TeleportText; ///< Empty when there is no spec.
  std::string Partner;      ///< Program text compared by "refines".
  std::string HopField;     ///< Empty without a hop counter.
  std::vector<Json> Inputs; ///< One {"field": value} object per ingress.
  uint64_t AstNodes = 0;
};

/// A request line and the answer fields its response must carry: the
/// inline verifier's answers (Expect: response path, answer) and, for
/// programs that do not depend on the seed, the recorded ones (Recorded:
/// response path, reference.json key).
struct Request {
  enum Kind { Compile, Delivery, HopStats, Refines, Equivalent };
  std::string Line;
  std::size_t Program = 0;
  Kind What = Compile;
  std::vector<const Json *> Inputs;
  std::vector<std::pair<std::string, std::string>> Expect;
  std::vector<std::pair<std::string, std::string>> Recorded;
};

ServedProgram servedProgram(const std::string &Name, ast::Context &Ctx,
                            const ast::Node *Program,
                            const ast::Node *Teleport,
                            const std::vector<Packet> &Inputs,
                            FieldId HopField) {
  ServedProgram P;
  P.Name = Name;
  P.Text = ast::print(Program, Ctx.fields());
  if (Teleport)
    P.TeleportText = ast::print(Teleport, Ctx.fields());
  if (HopField != FieldTable::NotFound)
    P.HopField = Ctx.fields().name(HopField);
  P.AstNodes = dagNodes(Program);
  // Inputs travel by name, restricted to the fields the printed program
  // mentions (the daemon rejects names it does not know).
  ast::Context Served;
  parser::ParseResult Parsed = parser::parseProgram(P.Text, Served);
  for (const Packet &In : Inputs) {
    Json Obj = Json::object();
    if (Parsed.ok())
      for (std::size_t F = 0; F < Served.fields().numFields(); ++F) {
        const std::string &Field =
            Served.fields().name(static_cast<FieldId>(F));
        FieldId Id = Ctx.fields().lookup(Field);
        if (Id != FieldTable::NotFound && Id < In.numFields())
          Obj.set(Field, Json::integer(In.get(Id)));
      }
    P.Inputs.push_back(std::move(Obj));
  }
  return P;
}

/// The programs of the stream: a scaled scenario registry whose random
/// graphs come from the seed, plus the Fig 12 family (AB FatTree p=6,
/// three schemes x seven failure rates). The family has no hop counter:
/// with one, a single F10_3,5 compile takes ~13 s instead of ~0.1 s.
std::vector<ServedProgram> servedPrograms(uint64_t Seed, Tracer *T) {
  std::vector<ServedProgram> Out;
  std::vector<std::unique_ptr<ast::Context>> Keep;
  gen::RegistryOptions O;
  O.MaxChainK = 8;
  O.RingSizes = {4, 6, 8, 10};
  O.NumRandomGraphs = 10;
  O.RandomGraphSize = 8;
  O.RandomGraphExtraCables = 3;
  O.Seed = Seed;
  for (const gen::ScenarioSpec &Spec : gen::buildRegistry(O)) {
    Keep.push_back(std::make_unique<ast::Context>());
    Span S(T, "routing.build");
    gen::Scenario Sc = Spec.Build(*Keep.back());
    S.close();
    Out.push_back(servedProgram(Sc.Name, *Keep.back(), Sc.Program,
                                Sc.Teleport, Sc.Inputs, Sc.HopField));
  }

  const int Rates[7] = {256, 128, 64, 32, 16, 8, 4};
  const routing::Scheme Schemes[3] = {routing::Scheme::F100,
                                      routing::Scheme::F103,
                                      routing::Scheme::F1035};
  topology::FatTreeLayout L;
  topology::makeAbFatTree(6, L);
  for (int D : Rates) {
    std::size_t First = Out.size();
    for (int I = 0; I < 3; ++I) {
      Keep.push_back(std::make_unique<ast::Context>());
      Span S(T, "routing.build");
      routing::ModelOptions MO;
      MO.RoutingScheme = Schemes[I];
      MO.Failures = routing::FailureModel::iid(Rational(1, D));
      routing::NetworkModel M =
          routing::buildFatTreeModel(L, MO, *Keep.back());
      std::vector<Packet> In = ingressPackets(M, *Keep.back());
      S.close();
      Out.push_back(servedProgram("fig12/p6/" + std::string(SchemeNames[I]) +
                                      "/1/" + std::to_string(D),
                                  *Keep.back(), M.Program, nullptr, In,
                                  M.HopField));
    }
    // Each scheme is compared with the next more resilient one.
    Out[First].Partner = Out[First + 1].Text;
    Out[First + 1].Partner = Out[First + 2].Text;
  }
  return Out;
}

Json requestObject(const char *Verb, const std::string &Program) {
  Json R = Json::object();
  R.set("verb", Json::string(Verb));
  R.set("program", Json::string(Program));
  R.set("solver", Json::string("exact"));
  return R;
}

Json inputsArray(const std::vector<const Json *> &In) {
  Json A = Json::array();
  for (const Json *J : In)
    A.push(*J);
  return A;
}

/// Exact answers of the inline verifier for one program, reused by every
/// request on it. Built once per run, before the measured window.
class InlineOracle {
public:
  InlineOracle(const ServedProgram &P, Tracer *T, LayerCounters &L)
      : T(T), L(L) {
    Main = parse(P.Text);
    V = std::make_unique<analysis::Verifier>();
    if (Main)
      MainRef = compileProgram(*V, Main, T, L);
  }
  ~InlineOracle() {
    if (T && V)
      L.addManager(V->manager());
  }
  bool ok() const { return Main != nullptr; }

  bool decode(const Json &Obj, Packet &Out) const {
    Out = Packet(Ctx.fields().numFields());
    for (const auto &[Name, Value] : Obj.members()) {
      FieldId Id = Ctx.fields().lookup(Name);
      if (Id == FieldTable::NotFound || !Value.isInt())
        return false;
      Out.set(Id, static_cast<FieldValue>(Value.asInt()));
    }
    return true;
  }
  std::vector<Packet> packets(const std::vector<const Json *> &In) const {
    std::vector<Packet> Out;
    for (const Json *J : In) {
      Packet P;
      decode(*J, P);
      Out.push_back(std::move(P));
    }
    return Out;
  }

  void delivery(const std::vector<const Json *> &In, Request &R) {
    Span S(T, "analysis.query");
    Rational Total;
    std::vector<Packet> Ps = packets(In);
    for (std::size_t I = 0; I < Ps.size(); ++I) {
      Rational Prob = V->deliveryProbability(MainRef, Ps[I]);
      ++L.Queries;
      Total += Prob;
      R.Expect.emplace_back("results/" + std::to_string(I),
                            Prob.toString());
    }
    R.Expect.emplace_back(
        "average",
        (Total / Rational(static_cast<int64_t>(Ps.size()))).toString());
  }
  void hopStats(const std::vector<const Json *> &In,
                const std::string &HopField, Request &R) {
    Span S(T, "analysis.query");
    ++L.Queries;
    analysis::HopStats H = V->hopStats(MainRef, packets(In),
                                       Ctx.fields().lookup(HopField));
    R.Expect.emplace_back("delivered", H.Delivered.toString());
    for (const auto &[Hops, Mass] : H.Histogram)
      R.Expect.emplace_back("histogram/" + std::to_string(Hops),
                            Mass.toString());
  }
  void answer(const ServedProgram &P, Request &R) {
    switch (R.What) {
    case Request::Compile:
      break;
    case Request::Delivery:
      delivery(R.Inputs, R);
      break;
    case Request::HopStats:
      hopStats(R.Inputs, P.HopField, R);
      break;
    case Request::Refines:
      refinesPartner(P, R);
      break;
    case Request::Equivalent:
      equivalentToTeleport(P, R);
      break;
    }
  }
  void equivalentToTeleport(const ServedProgram &P, Request &R) {
    fdd::FddRef Tele = second(P.TeleportText);
    Span S(T, "analysis.query");
    ++L.Queries;
    R.Expect.emplace_back("holds",
                          V->equivalent(MainRef, Tele) ? "true" : "false");
  }
  void refinesPartner(const ServedProgram &P, Request &R) {
    fdd::FddRef Partner = second(P.Partner);
    Span S(T, "analysis.query");
    ++L.Queries;
    R.Expect.emplace_back("holds",
                          V->refines(MainRef, Partner) ? "true" : "false");
  }

private:
  const ast::Node *parse(const std::string &Text) {
    parser::ParseResult R = parser::parseProgram(Text, Ctx);
    return R.ok() ? R.Program : nullptr;
  }
  /// Compiles the other side of a two-program query into the same
  /// manager (equivalence is reference equality within one manager).
  fdd::FddRef second(const std::string &Text) {
    auto It = Seconds.find(Text);
    if (It != Seconds.end())
      return It->second;
    const ast::Node *P = parse(Text);
    fdd::FddRef R = P ? compileProgram(*V, P, T, L) : V->manager().dropLeaf();
    Seconds.emplace(Text, R);
    return R;
  }

  Tracer *T;
  LayerCounters &L;
  ast::Context Ctx;
  std::unique_ptr<analysis::Verifier> V;
  const ast::Node *Main = nullptr;
  fdd::FddRef MainRef = 0;
  std::map<std::string, fdd::FddRef> Seconds;
};

/// Requests per program visit: bench/serve_throughput.cpp's block (a
/// compile, then MCNK_SERVE_REPEAT=4 batched delivery queries over all the
/// program's ingresses, then hop-stats where the model counts hops).
constexpr int DeliveryRepeat = 4;
/// Every phase carries at least this many requests, so that its p99 has at
/// least 10 samples beyond it.
constexpr std::size_t MinPhaseRequests = 1000;

/// Builds the seeded request stream. Every program is visited in a fresh
/// seeded order, each visit sending the block above; the last visit adds
/// one verdict query (`refines` against the next more resilient scheme
/// for the Fig 12 family, `equivalent` to teleport for the registry).
/// There are as many visits as it takes to reach MinPhaseRequests; later
/// visits recompile through the shared cache, since the session slot has
/// moved on to other programs. The seed also fixes the order of the inputs
/// in each batch. The expected answers come from the inline verifier, one
/// program at a time.
std::vector<Request> buildStream(const std::vector<ServedProgram> &Programs,
                                 uint64_t Seed, Tracer *T,
                                 LayerCounters &L, Checker &C) {
  std::mt19937_64 Rng(Seed ^ 0x5e7e5eedULL);
  std::vector<Request> Stream;
  auto Add = [&](std::size_t I, Request::Kind K) {
    const ServedProgram &P = Programs[I];
    Request R;
    R.Program = I;
    R.What = K;
    for (const Json &J : P.Inputs)
      R.Inputs.push_back(&J);
    std::shuffle(R.Inputs.begin(), R.Inputs.end(), Rng);
    Json J = requestObject(K == Request::Compile ? "compile" : "query",
                           P.Text);
    // Answers of the seeded random graphs have no recorded reference.
    const bool Fixed = P.Name.rfind("random/", 0) != 0;
    auto Record = [&](const char *Path, const std::string &Key) {
      if (Fixed)
        R.Recorded.emplace_back(Path, P.Name + "/" + Key);
    };
    switch (K) {
    case Request::Compile:
      break;
    case Request::Delivery:
      J.set("query", Json::string("delivery"));
      J.set("inputs", inputsArray(R.Inputs));
      Record("average", "average");
      break;
    case Request::HopStats:
      J.set("query", Json::string("hop-stats"));
      J.set("inputs", inputsArray(R.Inputs));
      J.set("hopField", Json::string(P.HopField));
      Record("delivered", "delivered");
      Record("histogram", "histogram");
      break;
    case Request::Refines:
      J.set("query", Json::string("refines"));
      J.set("program2", Json::string(P.Partner));
      Record("holds", "refines_next");
      break;
    case Request::Equivalent:
      J.set("query", Json::string("equivalent"));
      J.set("program2", Json::string(P.TeleportText));
      Record("holds", "equivalent_teleport");
      break;
    }
    R.Line = J.dump();
    Stream.push_back(std::move(R));
  };
  auto Visit = [&](std::size_t I) {
    Add(I, Request::Compile);
    for (int Q = 0; Q < DeliveryRepeat; ++Q)
      Add(I, Request::Delivery);
    if (!Programs[I].HopField.empty())
      Add(I, Request::HopStats);
  };
  std::size_t PerVisit = 0, Verdicts = 0;
  for (const ServedProgram &P : Programs) {
    PerVisit += 1 + DeliveryRepeat + (P.HopField.empty() ? 0 : 1);
    Verdicts += !P.Partner.empty() || !P.TeleportText.empty();
  }
  std::size_t Visits = 1;
  while (Visits * PerVisit + Verdicts < MinPhaseRequests)
    ++Visits;
  std::vector<std::size_t> Order(Programs.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  for (std::size_t V = 0; V < Visits; ++V) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (std::size_t I : Order) {
      Visit(I);
      if (V + 1 < Visits)
        continue;
      if (!Programs[I].Partner.empty())
        Add(I, Request::Refines);
      else if (!Programs[I].TeleportText.empty())
        Add(I, Request::Equivalent);
    }
  }

  std::vector<std::vector<Request *>> ByProgram(Programs.size());
  for (Request &R : Stream)
    ByProgram[R.Program].push_back(&R);
  for (std::size_t I = 0; I < Programs.size(); ++I) {
    InlineOracle Oracle(Programs[I], T, L);
    if (!Oracle.ok()) {
      C.fail("inline parse failed: " + Programs[I].Name);
      continue;
    }
    for (Request *R : ByProgram[I])
      Oracle.answer(Programs[I], *R);
  }
  return Stream;
}

/// Looks up "a/b/3"-style paths in a response object.
const Json *lookupPath(const Json &Root, const std::string &Path) {
  const Json *Cur = &Root;
  std::size_t Pos = 0;
  while (Cur && Pos <= Path.size()) {
    std::size_t Next = Path.find('/', Pos);
    std::string Part = Path.substr(
        Pos, Next == std::string::npos ? std::string::npos : Next - Pos);
    if (Cur->isArray()) {
      std::size_t Index = std::strtoul(Part.c_str(), nullptr, 10);
      Cur = Index < Cur->elements().size() ? &Cur->elements()[Index]
                                           : nullptr;
    } else {
      Cur = Cur->find(Part);
    }
    if (Next == std::string::npos)
      break;
    Pos = Next + 1;
  }
  return Cur;
}

/// An answer field as text: strings as they are, booleans as true/false,
/// a hop histogram as "hops=mass" pairs in key order.
std::string answerText(const Json *Got) {
  if (!Got)
    return "<missing>";
  if (Got->isString())
    return Got->asString();
  if (Got->isBool())
    return Got->asBool() ? "true" : "false";
  if (Got->isObject()) {
    std::string Text;
    for (const auto &[Key, Value] : Got->members())
      Text += (Text.empty() ? "" : " ") + Key + "=" + answerText(&Value);
    return Text;
  }
  return Got->dump();
}

void checkResponse(Checker &C, const Reference &Ref, Json &Answers,
                   std::size_t Index, const Request &R,
                   const std::string &Response) {
  Json Parsed;
  std::string Error;
  if (!serve::parseJson(Response, Parsed, &Error)) {
    C.fail("request " + std::to_string(Index) + ": unparsable response");
    return;
  }
  const Json *Ok = Parsed.find("ok");
  std::string What = "request " + std::to_string(Index);
  C.check(What + " ok", Ok && Ok->isBool() && Ok->asBool() ? "true" : "false",
          "true");
  for (const auto &[Path, Want] : R.Expect)
    C.check(What + " " + Path, answerText(lookupPath(Parsed, Path)), Want);
  for (const auto &[Path, Key] : R.Recorded)
    Ref.check(C, Answers, Key, answerText(lookupPath(Parsed, Path)));
}

struct PhaseOutcome {
  double Seconds = 0;
  std::vector<double> LatencyMs;
  std::vector<std::string> Responses;
  fdd::CompileCache::Stats Cache;
  fdd::CacheStore::Stats Store;
  uint64_t Errors = 0;
  std::size_t Warmed = 0;
};

PhaseOutcome runPhase(serve::Service &Svc, const std::vector<Request> &Stream,
                      Tracer *T, const char *PhaseName) {
  PhaseOutcome Out;
  Out.Warmed = Svc.warmedEntries();
  Out.Responses.reserve(Stream.size());
  Out.LatencyMs.reserve(Stream.size());
  serve::Session Sess(Svc);
  Span Phase(T, PhaseName);
  auto P0 = Clock::now();
  for (std::size_t I = 0; I < Stream.size(); ++I) {
    Span S(T,
           Stream[I].What == Request::Compile ? "serve.compile"
                                              : "serve.query",
           static_cast<int64_t>(I));
    auto T0 = Clock::now();
    Out.Responses.push_back(Sess.handleLine(Stream[I].Line));
    Out.LatencyMs.push_back(since(T0) * 1e3);
  }
  Out.Seconds = since(P0);
  Phase.close();
  Out.Cache = Svc.cache().stats();
  if (Svc.store())
    Out.Store = Svc.store()->stats();
  Out.Errors = Svc.errors();
  return Out;
}

void serveMix(const Args &A, const Reference &Ref, Checker &C, Json &Out,
              Tracer *T, unsigned PoolWidth) {
  const std::string StorePath = A.Workdir + "/serve_mix.store";
  LayerCounters Layers;

  // Inputs of the run: the programs, the request stream and the inline
  // verifier's answers (timed as routing / fdd / analysis layers). The
  // requests point into the programs' inputs, so both live to the end.
  Span Build(T, "stream.build");
  std::vector<ServedProgram> Programs = servedPrograms(A.Seed, T);
  for (const ServedProgram &P : Programs)
    Layers.ProgramNodes += P.AstNodes;
  std::vector<Request> Stream = buildStream(Programs, A.Seed, T, Layers, C);
  Build.close();

  serve::Service::Options Opts;
  Opts.StorePath = StorePath;
  Opts.Threads = PoolWidth;
  auto Create = [&](double *Seconds) {
    std::string Error;
    auto T0 = Clock::now();
    std::unique_ptr<serve::Service> Svc =
        serve::Service::create(Opts, &Error);
    if (Seconds)
      *Seconds = since(T0);
    if (!Svc)
      C.fail("Service::create: " + Error);
    return Svc;
  };

  std::vector<double> Setup, ColdS, WarmS, ColdLat, WarmLat;
  std::vector<double> TracedColdS;
  Json Stats = Json::object();
  Json Answers = Json::object();
  std::size_t WorkingSet = 0;
  bool Traced = false;
  unsigned Cycles = 0;
  auto Window = Clock::now();
  const double Half = A.Trace ? A.Seconds / 2 : A.Seconds;
  for (;;) {
    // Traced runs spend their first half untraced, for the overhead.
    Tracer *Tr = Traced ? T : nullptr;
    Span Cycle(Tr, "cycle");
    auto CycleStart = Clock::now();
    std::remove(StorePath.c_str());
    std::unique_ptr<serve::Service> Svc = Create(nullptr);
    if (!Svc)
      return;
    PhaseOutcome Cold = runPhase(*Svc, Stream, Tr, "phase.cold");
    Svc.reset(); // The daemon stops; its store stays on disk.
    if (Cycles == 0) {
      for (std::size_t I = 0; I < Stream.size(); ++I)
        checkResponse(C, Ref, Answers, I, Stream[I], Cold.Responses[I]);
    }
    if (Cold.Errors)
      C.fail(std::to_string(Cold.Errors) + " cold error responses");
    WorkingSet = Cold.Cache.Entries;

    // Three restarts: each is a set-up sample (Service::create on the
    // populated store) followed by a warm phase on the restarted service.
    // A warm phase lasts a fraction of a second, so taking three per cycle
    // spreads the warm samples over the run.
    PhaseOutcome Warm;
    for (int I = 0; I < 3; ++I) {
      double Seconds = 0;
      {
        Span S(Tr, "service.create");
        Svc = Create(&Seconds);
      }
      if (!Svc)
        return;
      Setup.push_back(Seconds);
      Warm = runPhase(*Svc, Stream, Tr, "phase.warm");
      Svc.reset();
      C.check("cold/warm responses byte-identical",
              Cold.Responses == Warm.Responses ? "true" : "false", "true");
      C.check("warm phase appends", std::to_string(Warm.Store.Appends), "0");
      if (Warm.Errors)
        C.fail(std::to_string(Warm.Errors) + " warm error responses");
      if (!Traced) {
        WarmS.push_back(Warm.Seconds);
        WarmLat.insert(WarmLat.end(), Warm.LatencyMs.begin(),
                       Warm.LatencyMs.end());
      }
    }

    if (Traced) {
      TracedColdS.push_back(Cold.Seconds);
      // Replays of the request path's front layers, outside the phases:
      // JSON decode of each line, then parse and fingerprint of each
      // program text it carries.
      for (std::size_t I = 0; I < Stream.size(); ++I) {
        Json Req;
        {
          Span S(Tr, "serve.json_parse", static_cast<int64_t>(I));
          serve::parseJson(Stream[I].Line, Req, nullptr);
        }
        for (const char *Key : {"program", "program2"}) {
          const Json *Text = Req.find(Key);
          if (!Text || !Text->isString())
            continue;
          ast::Context Ctx;
          parser::ParseResult R;
          {
            Span S(Tr, "parser.parse", static_cast<int64_t>(I));
            R = parser::parseProgram(Text->asString(), Ctx);
          }
          if (R.ok()) {
            Span S(Tr, "ast.fingerprint", static_cast<int64_t>(I));
            (void)ast::programHash(R.Program);
          }
        }
      }
      {
        Span S(Tr, "store.open");
        std::string Error;
        std::unique_ptr<fdd::CacheStore> Store =
            fdd::CacheStore::open(StorePath, &Error);
        if (!Store)
          C.fail("CacheStore::open: " + Error);
      }
      Stats.set("cache.hits", count(Warm.Cache.Hits));
      Stats.set("cache.misses", count(Warm.Cache.Misses));
      uint64_t Lookups = Warm.Cache.Hits + Warm.Cache.Misses;
      Stats.set("cache.hit_ratio",
                Json::number(Lookups ? double(Warm.Cache.Hits) / Lookups
                                     : 0.0));
      Stats.set("cache.evictions",
                count(Cold.Cache.Evictions + Warm.Cache.Evictions));
      Stats.set("cache.entries", count(Cold.Cache.Entries));
      Stats.set("store.warmed_entries", count(Warm.Warmed));
      Stats.set("store.appends", count(Cold.Store.Appends));
      Stats.set("store.file_bytes", count(Cold.Store.FileBytes));
      Stats.set("store.dead_records", count(Warm.Store.DeadRecords));
      Stats.set("serve.errors", count(Cold.Errors + Warm.Errors));
    } else {
      ColdS.push_back(Cold.Seconds);
      ColdLat.insert(ColdLat.end(), Cold.LatencyMs.begin(),
                     Cold.LatencyMs.end());
    }
    Cycle.close();
    ++Cycles;
    if (!anotherTrial(Window, Half, since(CycleStart))) {
      if (!A.Trace || Traced)
        break;
      Traced = true;
      Window = Clock::now();
    }
  }
  std::remove(StorePath.c_str());

  Out.set("setup_s", numbers(Setup));
  Out.set("verify_s", numbers(ColdS));
  Out.set("cold_phase_s", numbers(ColdS));
  Out.set("warm_phase_s", numbers(WarmS));
  Out.set("cold_latency_ms", numbers(ColdLat));
  Out.set("warm_latency_ms", numbers(WarmLat));
  Out.set("requests_per_phase", count(Stream.size()));
  Out.set("working_set_entries", count(WorkingSet));
  Out.set("cache_capacity", count(Opts.CacheCapacity));
  Out.set("answers", Answers);
  if (A.Trace) {
    Out.set("traced_verify_s", numbers(TracedColdS));
    Json Counters = Layers.toJson();
    for (const auto &[Key, Value] : Stats.members())
      Counters.set(Key, Value);
    Out.set("counters", Counters);
  }
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Value = Argv[I + 1];
    if (Key == "--workload")
      A.Workload = Value;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), nullptr);
    else if (Key == "--trace")
      A.Trace = Value == "1";
    else if (Key == "--out")
      A.Out = Value;
    else if (Key == "--spans")
      A.Spans = Value;
    else if (Key == "--reference")
      A.Reference = Value;
    else if (Key == "--workdir")
      A.Workdir = Value;
    else
      return false;
  }
  return !A.Workload.empty() && !A.Out.empty() && !A.Reference.empty() &&
         A.Seconds > 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: mcnk_perf --workload W --seed N --seconds S "
                 "--trace 0|1 --out FILE --reference FILE [--spans FILE] "
                 "[--workdir DIR]\n");
    return 2;
  }
  Reference Ref;
  if (!Ref.load(A.Reference, A.Workload)) {
    std::fprintf(stderr, "error: cannot read reference %s\n",
                 A.Reference.c_str());
    return 2;
  }

  const unsigned Nproc = hostNproc();
  const unsigned Hw = std::thread::hardware_concurrency();
  // Every workload runs on one thread. serve_mix runs the daemon as
  // `mcnk_serve -j1` (serial compiles, no pool): on a host whose few CPUs
  // are shared, a pool as wide as nproc times the scheduler, not the
  // compile: its p99 spread past its bound between runs of one build.
  const unsigned PoolWidth = 1;

  Tracer Trace;
  Tracer *T = A.Trace ? &Trace : nullptr;
  Checker C;
  Json Out = Json::object();
  if (A.Workload == "fattree_ecmp")
    fattreeEcmp(A, Ref, C, Out, T);
  else if (A.Workload == "f10_resilience")
    f10Resilience(A, Ref, C, Out, T);
  else if (A.Workload == "chain_exact")
    chainExact(A, C, Out, T);
  else if (A.Workload == "serve_mix")
    serveMix(A, Ref, C, Out, T, PoolWidth);
  else {
    std::fprintf(stderr, "error: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }

  Json Host = Json::object();
  Host.set("nproc", count(Nproc));
  Host.set("hardware_concurrency", count(Hw));
  Host.set("pool_width", count(PoolWidth));
  Host.set("build_type", Json::string(MCNK_PERF_BUILD_TYPE));
  Host.set("compiler", Json::string(MCNK_PERF_COMPILER));
#ifdef NDEBUG
  Host.set("assertions", Json::boolean(false));
#else
  Host.set("assertions", Json::boolean(true));
#endif
  Out.set("host", Host);
  Out.set("workload", Json::string(A.Workload));
  Out.set("seed", count(A.Seed));
  Out.set("attempted", count(C.Attempted));
  Out.set("failed", count(C.Failed));
  Json Mismatches = Json::array();
  for (const std::string &M : C.Mismatches)
    Mismatches.push(Json::string(M));
  Out.set("mismatches", Mismatches);
  Out.set("peak_rss_mb", Json::number(peakRssMb()));

  std::ofstream File(A.Out);
  File << Out.dump() << "\n";
  if (!File)
    return 2;
  if (T && !A.Spans.empty()) {
    std::ofstream Spans(A.Spans);
    Spans << Trace.toJson().dump() << "\n";
    if (!Spans)
      return 2;
  }
  return 0;
}
