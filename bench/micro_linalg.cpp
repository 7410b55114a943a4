//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks for the linear-algebra substrate: sparse LU (the
/// UMFPACK stand-in), Neumann iteration, and the exact absorbing-chain
/// solver — the engines behind Theorem 4.7's closed form.
///
//===----------------------------------------------------------------------===//

#include "linalg/Solve.h"
#include "linalg/SparseLU.h"
#include "markov/Absorbing.h"

#include <benchmark/benchmark.h>

#include <random>

using namespace mcnk;
using namespace mcnk::linalg;

namespace {

/// Random diagonally-dominant sparse system of dimension N.
SparseMatrix randomSystem(std::size_t N, unsigned Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Coef(-1.0, 1.0);
  std::uniform_int_distribution<std::size_t> Col(0, N - 1);
  std::vector<Triplet> Entries;
  for (std::size_t R = 0; R < N; ++R) {
    double RowSum = 0.0;
    for (int E = 0; E < 4; ++E) {
      std::size_t C = Col(Rng);
      if (C == R)
        continue;
      double V = Coef(Rng);
      Entries.push_back({R, C, V});
      RowSum += std::abs(V);
    }
    Entries.push_back({R, R, RowSum + 1.0});
  }
  return SparseMatrix::fromTriplets(N, N, Entries);
}

/// Birth-death absorbing chain of N transient states.
markov::AbsorbingChain birthDeath(std::size_t N) {
  markov::AbsorbingChain Chain;
  Chain.NumTransient = N;
  Chain.NumAbsorbing = 2;
  for (std::size_t K = 0; K < N; ++K) {
    if (K + 1 < N)
      Chain.QEntries.push_back({K, K + 1, Rational(1, 2)});
    else
      Chain.REntries.push_back({K, 1, Rational(1, 2)});
    if (K > 0)
      Chain.QEntries.push_back({K, K - 1, Rational(1, 2)});
    else
      Chain.REntries.push_back({K, 0, Rational(1, 2)});
  }
  return Chain;
}

} // namespace

static void BM_SparseLUFactor(benchmark::State &State) {
  SparseMatrix A = randomSystem(static_cast<std::size_t>(State.range(0)),
                                12345);
  for (auto _ : State) {
    SparseLU LU;
    benchmark::DoNotOptimize(LU.factor(A));
  }
}
BENCHMARK(BM_SparseLUFactor)->Arg(100)->Arg(400)->Arg(1600);

static void BM_SparseLUSolve(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  SparseMatrix A = randomSystem(N, 999);
  SparseLU LU;
  bool Ok = LU.factor(A);
  if (!Ok)
    State.SkipWithError("singular");
  std::vector<double> B(N, 1.0);
  for (auto _ : State) {
    std::vector<double> X = B;
    LU.solve(X);
    benchmark::DoNotOptimize(X);
  }
}
BENCHMARK(BM_SparseLUSolve)->Arg(100)->Arg(1600);

static void BM_NeumannSolve(benchmark::State &State) {
  std::size_t N = static_cast<std::size_t>(State.range(0));
  // Substochastic random walk with drain.
  std::vector<Triplet> Entries;
  for (std::size_t R = 0; R < N; ++R) {
    Entries.push_back({R, (R + 1) % N, 0.45});
    Entries.push_back({R, (R + N - 1) % N, 0.45});
  }
  SparseMatrix Q = SparseMatrix::fromTriplets(N, N, Entries);
  std::vector<double> B(N, 0.1), X;
  for (auto _ : State)
    benchmark::DoNotOptimize(linalg::neumannSolve(Q, B, X));
}
BENCHMARK(BM_NeumannSolve)->Arg(100)->Arg(1600);

static void BM_AbsorbingExact(benchmark::State &State) {
  markov::AbsorbingChain Chain =
      birthDeath(static_cast<std::size_t>(State.range(0)));
  for (auto _ : State) {
    linalg::DenseMatrix<Rational> A;
    benchmark::DoNotOptimize(markov::solveAbsorptionExact(Chain, A));
  }
}
BENCHMARK(BM_AbsorbingExact)->Arg(32)->Arg(128);

static void BM_AbsorbingDirect(benchmark::State &State) {
  markov::AbsorbingChain Chain =
      birthDeath(static_cast<std::size_t>(State.range(0)));
  for (auto _ : State) {
    linalg::DenseMatrix<double> A;
    benchmark::DoNotOptimize(markov::solveAbsorptionDouble(
        Chain, A, markov::SolverKind::Direct));
  }
}
BENCHMARK(BM_AbsorbingDirect)->Arg(32)->Arg(512);

BENCHMARK_MAIN();
