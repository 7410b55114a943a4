//===----------------------------------------------------------------------===//
///
/// \file
/// Absorbing Markov chain tests: textbook chains with known closed forms
/// (gambler's ruin, §4's coin-flip example), cross-engine agreement between
/// exact, direct, and iterative solvers, and singularity detection for
/// chains with unreachable absorption.
///
//===----------------------------------------------------------------------===//

#include "markov/Absorbing.h"

#include "linalg/Solve.h"
#include "markov/Scc.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <random>

using namespace mcnk;
using namespace mcnk::markov;
using linalg::DenseMatrix;

namespace {

/// Gambler's ruin on {0..N} with win probability P: transient 1..N-1,
/// absorbing 0 and N. Absorption probability into N starting from K is
/// ((q/p)^K - 1)/((q/p)^N - 1) for p != q.
AbsorbingChain gamblersRuin(std::size_t N, const Rational &P) {
  AbsorbingChain Chain;
  Chain.NumTransient = N - 1;
  Chain.NumAbsorbing = 2; // 0 = ruin, 1 = win.
  Rational Q = Rational(1) - P;
  for (std::size_t K = 1; K < N; ++K) {
    std::size_t Row = K - 1;
    if (K + 1 < N)
      Chain.QEntries.push_back({Row, Row + 1, P});
    else
      Chain.REntries.push_back({Row, 1, P});
    if (K - 1 >= 1)
      Chain.QEntries.push_back({Row, Row - 1, Q});
    else
      Chain.REntries.push_back({Row, 0, Q});
  }
  return Chain;
}

} // namespace

TEST(AbsorbingTest, CoinFlipLoopFromPaper) {
  // The §4 example: p* with p = (f<-0 ⊕_1/2 f<-1) keeps flipping; from the
  // small-step chain's perspective a single state loops with prob 1/2 and
  // absorbs into each of two outcomes with prob 1/4... Simplified model:
  // one transient state, self-loop 1/2, absorption 1/4 + 1/4.
  AbsorbingChain Chain;
  Chain.NumTransient = 1;
  Chain.NumAbsorbing = 2;
  Chain.QEntries.push_back({0, 0, Rational(1, 2)});
  Chain.REntries.push_back({0, 0, Rational(1, 4)});
  Chain.REntries.push_back({0, 1, Rational(1, 4)});
  ASSERT_TRUE(rowsAreStochastic(Chain));

  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
  EXPECT_EQ(A.at(0, 1), Rational(1, 2));
}

TEST(AbsorbingTest, GamblersRuinExactMatchesClosedForm) {
  // N=5, p=2/3: ratio r = q/p = 1/2; Pr[win | start K] =
  // (1 - r^K)/(1 - r^N).
  AbsorbingChain Chain = gamblersRuin(5, Rational(2, 3));
  ASSERT_TRUE(rowsAreStochastic(Chain));
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  Rational RatioPow(1);
  const Rational Ratio(1, 2);
  Rational Denom = Rational(1) - Rational(1, 32); // 1 - r^5
  for (std::size_t K = 1; K <= 4; ++K) {
    RatioPow *= Ratio;
    Rational Expected = (Rational(1) - RatioPow) / Denom;
    EXPECT_EQ(A.at(K - 1, 1), Expected) << "start " << K;
    // Rows of the absorption matrix are stochastic (total absorption = 1).
    EXPECT_EQ(A.at(K - 1, 0) + A.at(K - 1, 1), Rational(1));
  }
}

TEST(AbsorbingTest, EnginesAgree) {
  AbsorbingChain Chain = gamblersRuin(8, Rational(3, 5));
  DenseMatrix<Rational> Exact;
  ASSERT_TRUE(solveAbsorptionExact(Chain, Exact));

  DenseMatrix<double> Direct, Iterative;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, Direct, SolverKind::Direct));
  ASSERT_TRUE(solveAbsorptionDouble(Chain, Iterative, SolverKind::Iterative));

  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C) {
      double Reference = Exact.at(R, C).toDouble();
      EXPECT_NEAR(Direct.at(R, C), Reference, 1e-10);
      EXPECT_NEAR(Iterative.at(R, C), Reference, 1e-9);
    }
}

TEST(AbsorbingTest, SubStochasticRowsLoseMass) {
  // A row that drops mass (models a drop action): absorption sums < 1.
  AbsorbingChain Chain;
  Chain.NumTransient = 1;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 0, Rational(1, 2)});
  Chain.REntries.push_back({0, 0, Rational(1, 4)});
  EXPECT_FALSE(rowsAreStochastic(Chain));
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  // Σ (1/2)^n * 1/4 = 1/2.
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
}

TEST(AbsorbingTest, DivergingStatesDropAllMass) {
  // Two transient states that only communicate with each other: absorption
  // is unreachable, so the absorption probabilities are zero. ProbNetKAT
  // interprets the lost mass as landing on ∅ (the loop diverges ≡ drop).
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Rational(1)});
  Chain.QEntries.push_back({1, 0, Rational(1)});
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(0));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  DenseMatrix<double> AD;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, AD, SolverKind::Direct));
  EXPECT_DOUBLE_EQ(AD.at(0, 0), 0.0);
  ASSERT_TRUE(solveAbsorptionDouble(Chain, AD, SolverKind::Iterative));
  EXPECT_DOUBLE_EQ(AD.at(1, 0), 0.0);
}

TEST(AbsorbingTest, PartiallyDivergingChain) {
  // State 0 flips a fair coin: heads -> absorb, tails -> state 1 which
  // loops forever. Absorption probability from state 0 is exactly 1/2.
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Rational(1, 2)});
  Chain.QEntries.push_back({1, 1, Rational(1)});
  Chain.REntries.push_back({0, 0, Rational(1, 2)});
  DenseMatrix<Rational> A;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A));
  EXPECT_EQ(A.at(0, 0), Rational(1, 2));
  EXPECT_EQ(A.at(1, 0), Rational(0));
  DenseMatrix<double> AD;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, AD, SolverKind::Direct));
  EXPECT_NEAR(AD.at(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(AD.at(1, 0), 0.0, 1e-12);
}

TEST(AbsorbingTest, EmptyChainTrivial) {
  AbsorbingChain Chain;
  Chain.NumTransient = 0;
  Chain.NumAbsorbing = 3;
  DenseMatrix<double> A;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, A, SolverKind::Direct));
  EXPECT_EQ(A.numRows(), 0u);
  EXPECT_EQ(A.numCols(), 3u);
}

/// Randomized chains: the exact sparse Gauss-Jordan engine and the sparse
/// LU engine must agree entry-wise, and no row may exceed total mass one.
class AbsorbingEngineProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(AbsorbingEngineProperty, ExactAndDirectAgree) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 40; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(2, 40);
    std::size_t NT = Size(Rng), NA = 2;
    AbsorbingChain Chain;
    Chain.NumTransient = NT;
    Chain.NumAbsorbing = NA;
    std::uniform_int_distribution<int> Den(2, 6);
    std::uniform_int_distribution<std::size_t> Col(0, NT - 1);
    for (std::size_t R = 0; R < NT; ++R) {
      int D = Den(Rng);
      for (int I = 0; I < D; ++I) {
        Rational W(1, D);
        if (I == 0 && (Rng() & 3) == 0)
          Chain.REntries.push_back(
              {R, static_cast<std::size_t>(Rng() % NA), W});
        else if ((Rng() & 7) == 0)
          continue; // Dropped mass: substochastic row.
        else
          Chain.QEntries.push_back({R, Col(Rng), W});
      }
    }
    DenseMatrix<Rational> Exact;
    DenseMatrix<double> Direct;
    ASSERT_TRUE(solveAbsorptionExact(Chain, Exact));
    ASSERT_TRUE(solveAbsorptionDouble(Chain, Direct, SolverKind::Direct));
    for (std::size_t R = 0; R < NT; ++R) {
      Rational RowSum;
      for (std::size_t A = 0; A < NA; ++A) {
        EXPECT_NEAR(Exact.at(R, A).toDouble(), Direct.at(R, A), 1e-8);
        RowSum += Exact.at(R, A);
      }
      EXPECT_LE(RowSum, Rational(1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AbsorbingEngineProperty,
                         ::testing::Values(61u, 62u, 63u, 64u));

namespace {

/// A random chain in the shape the engine property suite uses: rows split
/// mass 1/D over random transient columns, absorbing exits, and a dash of
/// dropped mass so some rows are substochastic.
AbsorbingChain randomChain(std::mt19937_64 &Rng) {
  std::uniform_int_distribution<std::size_t> Size(2, 40);
  std::size_t NT = Size(Rng), NA = 2;
  AbsorbingChain Chain;
  Chain.NumTransient = NT;
  Chain.NumAbsorbing = NA;
  std::uniform_int_distribution<int> Den(2, 6);
  std::uniform_int_distribution<std::size_t> Col(0, NT - 1);
  for (std::size_t R = 0; R < NT; ++R) {
    int D = Den(Rng);
    for (int I = 0; I < D; ++I) {
      Rational W(1, D);
      if (I == 0 && (Rng() & 3) == 0)
        Chain.REntries.push_back({R, static_cast<std::size_t>(Rng() % NA), W});
      else if ((Rng() & 7) == 0)
        continue; // Dropped mass: substochastic row.
      else
        Chain.QEntries.push_back({R, Col(Rng), W});
    }
  }
  return Chain;
}

/// Independent reference for the absorption solve, built without the
/// solver under test: keep the states that reach an absorbing state
/// (fixpoint over Q edges), then solve (I - Q)A = R over the kept states
/// with dense Rational Gaussian elimination. Pruned rows stay zero.
DenseMatrix<Rational> denseReference(const AbsorbingChain &Chain) {
  std::size_t NT = Chain.NumTransient, NA = Chain.NumAbsorbing;
  std::vector<bool> Reach(NT, false);
  for (const RationalTriplet &E : Chain.REntries)
    if (!E.Value.isZero())
      Reach[E.Row] = true;
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (const RationalTriplet &E : Chain.QEntries)
      if (!E.Value.isZero() && Reach[E.Col] && !Reach[E.Row])
        Reach[E.Row] = Changed = true;
  }
  std::vector<std::size_t> Kept, Index(NT);
  for (std::size_t I = 0; I < NT; ++I)
    if (Reach[I]) {
      Index[I] = Kept.size();
      Kept.push_back(I);
    }

  std::size_t NK = Kept.size();
  DenseMatrix<Rational> A(NK, NK), B(NK, NA);
  for (std::size_t K = 0; K < NK; ++K)
    A.at(K, K) = Rational(1);
  for (const RationalTriplet &E : Chain.QEntries)
    if (Reach[E.Row] && Reach[E.Col])
      A.at(Index[E.Row], Index[E.Col]) -= E.Value;
  for (const RationalTriplet &E : Chain.REntries)
    if (Reach[E.Row])
      B.at(Index[E.Row], E.Col) += E.Value;
  DenseMatrix<Rational> Out(NT, NA);
  if (NK == 0)
    return Out;
  EXPECT_TRUE(linalg::denseSolveInPlace(A, B));
  for (std::size_t K = 0; K < NK; ++K)
    for (std::size_t C = 0; C < NA; ++C)
      Out.at(Kept[K], C) = B.at(K, C);
  return Out;
}

/// Per-block sums of a SolveMetrics must reproduce the totals (the S13
/// stats contract).
void expectMetricsConsistent(const SolveMetrics &M) {
  EXPECT_EQ(M.Blocks.size(), M.NumBlocks);
  std::size_t States = 0, QEntries = 0, Ops = 0, Fill = 0, MaxSize = 0;
  for (const BlockMetrics &B : M.Blocks) {
    States += B.NumStates;
    QEntries += B.NumQEntries;
    Ops += B.EliminationOps;
    Fill += B.FillIn;
    MaxSize = std::max(MaxSize, B.NumStates);
  }
  EXPECT_EQ(States, M.NumSolved);
  EXPECT_EQ(QEntries, M.NumSolvedQ);
  EXPECT_EQ(Ops, M.EliminationOps);
  EXPECT_EQ(Fill, M.FillIn);
  EXPECT_EQ(MaxSize, M.MaxBlockSize);
}

} // namespace

/// Seeded SCC-decomposition properties: the blocks are a valid partition,
/// the block relation is exactly mutual reachability, and the condensation
/// numbering is reverse-topological (hence acyclic).
class SccProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SccProperty, DecompositionIsCorrect) {
  std::mt19937_64 Rng(GetParam());
  for (int Round = 0; Round < 30; ++Round) {
    std::uniform_int_distribution<std::size_t> Size(1, 36);
    std::uniform_int_distribution<int> Degree(0, 3);
    std::size_t N = Size(Rng);
    std::vector<std::vector<std::size_t>> Adj(N);
    std::uniform_int_distribution<std::size_t> Vertex(0, N - 1);
    for (std::size_t U = 0; U < N; ++U)
      for (int E = Degree(Rng); E-- > 0;)
        Adj[U].push_back(Vertex(Rng));

    SccDecomposition Scc = computeScc(N, Adj);

    // Valid partition: every vertex in exactly one block, ids consistent.
    ASSERT_EQ(Scc.BlockOf.size(), N);
    ASSERT_EQ(Scc.Blocks.size(), Scc.NumBlocks);
    std::vector<std::size_t> Seen(N, 0);
    for (std::size_t B = 0; B < Scc.NumBlocks; ++B) {
      EXPECT_FALSE(Scc.Blocks[B].empty());
      for (std::size_t V : Scc.Blocks[B]) {
        EXPECT_EQ(Scc.BlockOf[V], B);
        ++Seen[V];
      }
    }
    for (std::size_t V = 0; V < N; ++V)
      EXPECT_EQ(Seen[V], 1u);

    // Reachability closure by BFS from each vertex (N is small).
    std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
    for (std::size_t S = 0; S < N; ++S) {
      std::vector<std::size_t> Stack = {S};
      Reach[S][S] = true;
      while (!Stack.empty()) {
        std::size_t U = Stack.back();
        Stack.pop_back();
        for (std::size_t V : Adj[U])
          if (!Reach[S][V]) {
            Reach[S][V] = true;
            Stack.push_back(V);
          }
      }
    }
    // Same block iff mutually reachable.
    for (std::size_t U = 0; U < N; ++U)
      for (std::size_t V = 0; V < N; ++V)
        EXPECT_EQ(Scc.BlockOf[U] == Scc.BlockOf[V],
                  Reach[U][V] && Reach[V][U])
            << U << " vs " << V;

    // Reverse-topological numbering: every edge points to an equal or
    // smaller block id, so the condensation is acyclic by construction.
    for (std::size_t U = 0; U < N; ++U)
      for (std::size_t V : Adj[U])
        EXPECT_GE(Scc.BlockOf[U], Scc.BlockOf[V]);
    for (std::size_t B = 0; B < Scc.NumBlocks; ++B)
      for (std::size_t S : Scc.Successors[B])
        EXPECT_LT(S, B);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SccProperty,
                         ::testing::Values(81u, 82u, 83u, 84u));

/// The SCC-blocked solves must reproduce an independent dense solve of
/// the pruned system: exactly (same rationals) for the exact engine,
/// within 1e-8 for sparse LU — serial and on a shared pool, natural and
/// RCM-ordered.
class BlockedSolveProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(BlockedSolveProperty, BlockedEqualsMonolithic) {
  std::mt19937_64 Rng(GetParam());
  ThreadPool Pool(4);
  for (int Round = 0; Round < 25; ++Round) {
    AbsorbingChain Chain = randomChain(Rng);
    std::size_t NT = Chain.NumTransient, NA = Chain.NumAbsorbing;
    DenseMatrix<Rational> Reference = denseReference(Chain);

    for (ThreadPool *Engine : {static_cast<ThreadPool *>(nullptr), &Pool}) {
      SolverStructure Structure;
      Structure.Pool = Engine;
      SolveMetrics Metrics;
      // The exact engine pivots dynamically, so the block ordering knob
      // must not change a single rational.
      for (linalg::OrderingKind Ordering :
           {linalg::OrderingKind::Natural,
            linalg::OrderingKind::ReverseCuthillMcKee}) {
        Structure.Ordering = Ordering;
        DenseMatrix<Rational> Blocked;
        ASSERT_TRUE(
            solveAbsorptionExact(Chain, Blocked, Structure, &Metrics));
        expectMetricsConsistent(Metrics);
        for (std::size_t R = 0; R < NT; ++R)
          for (std::size_t C = 0; C < NA; ++C)
            EXPECT_EQ(Blocked.at(R, C), Reference.at(R, C)) << R << "," << C;
      }

      Structure.Ordering = linalg::OrderingKind::ReverseCuthillMcKee;
      DenseMatrix<double> Direct;
      ASSERT_TRUE(solveAbsorptionDouble(Chain, Direct, SolverKind::Direct,
                                        Structure, &Metrics));
      expectMetricsConsistent(Metrics);
      for (std::size_t R = 0; R < NT; ++R)
        for (std::size_t C = 0; C < NA; ++C)
          EXPECT_NEAR(Direct.at(R, C), Reference.at(R, C).toDouble(), 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockedSolveProperty,
                         ::testing::Values(91u, 92u, 93u, 94u));

TEST(BlockedSolveTest, SingleSccExtreme) {
  // Gambler's ruin: every transient state reaches every other (birth-death
  // chain), so the whole system is one block.
  AbsorbingChain Chain = gamblersRuin(8, Rational(3, 5));
  DenseMatrix<Rational> Blocked;
  SolveMetrics Metrics;
  ASSERT_TRUE(solveAbsorptionExact(Chain, Blocked, {}, &Metrics));
  DenseMatrix<Rational> Reference = denseReference(Chain);
  EXPECT_EQ(Metrics.NumBlocks, 1u);
  EXPECT_EQ(Metrics.MaxBlockSize, Chain.NumTransient);
  for (std::size_t R = 0; R < Chain.NumTransient; ++R)
    for (std::size_t C = 0; C < Chain.NumAbsorbing; ++C)
      EXPECT_EQ(Blocked.at(R, C), Reference.at(R, C));
}

TEST(BlockedSolveTest, FullyDisconnectedExtreme) {
  // Self-loops only: no state communicates with any other, so every state
  // is its own block and elimination is N independent 1x1 solves.
  AbsorbingChain Chain;
  Chain.NumTransient = 6;
  Chain.NumAbsorbing = 1;
  for (std::size_t S = 0; S < 6; ++S) {
    Chain.QEntries.push_back({S, S, Rational(1, 2)});
    Chain.REntries.push_back({S, 0, Rational(1, 2)});
  }
  DenseMatrix<Rational> A;
  SolveMetrics Metrics;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A, {}, &Metrics));
  EXPECT_EQ(Metrics.NumBlocks, 6u);
  EXPECT_EQ(Metrics.MaxBlockSize, 1u);
  EXPECT_EQ(Metrics.NumSolved, 6u);
  for (std::size_t S = 0; S < 6; ++S)
    EXPECT_EQ(A.at(S, 0), Rational(1));
}

TEST(BlockedSolveTest, DivergingStatesPrunedBeforeBlocking) {
  // The two-state loop with unreachable absorption: pruning removes both
  // states, leaving zero blocks and a zero matrix.
  AbsorbingChain Chain;
  Chain.NumTransient = 2;
  Chain.NumAbsorbing = 1;
  Chain.QEntries.push_back({0, 1, Rational(1)});
  Chain.QEntries.push_back({1, 0, Rational(1)});
  DenseMatrix<Rational> A;
  SolveMetrics Metrics;
  ASSERT_TRUE(solveAbsorptionExact(Chain, A, {}, &Metrics));
  EXPECT_EQ(Metrics.NumBlocks, 0u);
  EXPECT_EQ(Metrics.NumSolved, 0u);
  EXPECT_EQ(A.at(0, 0), Rational(0));
  EXPECT_EQ(A.at(1, 0), Rational(0));
}

TEST(AbsorbingTest, LongChainDirectSolver) {
  // A 400-state birth-death chain exercises sparse LU at moderate size.
  AbsorbingChain Chain = gamblersRuin(400, Rational(1, 2));
  DenseMatrix<double> A;
  ASSERT_TRUE(solveAbsorptionDouble(Chain, A, SolverKind::Direct));
  // Symmetric ruin: Pr[win | start K] = K / N.
  for (std::size_t K = 1; K < 400; K += 37)
    EXPECT_NEAR(A.at(K - 1, 1), static_cast<double>(K) / 400.0, 1e-8);
}
