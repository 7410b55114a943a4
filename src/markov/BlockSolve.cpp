//===----------------------------------------------------------------------===//
///
/// \file
/// The solve structure every absorption engine runs on
/// (docs/ARCHITECTURE.md S13). The transient graph decomposes into
/// strongly connected classes; in the condensation DAG, absorption out of
/// a class depends only on classes downstream of it:
///
///   (I - Q_BB) A_B = R_B + Q_{B,ext} A_ext
///
/// where ext ranges over states in already-solved successor blocks. Blocks
/// are eliminated in reverse topological order (block ids from Tarjan pop
/// order make that simply increasing id order); when a ThreadPool is
/// supplied, independent classes solve concurrently under a
/// dependency-counted DAG schedule — each task writes only its own block's
/// rows of the shared absorption matrix, and every cross-block read is
/// ordered behind the writer by the scheduling edge.
///
/// The engines differ only in the per-block assembly (Rational or double)
/// and the kernel run on it: Rational elimination (Exact), ordered sparse
/// LU (Direct), or Neumann iteration (Iterative, which plans the whole
/// pruned system as one block).
///
//===----------------------------------------------------------------------===//

#include "markov/Absorbing.h"
#include "markov/Scc.h"

#include "linalg/Solve.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <mutex>
#include <numeric>

using namespace mcnk;
using namespace mcnk::markov;
using linalg::DenseMatrix;
using linalg::SparseMatrix;
using linalg::Triplet;

namespace {

/// The pruned chain reorganized for per-block assembly: per compact state,
/// its kept Q row (compact column indices), its R row, and its index
/// inside its own block.
struct BlockPlan {
  ChainPruning Pruned;
  SccDecomposition Scc; // Over compact transient indices.
  std::vector<std::vector<std::pair<std::size_t, Rational>>> QRows;
  std::vector<std::vector<std::pair<std::size_t, Rational>>> RRows;
  std::vector<std::size_t> Local;
  std::size_t NumKeptQ = 0;
};

/// Prunes \p Chain and decomposes the kept states into SCC blocks — or,
/// with \p OneBlock, into a single block holding every kept state.
BlockPlan planBlocks(const AbsorbingChain &Chain, bool OneBlock) {
  BlockPlan Plan;
  Plan.Pruned = pruneUnreachableStates(Chain);
  std::size_t NK = Plan.Pruned.NumKept;
  Plan.QRows.resize(NK);
  Plan.RRows.resize(NK);
  std::vector<std::vector<std::size_t>> Adj(NK);
  for (const RationalTriplet &E : Chain.QEntries) {
    assert(E.Row < Chain.NumTransient && E.Col < Chain.NumTransient &&
           "Q entry out of range");
    if (!E.Value.isZero() && Plan.Pruned.CanReach[E.Row] &&
        Plan.Pruned.CanReach[E.Col]) {
      std::size_t U = Plan.Pruned.Compact[E.Row];
      std::size_t V = Plan.Pruned.Compact[E.Col];
      Plan.QRows[U].emplace_back(V, E.Value);
      Adj[U].push_back(V);
      ++Plan.NumKeptQ;
    }
  }
  for (const RationalTriplet &E : Chain.REntries) {
    assert(E.Row < Chain.NumTransient && E.Col < Chain.NumAbsorbing &&
           "R entry out of range");
    if (Plan.Pruned.CanReach[E.Row])
      Plan.RRows[Plan.Pruned.Compact[E.Row]].emplace_back(E.Col, E.Value);
  }

  if (OneBlock && NK > 0) {
    Plan.Scc.NumBlocks = 1;
    Plan.Scc.BlockOf.assign(NK, 0);
    Plan.Scc.Blocks.assign(1, std::vector<std::size_t>(NK));
    std::iota(Plan.Scc.Blocks[0].begin(), Plan.Scc.Blocks[0].end(), 0);
    Plan.Scc.Successors.resize(1);
  } else {
    Plan.Scc = computeScc(NK, Adj);
  }
  Plan.Local.resize(NK);
  for (const std::vector<std::size_t> &Members : Plan.Scc.Blocks)
    for (std::size_t L = 0; L < Members.size(); ++L)
      Plan.Local[Members[L]] = L;
  return Plan;
}

/// Runs Solve(BlockId) once per block, respecting condensation-DAG order.
/// Serial fallback processes ids in increasing order (successors first);
/// on a pool, blocks become ready when their dependency counter drains,
/// each completion enqueuing newly ready dependents. Returns false as
/// soon as any Solve fails (remaining ready work is abandoned).
bool runBlocks(const SccDecomposition &Scc, ThreadPool *Pool,
               const std::function<bool(std::size_t)> &Solve) {
  std::size_t NB = Scc.NumBlocks;
  if (!Pool || NB <= 1) {
    for (std::size_t B = 0; B < NB; ++B)
      if (!Solve(B))
        return false;
    return true;
  }

  // DepCount[B] = unsolved successor blocks; Dependents inverts the edge.
  std::vector<std::size_t> DepCount(NB);
  std::vector<std::vector<std::size_t>> Dependents(NB);
  for (std::size_t B = 0; B < NB; ++B) {
    DepCount[B] = Scc.Successors[B].size();
    for (std::size_t S : Scc.Successors[B])
      Dependents[S].push_back(B);
  }

  std::mutex Mutex;
  std::atomic<bool> Ok{true};
  TaskGroup Group(*Pool);
  // Tasks enqueue their newly unblocked dependents onto the same group;
  // the group cannot drain while an enqueuing task is still running, so
  // the final wait() covers every block. All cross-task visibility rides
  // on Mutex plus the pool's queue synchronization (TSan-clean).
  std::function<void(std::size_t)> Run = [&](std::size_t B) {
    if (!Ok.load(std::memory_order_acquire))
      return;
    if (!Solve(B)) {
      Ok.store(false, std::memory_order_release);
      return;
    }
    std::vector<std::size_t> Ready;
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      for (std::size_t D : Dependents[B])
        if (--DepCount[D] == 0)
          Ready.push_back(D);
    }
    for (std::size_t D : Ready)
      Group.run([&Run, D] { Run(D); });
  };
  // Snapshot the initially ready set before enqueueing anything: once the
  // first task runs, workers decrement DepCount concurrently, and a block
  // draining to zero mid-seeding would otherwise be enqueued twice (once
  // by its completing successor, once by this loop reading the drained
  // counter). Sink blocks can never be resurrected by a completion, so
  // the snapshot is exact.
  std::vector<std::size_t> Initial;
  for (std::size_t B = 0; B < NB; ++B)
    if (DepCount[B] == 0)
      Initial.push_back(B);
  for (std::size_t B : Initial)
    Group.run([&Run, B] { Run(B); });
  Group.wait();
  return Ok.load();
}

/// The driver shared by every engine: runs
/// SolveBlock(B, Absorb, BlockMetrics &) once per block of \p Plan in
/// condensation-DAG order, where Absorb holds the absorption rows in
/// compact index space (block B writes the rows of its members and reads
/// those of its already-solved successors), then scatters the rows into
/// \p Out and folds the per-block metrics into \p Metrics.
template <typename T, typename BlockFn>
bool solvePlan(const AbsorbingChain &Chain, const BlockPlan &Plan,
               ThreadPool *Pool, DenseMatrix<T> &Out, SolveMetrics *Metrics,
               BlockFn &&SolveBlock) {
  std::size_t NK = Plan.Pruned.NumKept, NA = Chain.NumAbsorbing;
  Out = DenseMatrix<T>(Chain.NumTransient, NA);
  if (Metrics)
    *Metrics = SolveMetrics();
  if (NK == 0)
    return true;

  DenseMatrix<T> Absorb(NK, NA);
  std::vector<BlockMetrics> Blocks(Plan.Scc.NumBlocks);
  if (!runBlocks(Plan.Scc, Pool, [&](std::size_t B) {
        Blocks[B].NumStates = Plan.Scc.Blocks[B].size();
        return SolveBlock(B, Absorb, Blocks[B]);
      }))
    return false;

  for (std::size_t K = 0; K < NK; ++K)
    for (std::size_t C = 0; C < NA; ++C)
      Out.at(Plan.Pruned.Original[K], C) = std::move(Absorb.at(K, C));
  if (Metrics) {
    Metrics->NumSolved = NK;
    Metrics->NumSolvedQ = Plan.NumKeptQ;
    Metrics->NumBlocks = Plan.Scc.NumBlocks;
    for (const BlockMetrics &B : Blocks) {
      Metrics->MaxBlockSize = std::max(Metrics->MaxBlockSize, B.NumStates);
      Metrics->EliminationOps += B.EliminationOps;
      Metrics->FillIn += B.FillIn;
    }
    Metrics->Blocks = std::move(Blocks);
  }
  return true;
}

/// Assembles block \p B's Rational system in the layout the exact
/// kernel consumes: Rows holds I - Q_BB (local indices), Rhs holds
/// R_B + Q_{B,ext} A_ext with every successor block's rows read from
/// \p Absorb.
void assembleRationalBlock(const BlockPlan &Plan, std::size_t B,
                           const DenseMatrix<Rational> &Absorb,
                           std::vector<std::map<std::size_t, Rational>> &Rows,
                           std::vector<std::vector<Rational>> &Rhs,
                           BlockMetrics &BM) {
  const std::vector<std::size_t> &Members = Plan.Scc.Blocks[B];
  std::size_t N = Members.size(), NA = Absorb.numCols();
  Rows.assign(N, {});
  Rhs.assign(N, std::vector<Rational>(NA));
  for (std::size_t L = 0; L < N; ++L)
    Rows[L][L] = Rational(1);
  for (std::size_t L = 0; L < N; ++L) {
    std::size_t G = Members[L];
    for (const auto &[Col, V] : Plan.RRows[G])
      Rhs[L][Col] += V;
    for (const auto &[Target, V] : Plan.QRows[G]) {
      ++BM.NumQEntries;
      if (Plan.Scc.BlockOf[Target] == B) {
        std::size_t T = Plan.Local[Target];
        Rational &Cell = Rows[L][T];
        Cell -= V;
        if (Cell.isZero())
          Rows[L].erase(T);
      } else {
        // Back-substitution along a condensation edge: the successor
        // block already solved, fold its absorption row into the RHS.
        assert(Plan.Scc.BlockOf[Target] < B && "unsolved successor");
        for (std::size_t C = 0; C < NA; ++C)
          if (!Absorb.at(Target, C).isZero())
            Rhs[L][C].addMul(V, Absorb.at(Target, C));
      }
    }
  }
}

/// The double counterpart of assembleRationalBlock: \p QT receives the
/// block's internal Q entries (local indices, values +q) and \p Rhs the
/// N x NumAbsorbing right-hand side.
void assembleDoubleBlock(const BlockPlan &Plan, std::size_t B,
                         const DenseMatrix<double> &Absorb,
                         std::vector<Triplet> &QT, DenseMatrix<double> &Rhs,
                         BlockMetrics &BM) {
  const std::vector<std::size_t> &Members = Plan.Scc.Blocks[B];
  std::size_t N = Members.size(), NA = Absorb.numCols();
  Rhs = DenseMatrix<double>(N, NA);
  for (std::size_t L = 0; L < N; ++L) {
    std::size_t G = Members[L];
    for (const auto &[Col, V] : Plan.RRows[G])
      Rhs.at(L, Col) += V.toDouble();
    for (const auto &[Target, V] : Plan.QRows[G]) {
      ++BM.NumQEntries;
      if (Plan.Scc.BlockOf[Target] == B) {
        QT.push_back({L, Plan.Local[Target], V.toDouble()});
      } else {
        assert(Plan.Scc.BlockOf[Target] < B && "unsolved successor");
        double W = V.toDouble();
        for (std::size_t C = 0; C < NA; ++C)
          Rhs.at(L, C) += W * Absorb.at(Target, C);
      }
    }
  }
}

/// Neumann iteration x = Qx + r for each column of \p Rhs, in place.
bool neumannSolveColumns(std::size_t N, const std::vector<Triplet> &QT,
                         DenseMatrix<double> &Rhs,
                         std::size_t &EliminationOps) {
  SparseMatrix Q = SparseMatrix::fromTriplets(N, N, QT);
  std::vector<double> Col(N), X;
  for (std::size_t J = 0; J < Rhs.numCols(); ++J) {
    for (std::size_t I = 0; I < N; ++I)
      Col[I] = Rhs.at(I, J);
    std::size_t Iterations = linalg::neumannSolve(Q, Col, X);
    if (Iterations == 0)
      return false;
    EliminationOps += Iterations * Q.numNonZeros();
    for (std::size_t I = 0; I < N; ++I)
      Rhs.at(I, J) = X[I];
  }
  return true;
}

} // namespace

bool markov::solveAbsorptionExact(const AbsorbingChain &Chain,
                                  DenseMatrix<Rational> &Out,
                                  const SolverStructure &Structure,
                                  SolveMetrics *Metrics) {
  BlockPlan Plan = planBlocks(Chain, /*OneBlock=*/false);
  auto SolveBlock = [&](std::size_t B, DenseMatrix<Rational> &Absorb,
                        BlockMetrics &BM) {
    std::vector<std::map<std::size_t, Rational>> Rows;
    std::vector<std::vector<Rational>> Rhs;
    assembleRationalBlock(Plan, B, Absorb, Rows, Rhs, BM);
    if (!detail::eliminateRationalSystem(Rows, Rhs, BM.EliminationOps,
                                         BM.FillIn))
      return false;
    const std::vector<std::size_t> &Members = Plan.Scc.Blocks[B];
    for (std::size_t L = 0; L < Members.size(); ++L)
      for (std::size_t C = 0; C < Absorb.numCols(); ++C)
        Absorb.at(Members[L], C) = std::move(Rhs[L][C]);
    return true;
  };
  return solvePlan(Chain, Plan, Structure.Pool, Out, Metrics, SolveBlock);
}

bool markov::solveAbsorptionDouble(const AbsorbingChain &Chain,
                                   DenseMatrix<double> &Out,
                                   SolverKind Kind,
                                   const SolverStructure &Structure,
                                   SolveMetrics *Metrics) {
  assert(Kind != SolverKind::Exact && "use solveAbsorptionExact");
  // Iterative's convergence test is a whole-system residual, so it plans
  // the pruned system as a single block.
  bool Iterative = Kind == SolverKind::Iterative;
  BlockPlan Plan = planBlocks(Chain, /*OneBlock=*/Iterative);

  auto SolveBlock = [&](std::size_t B, DenseMatrix<double> &Absorb,
                        BlockMetrics &BM) {
    std::vector<Triplet> QT;
    DenseMatrix<double> Rhs;
    assembleDoubleBlock(Plan, B, Absorb, QT, Rhs, BM);
    std::size_t N = Rhs.numRows();
    bool Ok = Iterative
                  ? neumannSolveColumns(N, QT, Rhs, BM.EliminationOps)
                  : detail::luSolveOrdered(N, QT, Rhs, Structure.Ordering,
                                           BM.EliminationOps, BM.FillIn);
    if (!Ok)
      return false;
    const std::vector<std::size_t> &Members = Plan.Scc.Blocks[B];
    for (std::size_t L = 0; L < N; ++L)
      for (std::size_t C = 0; C < Absorb.numCols(); ++C)
        Absorb.at(Members[L], C) = Rhs.at(L, C);
    return true;
  };

  return solvePlan(Chain, Plan, Structure.Pool, Out, Metrics, SolveBlock);
}
