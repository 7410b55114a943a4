//===----------------------------------------------------------------------===//
///
/// \file
/// Absorbing Markov chain analysis (paper §4). Given the transient-to-
/// transient block Q and transient-to-absorbing block R of an absorbing
/// chain, computes the absorption probabilities A = (I - Q)^{-1} R
/// (Equation 2 / Theorem 4.7). Three engines:
///   - exact:     sparse Gauss-Jordan elimination over Rational
///   - direct:    sparse LU over double (the paper's UMFPACK configuration)
///   - iterative: Neumann-series iteration over double (PRISM-style approx)
///
/// Every engine runs on one solve structure (docs/ARCHITECTURE.md S13):
/// unreachable states are pruned, the transient graph is decomposed into
/// strongly connected components, and the condensation DAG is eliminated
/// class by class in reverse topological order — absorption out of a
/// class depends only on already solved downstream classes, so
/// independent classes solve concurrently on a shared ThreadPool and each
/// block can be permuted by a fill-reducing ordering before
/// factorization. The iterative engine is the one-block case of the same
/// structure: its convergence criterion is a whole-system residual.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_MARKOV_ABSORBING_H
#define MCNK_MARKOV_ABSORBING_H

#include "linalg/Dense.h"
#include "linalg/Ordering.h"
#include "linalg/Sparse.h"
#include "support/Rational.h"

#include <cstddef>
#include <map>
#include <vector>

namespace mcnk {

class ThreadPool;

namespace markov {

/// A rational-valued sparse entry of the Q or R block.
struct RationalTriplet {
  std::size_t Row;
  std::size_t Col;
  Rational Value;
};

/// Sparse description of an absorbing chain's transient rows: Q is
/// NumTransient x NumTransient, R is NumTransient x NumAbsorbing. Rows must
/// be substochastic: Q-row sum + R-row sum == 1 for genuine chains.
struct AbsorbingChain {
  std::size_t NumTransient = 0;
  std::size_t NumAbsorbing = 0;
  std::vector<RationalTriplet> QEntries;
  std::vector<RationalTriplet> REntries;
};

/// Solver selection for absorption probabilities.
enum class SolverKind {
  Exact,     ///< Rational Gaussian elimination; no rounding anywhere.
  Direct,    ///< Sparse LU over double (paper's native configuration).
  Iterative, ///< Neumann iteration over double.
};

/// Number of SolverKind values; per-kind tables are sized by it. The
/// values are persisted as bytes (fdd/CacheStore), which keeps byte 3 for
/// a retired engine.
constexpr std::size_t NumSolverKinds = 3;
static_assert(static_cast<std::size_t>(SolverKind::Iterative) + 1 ==
                  NumSolverKinds,
              "NumSolverKinds must count every SolverKind");

/// Knobs of the solve structure, orthogonal to SolverKind.
struct SolverStructure {
  /// Fill-reducing permutation applied inside each block before sparse LU
  /// (Direct engine only; the exact engine already pivots dynamically by
  /// minimum degree). Natural leaves the system untouched.
  linalg::OrderingKind Ordering = linalg::OrderingKind::Natural;
  /// When non-null, independent blocks solve concurrently on this pool
  /// (dependency-counted DAG schedule). Null solves blocks serially in id
  /// order.
  ThreadPool *Pool = nullptr;
};

/// Elimination statistics of one solve block.
struct BlockMetrics {
  std::size_t NumStates = 0;       ///< Transient states in the block.
  std::size_t NumQEntries = 0;     ///< Kept Q entries rooted in the block.
  std::size_t EliminationOps = 0;  ///< Multiply-subtract operations.
  std::size_t FillIn = 0;          ///< Entries created by elimination.
};

/// Aggregated solve statistics. Per-block entries always sum to the
/// totals: Σ Blocks[i].NumStates == NumSolved, Σ NumQEntries ==
/// NumSolvedQ, and likewise for EliminationOps / FillIn.
struct SolveMetrics {
  std::size_t NumSolved = 0;      ///< Transient states kept after pruning.
  std::size_t NumSolvedQ = 0;     ///< Q entries inside the kept subgraph.
  std::size_t NumBlocks = 0;
  std::size_t MaxBlockSize = 0;
  std::size_t EliminationOps = 0;
  std::size_t FillIn = 0;
  std::vector<BlockMetrics> Blocks; ///< Indexed by block id.
};

/// Transient states that cannot reach any absorbing state, computed by
/// reverse BFS from rows with R mass through Q edges. Mass in such states
/// diverges; the language interprets it as dropped, so their rows of the
/// absorption matrix are zero and the states are pruned from the linear
/// system. After pruning, I - Q is nonsingular (every remaining state
/// reaches a defective row; Lemma B.3 of the paper).
struct ChainPruning {
  std::vector<bool> CanReach;        ///< Indexed by transient state.
  std::vector<std::size_t> Compact;  ///< Old index -> compact index.
  std::vector<std::size_t> Original; ///< Compact index -> old index.
  std::size_t NumKept = 0;
};

ChainPruning pruneUnreachableStates(const AbsorbingChain &Chain);

/// Exact absorption probabilities. Unreachable states (a ProbNetKAT loop
/// diverging on some input) get absorption probability 0 into every
/// absorbing state — the minimal solution, matching the semantics where
/// diverging mass lands on ∅/drop. Returns false only if the pruned
/// system is singular (cannot happen for a well-formed substochastic
/// chain; guards against malformed input). \p Metrics, when non-null,
/// receives the per-block elimination statistics.
bool solveAbsorptionExact(const AbsorbingChain &Chain,
                          linalg::DenseMatrix<Rational> &Out,
                          const SolverStructure &Structure = {},
                          SolveMetrics *Metrics = nullptr);

/// Floating-point absorption probabilities via per-block sparse LU
/// (Direct) or whole-system Neumann iteration (Iterative). Returns false
/// on singularity / non-convergence.
bool solveAbsorptionDouble(const AbsorbingChain &Chain,
                           linalg::DenseMatrix<double> &Out,
                           SolverKind Kind = SolverKind::Direct,
                           const SolverStructure &Structure = {},
                           SolveMetrics *Metrics = nullptr);

/// Checks that every transient row of the chain sums to one (within \p Tol
/// when evaluated in floating point). Used by tests and assertions.
bool rowsAreStochastic(const AbsorbingChain &Chain, double Tol = 1e-9);

namespace detail {

/// Sparse Gauss-Jordan elimination over Rational with min-degree pivoting
/// — the kernel of the exact engine, run once per solve block. \p Rows holds the square system
/// (Rows[i] maps column -> coefficient, diagonals nonzero on entry for
/// well-formed chains); \p Rhs the dense right-hand-side block. On success
/// Rows is reduced to the identity and Rhs holds the solution in place.
/// \p EliminationOps accumulates multiply-subtract operations and
/// \p FillIn the number of matrix entries created during elimination.
/// Returns false if a zero pivot is hit (singular system).
bool eliminateRationalSystem(
    std::vector<std::map<std::size_t, Rational>> &Rows,
    std::vector<std::vector<Rational>> &Rhs, std::size_t &EliminationOps,
    std::size_t &FillIn);

/// Assembles I - Q from \p QTriplets (local indices, values +q), applies
/// the fill-reducing \p Ordering symmetrically, factors with sparse LU,
/// and solves in place for each column of \p Rhs (N x NumAbsorbing) —
/// the Direct engine's kernel, run once per solve block. \p EliminationOps
/// accumulates the factorization's multiply-subtract count and \p FillIn
/// the factor entries beyond the assembled pattern.
bool luSolveOrdered(std::size_t N,
                    const std::vector<linalg::Triplet> &QTriplets,
                    linalg::DenseMatrix<double> &Rhs,
                    linalg::OrderingKind Ordering,
                    std::size_t &EliminationOps, std::size_t &FillIn);

} // namespace detail

} // namespace markov
} // namespace mcnk

#endif // MCNK_MARKOV_ABSORBING_H
