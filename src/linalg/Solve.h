//===----------------------------------------------------------------------===//
///
/// \file
/// Linear-system solvers: exact dense Gaussian elimination over Rational,
/// dense partial-pivot elimination over double, and the Neumann-series
/// iteration for (I - Q) x = b used by the approximate engines.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_LINALG_SOLVE_H
#define MCNK_LINALG_SOLVE_H

#include "linalg/Dense.h"
#include "linalg/Sparse.h"
#include "support/Rational.h"

#include <cmath>
#include <cstddef>
#include <vector>

namespace mcnk {
namespace linalg {

namespace detail {
inline double pivotWeight(double Value) { return std::fabs(Value); }
/// For exact arithmetic any non-zero pivot is valid; prefer structurally
/// simple ones (small numerator/denominator) to slow coefficient growth.
inline double pivotWeight(const Rational &Value) {
  if (Value.isZero())
    return 0.0;
  double Size = static_cast<double>(Value.numerator().numLimbs() +
                                    Value.denominator().numLimbs());
  return 1.0 / (1.0 + Size);
}

} // namespace detail

/// Solves A X = B in place: on success B holds X and A is destroyed.
/// Returns false if A is singular. Works for T = double (partial pivoting by
/// magnitude) and T = Rational (exact; pivot chosen to limit blow-up).
template <typename T>
bool denseSolveInPlace(DenseMatrix<T> &A, DenseMatrix<T> &B) {
  std::size_t N = A.numRows();
  if (N != A.numCols() || B.numRows() != N)
    return false;
  std::size_t NumRhs = B.numCols();
  std::vector<std::size_t> RowOf(N); // RowOf[k] = storage row used at step k
  for (std::size_t I = 0; I < N; ++I)
    RowOf[I] = I;

  for (std::size_t Step = 0; Step < N; ++Step) {
    // Select pivot among remaining rows.
    std::size_t Best = Step;
    double BestWeight = detail::pivotWeight(A.at(RowOf[Step], Step));
    for (std::size_t I = Step + 1; I < N; ++I) {
      double Weight = detail::pivotWeight(A.at(RowOf[I], Step));
      if (Weight > BestWeight) {
        Best = I;
        BestWeight = Weight;
      }
    }
    if (BestWeight == 0.0)
      return false;
    std::swap(RowOf[Step], RowOf[Best]);
    std::size_t PivRow = RowOf[Step];
    const T Pivot = A.at(PivRow, Step);

    // Axpy-style in-place elimination: for Rational this runs on the
    // fused subMul fast path with no operand temporaries.
    for (std::size_t I = Step + 1; I < N; ++I) {
      std::size_t Row = RowOf[I];
      if (A.at(Row, Step) == T())
        continue;
      T Factor = A.at(Row, Step) / Pivot;
      A.at(Row, Step) = T();
      for (std::size_t J = Step + 1; J < N; ++J)
        if (A.at(PivRow, J) != T())
          detail::subMulAssign(A.at(Row, J), Factor, A.at(PivRow, J));
      for (std::size_t J = 0; J < NumRhs; ++J)
        if (B.at(PivRow, J) != T())
          detail::subMulAssign(B.at(Row, J), Factor, B.at(PivRow, J));
    }
  }

  // Back substitution.
  for (std::size_t Step = N; Step-- > 0;) {
    std::size_t Row = RowOf[Step];
    const T Pivot = A.at(Row, Step);
    for (std::size_t J = 0; J < NumRhs; ++J) {
      T Value = B.at(Row, J);
      for (std::size_t K = Step + 1; K < N; ++K)
        if (A.at(Row, K) != T())
          detail::subMulAssign(Value, A.at(Row, K), B.at(RowOf[K], J));
      B.at(Row, J) = Value / Pivot;
    }
  }

  // Un-permute rows of the solution.
  DenseMatrix<T> X(N, NumRhs);
  for (std::size_t Step = 0; Step < N; ++Step)
    for (std::size_t J = 0; J < NumRhs; ++J)
      X.at(Step, J) = B.at(RowOf[Step], J);
  B = std::move(X);
  return true;
}

/// Iteratively solves (I - Q) x = b as x = lim (Q x + b) — the Neumann
/// series. Converges whenever Q is substochastic with all weight eventually
/// draining (Lemma B.3 of the paper). Returns the number of iterations used,
/// or 0 if MaxIters was reached before the residual dropped below Tol.
std::size_t neumannSolve(const SparseMatrix &Q, const std::vector<double> &B,
                         std::vector<double> &X, double Tol = 1e-12,
                         std::size_t MaxIters = 100000);

} // namespace linalg
} // namespace mcnk

#endif // MCNK_LINALG_SOLVE_H
