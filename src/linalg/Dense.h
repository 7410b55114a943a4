//===----------------------------------------------------------------------===//
///
/// \file
/// Dense row-major matrices, parameterized over the scalar type. Used with
/// `double` for floating-point solves and with `Rational` for the exact
/// backend (paper §5 uses exact rationals in the frontend/FDDs and floats in
/// the linear solver; we provide both ends). The axpy-style helpers route
/// Rational accumulation through the fused in-place API so the exact engine
/// never rebuilds operand temporaries in its inner loops.
///
//===----------------------------------------------------------------------===//

#ifndef MCNK_LINALG_DENSE_H
#define MCNK_LINALG_DENSE_H

#include "support/Rational.h"

#include <cassert>
#include <cstddef>
#include <vector>

namespace mcnk {
namespace linalg {

namespace detail {

/// Acc += A * B. The generic form materializes the product; the Rational
/// overload uses the fused in-place kernel (int64 fast path end to end).
template <typename T> inline void addMulAssign(T &Acc, const T &A, const T &B) {
  Acc += A * B;
}
inline void addMulAssign(Rational &Acc, const Rational &A, const Rational &B) {
  Acc.addMul(A, B);
}

/// Acc -= A * B (the elimination kernel of Gaussian solvers).
template <typename T> inline void subMulAssign(T &Acc, const T &A, const T &B) {
  Acc -= A * B;
}
inline void subMulAssign(Rational &Acc, const Rational &A, const Rational &B) {
  Acc.subMul(A, B);
}

} // namespace detail

/// Dense NumRows x NumCols matrix with row-major storage.
template <typename T> class DenseMatrix {
public:
  DenseMatrix() : Rows(0), Cols(0) {}
  DenseMatrix(std::size_t NumRows, std::size_t NumCols)
      : Rows(NumRows), Cols(NumCols), Data(NumRows * NumCols, T()) {}

  static DenseMatrix identity(std::size_t N) {
    DenseMatrix Result(N, N);
    for (std::size_t I = 0; I < N; ++I)
      Result.at(I, I) = T(1);
    return Result;
  }

  std::size_t numRows() const { return Rows; }
  std::size_t numCols() const { return Cols; }

  T &at(std::size_t Row, std::size_t Col) {
    assert(Row < Rows && Col < Cols && "matrix index out of range");
    return Data[Row * Cols + Col];
  }
  const T &at(std::size_t Row, std::size_t Col) const {
    assert(Row < Rows && Col < Cols && "matrix index out of range");
    return Data[Row * Cols + Col];
  }

  bool operator==(const DenseMatrix &RHS) const {
    return Rows == RHS.Rows && Cols == RHS.Cols && Data == RHS.Data;
  }
  bool operator!=(const DenseMatrix &RHS) const { return !(*this == RHS); }

  DenseMatrix &operator+=(const DenseMatrix &RHS) {
    assert(Rows == RHS.Rows && Cols == RHS.Cols && "shape mismatch");
    for (std::size_t I = 0; I < Data.size(); ++I)
      Data[I] += RHS.Data[I];
    return *this;
  }

  DenseMatrix &operator-=(const DenseMatrix &RHS) {
    assert(Rows == RHS.Rows && Cols == RHS.Cols && "shape mismatch");
    for (std::size_t I = 0; I < Data.size(); ++I)
      Data[I] -= RHS.Data[I];
    return *this;
  }

  DenseMatrix operator+(const DenseMatrix &RHS) const {
    DenseMatrix Result = *this;
    Result += RHS;
    return Result;
  }

  DenseMatrix operator-(const DenseMatrix &RHS) const {
    DenseMatrix Result = *this;
    Result -= RHS;
    return Result;
  }

  DenseMatrix operator*(const DenseMatrix &RHS) const {
    assert(Cols == RHS.Rows && "shape mismatch in matrix product");
    DenseMatrix Result(Rows, RHS.Cols);
    for (std::size_t I = 0; I < Rows; ++I)
      for (std::size_t K = 0; K < Cols; ++K) {
        const T &Lhs = at(I, K);
        if (Lhs == T())
          continue; // Skip structural zeros; big win for Rational.
        for (std::size_t J = 0; J < RHS.Cols; ++J)
          detail::addMulAssign(Result.at(I, J), Lhs, RHS.at(K, J));
      }
    return Result;
  }

  /// Scales every entry by \p Factor, in place.
  DenseMatrix &scaleInPlace(const T &Factor) {
    for (T &Value : Data)
      Value *= Factor;
    return *this;
  }

  /// Scales every entry by \p Factor.
  DenseMatrix scaled(const T &Factor) const {
    DenseMatrix Result = *this;
    Result.scaleInPlace(Factor);
    return Result;
  }

private:
  std::size_t Rows, Cols;
  std::vector<T> Data;
};

} // namespace linalg
} // namespace mcnk

#endif // MCNK_LINALG_DENSE_H
