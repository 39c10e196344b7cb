// Dense row-major matrix/vector algebra, sized for this project's needs
// (PCA over ~25x20 datasheet matrices, GP over a few hundred samples,
// MLPs with a few thousand weights). Not a general-purpose BLAS.
//
// Every kernel runs serially on its caller's thread, in a fixed summation
// order, so results depend only on the inputs and the SIMD toggle. The
// callers that run in parallel (the scheduler's jobs, the bench grids)
// already own the pool, and a loop nested under them runs inline anyway
// (common/parallel.hpp, DESIGN.md §7).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace glimpse::linalg {

using Vector = std::vector<double>;

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Build from nested initializer lists: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(std::size_t n);
  /// Stack row vectors into a matrix; all rows must have equal length.
  static Matrix from_rows(const std::vector<Vector>& rows);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Checked element access (throws on out-of-range).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  std::span<double> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const double> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }
  Vector col_copy(std::size_t c) const;

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  Matrix transposed() const;

  Matrix& operator+=(const Matrix& o);
  Matrix& operator-=(const Matrix& o);
  Matrix& operator*=(double s);

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  bool same_shape(const Matrix& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Matrix product (throws on shape mismatch).
Matrix matmul(const Matrix& a, const Matrix& b);
/// a * b^T without materializing the transpose: c(i,j) = dot(a.row(i),
/// b.row(j)). Eight outputs per pass over a row of a (kernels::dot8, then
/// dot4), or, when b has one row, eight rows of a per pass over it; the
/// remainders use kernels::dot. Every element equals dot() of its two rows
/// bit for bit, so a row of the result is bit-identical to matvec(b,
/// a.row(i)) — the batched MLP/surrogate forward relies on this to agree
/// exactly with the per-sample path.
Matrix matmul_nt(const Matrix& a, const Matrix& b);
/// y = A x: eight rows of A per pass over x (kernels::dot8), each y[i]
/// bit-identical to dot(a.row(i), x).
Vector matvec(const Matrix& a, std::span<const double> x);
/// y = A^T x.
Vector matvec_t(const Matrix& a, std::span<const double> x);

double dot(std::span<const double> a, std::span<const double> b);
/// Squared Euclidean distance.
double sqdist(std::span<const double> a, std::span<const double> b);

}  // namespace glimpse::linalg
