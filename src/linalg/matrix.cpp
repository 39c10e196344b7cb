#include "linalg/matrix.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/logging.hpp"
#include "linalg/simd.hpp"

namespace glimpse::linalg {

namespace {
/// Output-panel width (doubles) for the matmul accumulator tile: 512
/// doubles = 4 KiB, comfortably L1-resident alongside the streamed b rows.
constexpr std::size_t kPanelJ = 512;

/// out[i] = dot(a.row(i), x) for every row of a: eight rows per pass over x
/// through kernels::dot8, then four through kernels::dot4, the last
/// a.rows() % 4 through kernels::dot. Each output is bit-identical to dot()
/// of its row and x.
void dot_rows(const Matrix& a, const double* x, double* out, kernels::Isa isa) {
  const std::size_t m = a.rows(), n = a.cols();
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const double* rows[8];
    for (std::size_t r = 0; r < 8; ++r) rows[r] = a.row(i + r).data();
    kernels::dot8(x, rows, n, out + i, isa);
  }
  if (i + 4 <= m) {
    const double* rows[4] = {a.row(i).data(), a.row(i + 1).data(), a.row(i + 2).data(),
                             a.row(i + 3).data()};
    kernels::dot4(x, rows, n, out + i, isa);
    i += 4;
  }
  for (; i < m; ++i) out[i] = kernels::dot(a.row(i).data(), x, n, isa);
}
}  // namespace

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : init) {
    GLIMPSE_CHECK(r.size() == cols_) << "ragged initializer list";
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(const std::vector<Vector>& rows) {
  if (rows.empty()) return {};
  Matrix m(rows.size(), rows[0].size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    GLIMPSE_CHECK(rows[r].size() == m.cols()) << "from_rows: ragged input";
    for (std::size_t c = 0; c < m.cols(); ++c) m(r, c) = rows[r][c];
  }
  return m;
}

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
  return (*this)(r, c);
}

Vector Matrix::col_copy(std::size_t c) const {
  Vector v(rows_);
  for (std::size_t r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  GLIMPSE_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  GLIMPSE_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  GLIMPSE_CHECK(a.cols() == b.rows()) << "matmul shape mismatch: " << a.rows() << "x"
                                      << a.cols() << " * " << b.rows() << "x" << b.cols();
  Matrix c(a.rows(), b.cols());
  const std::size_t m = a.rows(), kk = a.cols(), nn = b.cols();
  if (m == 0 || kk == 0 || nn == 0) return c;
  const kernels::Isa isa = kernels::select(simd_enabled());
  // ikj with a private accumulator panel: each output row is accumulated
  // over k in ascending order into a cache-aligned local tile and written
  // back to c exactly once. The k loop streams b rows contiguously through
  // the SIMD axpy kernel. Per-element accumulation order is the naive
  // ascending-k order, so the result is bit-identical to the triple loop
  // with SIMD on or off.
  alignas(64) double acc[kPanelJ];
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.row(i).data();
    double* crow = c.row(i).data();
    for (std::size_t j0 = 0; j0 < nn; j0 += kPanelJ) {
      const std::size_t w = std::min(kPanelJ, nn - j0);
      std::fill_n(acc, w, 0.0);
      for (std::size_t k = 0; k < kk; ++k)
        kernels::axpy(acc, b.row(k).data() + j0, arow[k], w, isa);
      std::copy_n(acc, w, crow + j0);
    }
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  GLIMPSE_CHECK(a.cols() == b.cols())
      << "matmul_nt shape mismatch: " << a.rows() << "x" << a.cols() << " * ("
      << b.rows() << "x" << b.cols() << ")^T";
  Matrix c(a.rows(), b.rows());
  const std::size_t m = a.rows(), kk = a.cols(), nn = b.rows();
  if (m == 0 || kk == 0 || nn == 0) return c;
  const kernels::Isa isa = kernels::select(simd_enabled());
  // c(i, j) = dot(a.row(i), b.row(j)): both operands stream row-major, so
  // no transpose materializes. Row i of c is dot_rows(b, a.row(i)), eight
  // weight rows per pass; a one-wide product (an MLP's scalar output
  // layer) instead blocks eight rows of a against b's single row, whose
  // outputs are c's one column. Every element equals dot() of its two rows
  // bit for bit, so a batched row is bit-identical to a per-row matvec
  // against the same weights — predict() and predict_batch() agree exactly.
  if (nn == 1) {
    dot_rows(a, b.row(0).data(), c.data().data(), isa);
    return c;
  }
  for (std::size_t i = 0; i < m; ++i) dot_rows(b, a.row(i).data(), c.row(i).data(), isa);
  return c;
}

Vector matvec(const Matrix& a, std::span<const double> x) {
  GLIMPSE_CHECK(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  dot_rows(a, x.data(), y.data(), kernels::select(simd_enabled()));
  return y;
}

Vector matvec_t(const Matrix& a, std::span<const double> x) {
  GLIMPSE_CHECK(a.rows() == x.size());
  Vector y(a.cols(), 0.0);
  // Rows accumulate into y in ascending order, so each y[j] is the naive
  // ascending-i sum with SIMD on or off.
  const kernels::Isa isa = kernels::select(simd_enabled());
  for (std::size_t i = 0; i < a.rows(); ++i)
    kernels::axpy(y.data(), a.row(i).data(), x[i], a.cols(), isa);
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  GLIMPSE_CHECK(a.size() == b.size());
  return kernels::dot(a.data(), b.data(), a.size(), kernels::select(simd_enabled()));
}

double sqdist(std::span<const double> a, std::span<const double> b) {
  GLIMPSE_CHECK(a.size() == b.size());
  return kernels::sqdist(a.data(), b.data(), a.size(), kernels::select(simd_enabled()));
}

}  // namespace glimpse::linalg
