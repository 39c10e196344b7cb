#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "linalg/simd.hpp"

namespace glimpse::linalg {

namespace {
/// Minimum flops a chunk should own before fanning out to the pool.
/// Derived from measurement, not guessed: bench/micro_parallel's
/// pool_dispatch path prices a chunk's marginal dispatch (atomic claim) at
/// ~0.02 us, with the fixed submit/wake/quiesce cost of a whole dispatch in
/// the low tens of microseconds split across its chunks. The kernels
/// sustain a few tenths of a flop/ns on commodity cores, so 2^17 flops
/// ≈ 20-60 us of work per chunk keeps total dispatch overhead well under
/// 1% even for a loop that fans out into only a handful of chunks.
constexpr std::size_t kGrainFlops = 1 << 17;
/// Upper bound on useful fan-out: a compile-time constant — NOT the live
/// pool width — because chunk structure must stay independent of the
/// thread count (matvec_t sums partials in chunk order; grain derived from
/// pool size would change results with GLIMPSE_NUM_THREADS).
constexpr std::size_t kMaxFanout = 16;
/// Output-panel width (doubles) for the matmul accumulator tile: 512
/// doubles = 4 KiB, comfortably L1-resident alongside the streamed b rows.
constexpr std::size_t kPanelJ = 512;

}  // namespace

namespace detail {
/// Rows per chunk for row-parallel loops. Large enough that a chunk owns
/// >= kGrainFlops of work, but capped so at least min(rows, kMaxFanout)
/// chunks exist and workers do not idle when rows are few and fat. Ranges
/// too small to fill two cost-sized chunks (under 2 * kGrainFlops) collapse
/// to one chunk and take the inline serial path.
std::size_t row_grain(std::size_t flops_per_row, std::size_t rows) {
  const std::size_t fpr = std::max<std::size_t>(1, flops_per_row);
  if (rows * fpr < 2 * kGrainFlops) return std::max<std::size_t>(1, rows);
  const std::size_t by_cost = std::max<std::size_t>(1, kGrainFlops / fpr);
  const std::size_t by_fanout = std::max<std::size_t>(1, rows / kMaxFanout);
  return std::min(by_cost, by_fanout);
}
}  // namespace detail

namespace {
using detail::row_grain;
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
  const bool use_simd = simd_enabled();
  // Row-parallel ikj with a private accumulator panel: each output row is
  // owned by exactly one chunk, accumulated over k in ascending order into a
  // cache-aligned local tile, and written back to c exactly once. The tile
  // keeps the hot writes out of shared cache lines (no false sharing between
  // chunks owning adjacent rows) and the k loop streams b rows contiguously
  // through the SIMD axpy kernel. Per-element accumulation order is the
  // naive ascending-k order, so the result is bit-identical to the serial
  // triple loop at any thread count and with SIMD on or off.
  parallel_for_chunks(
      0, m, row_grain(kk * nn, m), [&](std::size_t ib, std::size_t ie, std::size_t) {
        alignas(64) double acc[kPanelJ];
        for (std::size_t i = ib; i < ie; ++i) {
          const double* arow = a.row(i).data();
          double* crow = c.row(i).data();
          for (std::size_t j0 = 0; j0 < nn; j0 += kPanelJ) {
            const std::size_t w = std::min(kPanelJ, nn - j0);
            std::fill_n(acc, w, 0.0);
            for (std::size_t k = 0; k < kk; ++k)
              kernels::axpy(acc, b.row(k).data() + j0, arow[k], w, use_simd);
            std::copy_n(acc, w, crow + j0);
          }
        }
      });
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  GLIMPSE_CHECK(a.cols() == b.cols())
      << "matmul_nt shape mismatch: " << a.rows() << "x" << a.cols() << " * ("
      << b.rows() << "x" << b.cols() << ")^T";
  Matrix c(a.rows(), b.rows());
  const std::size_t m = a.rows(), kk = a.cols(), nn = b.rows();
  if (m == 0 || kk == 0 || nn == 0) return c;
  const bool use_simd = simd_enabled();
  // c(i, j) = dot(a.row(i), b.row(j)): both operands stream row-major, so
  // no transpose materializes. Each c(i, j) uses the canonical dot kernel,
  // making a batched row bit-identical to a per-row matvec against the same
  // weights — predict() and predict_batch() agree exactly.
  parallel_for_chunks(0, m, row_grain(kk * nn, m),
                      [&](std::size_t ib, std::size_t ie, std::size_t) {
                        for (std::size_t i = ib; i < ie; ++i) {
                          const double* arow = a.row(i).data();
                          double* crow = c.row(i).data();
                          for (std::size_t j = 0; j < nn; ++j)
                            crow[j] = kernels::dot(arow, b.row(j).data(), kk, use_simd);
                        }
                      });
  return c;
}

Vector matvec(const Matrix& a, std::span<const double> x) {
  GLIMPSE_CHECK(a.cols() == x.size());
  Vector y(a.rows(), 0.0);
  const bool use_simd = simd_enabled();
  parallel_for_chunks(0, a.rows(), row_grain(a.cols(), a.rows()),
                      [&](std::size_t ib, std::size_t ie, std::size_t) {
                        for (std::size_t i = ib; i < ie; ++i)
                          y[i] = kernels::dot(a.row(i).data(), x.data(), x.size(),
                                              use_simd);
                      });
  return y;
}

Vector matvec_t(const Matrix& a, std::span<const double> x) {
  GLIMPSE_CHECK(a.rows() == x.size());
  Vector y(a.cols(), 0.0);
  // Rows accumulate into shared output slots, so each chunk reduces into a
  // private partial; partials are summed in chunk order afterwards. The
  // chunk structure (and thus the summation order) is fixed by the shapes
  // alone, keeping results thread-count independent.
  const std::size_t grain = row_grain(a.cols(), a.rows());
  const std::size_t num_chunks = a.rows() ? (a.rows() + grain - 1) / grain : 0;
  const bool use_simd = simd_enabled();
  std::vector<Vector> partials(num_chunks);
  parallel_for_chunks(0, a.rows(), grain,
                      [&](std::size_t ib, std::size_t ie, std::size_t chunk) {
                        Vector p(a.cols(), 0.0);
                        for (std::size_t i = ib; i < ie; ++i)
                          kernels::axpy(p.data(), a.row(i).data(), x[i], a.cols(),
                                        use_simd);
                        partials[chunk] = std::move(p);
                      });
  for (const auto& p : partials)
    for (std::size_t j = 0; j < y.size(); ++j) y[j] += p[j];
  return y;
}

double dot(std::span<const double> a, std::span<const double> b) {
  GLIMPSE_CHECK(a.size() == b.size());
  return kernels::dot(a.data(), b.data(), a.size(), simd_enabled());
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

Vector vadd(std::span<const double> a, std::span<const double> b) {
  GLIMPSE_CHECK(a.size() == b.size());
  Vector v(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] + b[i];
  return v;
}

Vector vsub(std::span<const double> a, std::span<const double> b) {
  GLIMPSE_CHECK(a.size() == b.size());
  Vector v(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] - b[i];
  return v;
}

Vector vscale(std::span<const double> a, double s) {
  Vector v(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) v[i] = a[i] * s;
  return v;
}

double sqdist(std::span<const double> a, std::span<const double> b) {
  GLIMPSE_CHECK(a.size() == b.size());
  return kernels::sqdist(a.data(), b.data(), a.size(), simd_enabled());
}

}  // namespace glimpse::linalg
