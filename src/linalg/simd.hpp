// Portable SIMD micro-kernels for the dense-linalg hot loops.
//
// Two code paths, one numeric contract:
//
//   * an explicit SSE2 intrinsic path, compiled when the GLIMPSE_SIMD CMake
//     option is ON and the target is x86-64 (SSE2 is baseline there);
//   * a scalar fallback whose accumulation tree mirrors the vector path
//     EXACTLY — dot products keep four strided partial sums combined as
//     (s0+s2)+(s1+s3) followed by a sequential tail, and axpy updates are
//     per-element independent.
//
// dot4 is the register-blocked form of dot: four dot products against one
// shared operand in a single pass, so each load of that operand feeds four
// outputs. Each output keeps its own lane pairs, combine and tail, so every
// one is bit-identical to dot() of the same two rows (the product x*y is
// commutative, so which operand is shared does not change the bits).
//
// Because both paths perform the same floating-point operations in the same
// association order (and the build never enables FMA contraction: strict
// -std=c++20 implies -ffp-contract=off), results are bit-identical with
// SIMD on or off. The determinism matrix in tests/parallel_test.cpp pins
// this, which is what lets GLIMPSE_SIMD default to ON without perturbing
// any tuner decision.
//
// The vector path is selected at runtime (simd_enabled()), so one binary
// can run — and test — both paths through set_simd_enabled().
#pragma once

#include <cstddef>

#if defined(GLIMPSE_SIMD_COMPILED) && defined(__SSE2__)
#define GLIMPSE_SIMD_SSE2 1
#include <emmintrin.h>
#else
#define GLIMPSE_SIMD_SSE2 0
#endif

namespace glimpse::linalg {

/// True when the intrinsic path is compiled into this binary.
constexpr bool simd_compiled() { return GLIMPSE_SIMD_SSE2 != 0; }

/// Whether the intrinsic path is active (compiled in, defaulted on, and not
/// disabled via set_simd_enabled(false)).
bool simd_enabled();

/// Runtime toggle, for tests and benches that exercise both paths in one
/// process. No-op (stays false) when the intrinsic path is not compiled.
void set_simd_enabled(bool on);

namespace kernels {

// ---- scalar bodies (the canonical accumulation order) ----

inline void axpy_scalar(double* acc, const double* b, double s, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) acc[j] += s * b[j];
}

inline double dot_scalar(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  double s = (s0 + s2) + (s1 + s3);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline double sqdist_scalar(const double* a, const double* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    double d0 = a[i] - b[i], d1 = a[i + 1] - b[i + 1];
    double d2 = a[i + 2] - b[i + 2], d3 = a[i + 3] - b[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double s = (s0 + s2) + (s1 + s3);
  for (; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

#if GLIMPSE_SIMD_SSE2

// ---- SSE2 bodies (same operations, same association order) ----

inline void axpy_sse2(double* acc, const double* b, double s, std::size_t n) {
  const __m128d vs = _mm_set1_pd(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m128d a0 = _mm_loadu_pd(acc + j);
    __m128d a1 = _mm_loadu_pd(acc + j + 2);
    __m128d b0 = _mm_loadu_pd(b + j);
    __m128d b1 = _mm_loadu_pd(b + j + 2);
    _mm_storeu_pd(acc + j, _mm_add_pd(a0, _mm_mul_pd(vs, b0)));
    _mm_storeu_pd(acc + j + 2, _mm_add_pd(a1, _mm_mul_pd(vs, b1)));
  }
  for (; j < n; ++j) acc[j] += s * b[j];
}

inline double dot_sse2(const double* a, const double* b, std::size_t n) {
  // Lane layout: acc0 holds partials (s0, s1), acc1 holds (s2, s3); the
  // horizontal combine below reproduces the scalar (s0+s2)+(s1+s3) tree.
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i)));
    acc1 = _mm_add_pd(acc1,
                      _mm_mul_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2)));
  }
  __m128d sum = _mm_add_pd(acc0, acc1);  // (s0+s2, s1+s3)
  double s = _mm_cvtsd_f64(sum) + _mm_cvtsd_f64(_mm_unpackhi_pd(sum, sum));
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

inline double sqdist_sse2(const double* a, const double* b, std::size_t n) {
  __m128d acc0 = _mm_setzero_pd();
  __m128d acc1 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128d d0 = _mm_sub_pd(_mm_loadu_pd(a + i), _mm_loadu_pd(b + i));
    __m128d d1 = _mm_sub_pd(_mm_loadu_pd(a + i + 2), _mm_loadu_pd(b + i + 2));
    acc0 = _mm_add_pd(acc0, _mm_mul_pd(d0, d0));
    acc1 = _mm_add_pd(acc1, _mm_mul_pd(d1, d1));
  }
  __m128d sum = _mm_add_pd(acc0, acc1);
  double s = _mm_cvtsd_f64(sum) + _mm_cvtsd_f64(_mm_unpackhi_pd(sum, sum));
  for (; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

inline void dot4_sse2(const double* x, const double* const y[4], std::size_t n,
                      double out[4]) {
  // Per output r: lo[r] holds its (s0, s1) partials, hi[r] its (s2, s3),
  // exactly as acc0/acc1 in dot_sse2.
  const double *y0 = y[0], *y1 = y[1], *y2 = y[2], *y3 = y[3];
  __m128d lo0 = _mm_setzero_pd(), hi0 = _mm_setzero_pd();
  __m128d lo1 = _mm_setzero_pd(), hi1 = _mm_setzero_pd();
  __m128d lo2 = _mm_setzero_pd(), hi2 = _mm_setzero_pd();
  __m128d lo3 = _mm_setzero_pd(), hi3 = _mm_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128d xl = _mm_loadu_pd(x + i);
    const __m128d xh = _mm_loadu_pd(x + i + 2);
    lo0 = _mm_add_pd(lo0, _mm_mul_pd(xl, _mm_loadu_pd(y0 + i)));
    hi0 = _mm_add_pd(hi0, _mm_mul_pd(xh, _mm_loadu_pd(y0 + i + 2)));
    lo1 = _mm_add_pd(lo1, _mm_mul_pd(xl, _mm_loadu_pd(y1 + i)));
    hi1 = _mm_add_pd(hi1, _mm_mul_pd(xh, _mm_loadu_pd(y1 + i + 2)));
    lo2 = _mm_add_pd(lo2, _mm_mul_pd(xl, _mm_loadu_pd(y2 + i)));
    hi2 = _mm_add_pd(hi2, _mm_mul_pd(xh, _mm_loadu_pd(y2 + i + 2)));
    lo3 = _mm_add_pd(lo3, _mm_mul_pd(xl, _mm_loadu_pd(y3 + i)));
    hi3 = _mm_add_pd(hi3, _mm_mul_pd(xh, _mm_loadu_pd(y3 + i + 2)));
  }
  const __m128d sums[4] = {_mm_add_pd(lo0, hi0), _mm_add_pd(lo1, hi1),
                           _mm_add_pd(lo2, hi2), _mm_add_pd(lo3, hi3)};
  for (int r = 0; r < 4; ++r) {
    double s = _mm_cvtsd_f64(sums[r]) + _mm_cvtsd_f64(_mm_unpackhi_pd(sums[r], sums[r]));
    for (std::size_t j = i; j < n; ++j) s += x[j] * y[r][j];
    out[r] = s;
  }
}

#endif  // GLIMPSE_SIMD_SSE2

// ---- dispatching entry points ----
// `use_simd` is hoisted by callers (one simd_enabled() read per kernel
// invocation or per loop, not per element).

inline void axpy(double* acc, const double* b, double s, std::size_t n,
                 bool use_simd) {
#if GLIMPSE_SIMD_SSE2
  if (use_simd) {
    axpy_sse2(acc, b, s, n);
    return;
  }
#else
  (void)use_simd;
#endif
  axpy_scalar(acc, b, s, n);
}

inline double dot(const double* a, const double* b, std::size_t n, bool use_simd) {
#if GLIMPSE_SIMD_SSE2
  if (use_simd) return dot_sse2(a, b, n);
#else
  (void)use_simd;
#endif
  return dot_scalar(a, b, n);
}

/// out[r] = dot(x, y[r], n) for r = 0..3, bit for bit, in one pass over x.
/// The scalar path is four canonical dot_scalar calls.
inline void dot4(const double* x, const double* const y[4], std::size_t n,
                 double out[4], bool use_simd) {
#if GLIMPSE_SIMD_SSE2
  if (use_simd) {
    dot4_sse2(x, y, n, out);
    return;
  }
#else
  (void)use_simd;
#endif
  for (int r = 0; r < 4; ++r) out[r] = dot_scalar(x, y[r], n);
}

inline double sqdist(const double* a, const double* b, std::size_t n,
                     bool use_simd) {
#if GLIMPSE_SIMD_SSE2
  if (use_simd) return sqdist_sse2(a, b, n);
#else
  (void)use_simd;
#endif
  return sqdist_scalar(a, b, n);
}

}  // namespace kernels

}  // namespace glimpse::linalg
