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
