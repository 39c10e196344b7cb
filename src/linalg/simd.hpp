// Portable SIMD micro-kernels for the dense-linalg hot loops.
//
// Two bodies per kernel, one numeric contract:
//
//   * an AVX2 intrinsic body, compiled when the GLIMPSE_SIMD CMake option is
//     ON and the target is x86-64, with __attribute__((target("avx2"))) so
//     the rest of the build keeps the baseline ISA. It runs only when the
//     CPU reports AVX2 (checked once per process, select()); elsewhere the
//     scalar body runs;
//   * a scalar body whose accumulation tree the vector body mirrors
//     EXACTLY — dot products keep four strided partial sums combined as
//     (s0+s2)+(s1+s3) followed by a sequential tail, and axpy updates are
//     per-element independent. One 256-bit register holds exactly the four
//     partial sums (s0, s1, s2, s3).
//
// dot4 and dot8 are register-blocked forms of dot: four or eight dot
// products against one shared operand in a single pass, so each load of
// that operand feeds every output. Each output keeps its own four partials,
// combine and tail, so every one is bit-identical to dot() of the same two
// rows (the product x*y is commutative, so which operand is shared does not
// change the bits).
//
// Because both bodies perform the same floating-point operations in the
// same association order (the AVX2 target does not include FMA, and the
// build never enables contraction: strict -std=c++20 implies
// -ffp-contract=off), results are bit-identical with SIMD on or off and on
// any x86-64 CPU. The determinism matrix in tests/parallel_test.cpp pins
// this, which is what lets GLIMPSE_SIMD default to ON without perturbing
// any tuner decision.
//
// The vector path is switched at runtime (simd_enabled()), so one binary
// can run — and test — both bodies through set_simd_enabled(). Every
// intrinsic body in the tree, the GBT split search's SSE2 lane kernel
// (ml/gbt.cpp) included, runs by one rule: select() names kAvx2.
#pragma once

#include <cstddef>

// GLIMPSE_SIMD_X86: the intrinsic bodies are compiled. The GLIMPSE_SIMD CMake
// option defines it to 1 on x86-64 targets (src/CMakeLists.txt). GLIMPSE_AVX2
// marks a function compiled for AVX2, which only a dispatcher that checked
// select() may call.
#ifndef GLIMPSE_SIMD_X86
#define GLIMPSE_SIMD_X86 0
#endif
#if GLIMPSE_SIMD_X86
#include <immintrin.h>
#define GLIMPSE_AVX2 __attribute__((target("avx2")))
#endif

namespace glimpse::linalg {

/// True when the intrinsic paths are compiled into this binary.
constexpr bool simd_compiled() { return GLIMPSE_SIMD_X86 != 0; }

/// Whether the intrinsic paths are active (compiled in, defaulted on, and
/// not disabled via set_simd_enabled(false)).
bool simd_enabled();

/// Runtime toggle, for tests and benches that exercise both paths in one
/// process. No-op (stays false) when the intrinsic paths are not compiled.
void set_simd_enabled(bool on);

namespace kernels {

/// Which body a dispatcher below runs.
enum class Isa : unsigned char { kScalar, kAvx2 };

/// kAvx2 when the AVX2 bodies are compiled in, `use_simd` holds (callers
/// pass simd_enabled(), read once per kernel invocation or loop) and the CPU
/// reports AVX2; kScalar otherwise.
Isa select(bool use_simd);

// ---- scalar bodies (the canonical accumulation order) ----

inline void axpy_scalar(double* acc, const double* b, double s, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) acc[j] += s * b[j];
}

inline void axpy_outer_scalar(double* acc, const double* b, double d, double s,
                              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) acc[j] += s * (0.0 + d * b[j]);
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

#if GLIMPSE_SIMD_X86

// ---- AVX2 bodies (same operations, same association order) ----

/// (s0+s2)+(s1+s3) of the four partial sums held in `acc`.
GLIMPSE_AVX2 inline double combine_avx2(__m256d acc) {
  const __m128d sum = _mm_add_pd(_mm256_castpd256_pd128(acc),
                                 _mm256_extractf128_pd(acc, 1));  // (s0+s2, s1+s3)
  return _mm_cvtsd_f64(sum) + _mm_cvtsd_f64(_mm_unpackhi_pd(sum, sum));
}

GLIMPSE_AVX2 inline void axpy_avx2(double* acc, const double* b, double s, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4)
    _mm256_storeu_pd(acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j),
                                            _mm256_mul_pd(vs, _mm256_loadu_pd(b + j))));
  for (; j < n; ++j) acc[j] += s * b[j];
}

GLIMPSE_AVX2 inline void axpy_outer_avx2(double* acc, const double* b, double d, double s,
                                         std::size_t n) {
  const __m256d vd = _mm256_set1_pd(d), vs = _mm256_set1_pd(s), zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d g = _mm256_add_pd(zero, _mm256_mul_pd(vd, _mm256_loadu_pd(b + j)));
    _mm256_storeu_pd(acc + j, _mm256_add_pd(_mm256_loadu_pd(acc + j), _mm256_mul_pd(vs, g)));
  }
  for (; j < n; ++j) acc[j] += s * (0.0 + d * b[j]);
}

GLIMPSE_AVX2 inline double dot_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();  // (s0, s1, s2, s3)
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  double s = combine_avx2(acc);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

GLIMPSE_AVX2 inline double sqdist_avx2(const double* a, const double* b, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d d = _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
  }
  double s = combine_avx2(acc);
  for (; i < n; ++i) {
    double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

/// out[r] = dot_avx2(x, y[r], n) for r < R (a multiple of four): one load
/// of x per four inputs feeds R accumulators, each output's own (s0, s1,
/// s2, s3). Four outputs are combined and tailed in one register: lane r
/// of the result performs exactly dot_avx2's combine and tail for row r.
template <int R>
GLIMPSE_AVX2 inline void dot_block_avx2(const double* x, const double* const y[R],
                                        std::size_t n, double out[R]) {
  __m256d acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xv = _mm256_loadu_pd(x + i);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r)
      acc[r] = _mm256_add_pd(acc[r], _mm256_mul_pd(xv, _mm256_loadu_pd(y[r] + i)));
  }
#pragma GCC unroll 2
  for (int r = 0; r < R; r += 4) {
    const __m256d a = acc[r], b = acc[r + 1], c = acc[r + 2], d = acc[r + 3];
    // (a0+a2, a1+a3, c0+c2, c1+c3) and the same for b, d; the horizontal
    // add then gives ((a0+a2)+(a1+a3), (b0+b2)+(b1+b3), ...).
    const __m256d ac = _mm256_add_pd(_mm256_permute2f128_pd(a, c, 0x20),
                                     _mm256_permute2f128_pd(a, c, 0x31));
    const __m256d bd = _mm256_add_pd(_mm256_permute2f128_pd(b, d, 0x20),
                                     _mm256_permute2f128_pd(b, d, 0x31));
    __m256d sum = _mm256_hadd_pd(ac, bd);
    for (std::size_t j = i; j < n; ++j)
      sum = _mm256_add_pd(sum, _mm256_mul_pd(_mm256_set1_pd(x[j]),
                                             _mm256_set_pd(y[r + 3][j], y[r + 2][j],
                                                           y[r + 1][j], y[r][j])));
    _mm256_storeu_pd(out + r, sum);
  }
}

#endif  // GLIMPSE_SIMD_X86

// ---- dispatching entry points ----
// `isa` is hoisted by callers (one select() per kernel invocation or per
// loop, not per element).

inline void axpy(double* acc, const double* b, double s, std::size_t n, Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == Isa::kAvx2) return axpy_avx2(acc, b, s, n);
#else
  (void)isa;
#endif
  axpy_scalar(acc, b, s, n);
}

/// acc[j] += s * (0.0 + d * b[j]): a rank-one gradient row formed as in a
/// zeroed buffer, then scaled into acc (Mlp::backward's weight update).
inline void axpy_outer(double* acc, const double* b, double d, double s, std::size_t n,
                       Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == Isa::kAvx2) return axpy_outer_avx2(acc, b, d, s, n);
#else
  (void)isa;
#endif
  axpy_outer_scalar(acc, b, d, s, n);
}

inline double dot(const double* a, const double* b, std::size_t n, Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == Isa::kAvx2) return dot_avx2(a, b, n);
#else
  (void)isa;
#endif
  return dot_scalar(a, b, n);
}

/// out[r] = dot(x, y[r], n) for r = 0..3, bit for bit, in one pass over x.
/// The scalar path is four canonical dot_scalar calls.
inline void dot4(const double* x, const double* const y[4], std::size_t n, double out[4],
                 Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == Isa::kAvx2) return dot_block_avx2<4>(x, y, n, out);
#else
  (void)isa;
#endif
  for (int r = 0; r < 4; ++r) out[r] = dot_scalar(x, y[r], n);
}

/// dot4 over eight rows: eight accumulators, one load of x per four inputs.
inline void dot8(const double* x, const double* const y[8], std::size_t n, double out[8],
                 Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == Isa::kAvx2) return dot_block_avx2<8>(x, y, n, out);
#else
  (void)isa;
#endif
  for (int r = 0; r < 8; ++r) out[r] = dot_scalar(x, y[r], n);
}

inline double sqdist(const double* a, const double* b, std::size_t n, Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == Isa::kAvx2) return sqdist_avx2(a, b, n);
#else
  (void)isa;
#endif
  return sqdist_scalar(a, b, n);
}

}  // namespace kernels

}  // namespace glimpse::linalg
