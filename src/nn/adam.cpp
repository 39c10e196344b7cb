#include "nn/adam.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "linalg/simd.hpp"

namespace glimpse::nn {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

/// One step's bias corrections and learning rate.
struct StepScale {
  double bc1, bc2, lr;
};

void update_one(double& param, double& m, double& v, double grad, const StepScale& k) {
  m = kBeta1 * m + (1.0 - kBeta1) * grad;
  v = kBeta2 * v + (1.0 - kBeta2) * grad * grad;
  double mhat = m / k.bc1;
  double vhat = v / k.bc2;
  param -= k.lr * mhat / (std::sqrt(vhat) + kEps);
}

#if GLIMPSE_SIMD_X86
/// update_one over four elements at a time: the same operations in the same
/// order per element (the vector square root is correctly rounded, as
/// std::sqrt is), so every element keeps its bits.
GLIMPSE_AVX2 void update_avx2(double* p, double* m, double* v, const double* g,
                              std::size_t n, const StepScale& k) {
  const __m256d b1 = _mm256_set1_pd(kBeta1), c1 = _mm256_set1_pd(1.0 - kBeta1);
  const __m256d b2 = _mm256_set1_pd(kBeta2), c2 = _mm256_set1_pd(1.0 - kBeta2);
  const __m256d bc1 = _mm256_set1_pd(k.bc1), bc2 = _mm256_set1_pd(k.bc2);
  const __m256d lr = _mm256_set1_pd(k.lr), eps = _mm256_set1_pd(kEps);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d gi = _mm256_loadu_pd(g + i);
    const __m256d mi = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + i)),
                                     _mm256_mul_pd(c1, gi));
    const __m256d vi = _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + i)),
                                     _mm256_mul_pd(_mm256_mul_pd(c2, gi), gi));
    _mm256_storeu_pd(m + i, mi);
    _mm256_storeu_pd(v + i, vi);
    const __m256d step = _mm256_div_pd(
        _mm256_mul_pd(lr, _mm256_div_pd(mi, bc1)),
        _mm256_add_pd(_mm256_sqrt_pd(_mm256_div_pd(vi, bc2)), eps));
    _mm256_storeu_pd(p + i, _mm256_sub_pd(_mm256_loadu_pd(p + i), step));
  }
  for (; i < n; ++i) update_one(p[i], m[i], v[i], g[i], k);
}
#endif

void update(double* p, double* m, double* v, const double* g, std::size_t n,
            const StepScale& k, linalg::kernels::Isa isa) {
#if GLIMPSE_SIMD_X86
  if (isa == linalg::kernels::Isa::kAvx2) return update_avx2(p, m, v, g, n, k);
#else
  (void)isa;
#endif
  for (std::size_t i = 0; i < n; ++i) update_one(p[i], m[i], v[i], g[i], k);
}

}  // namespace

Adam::Adam(const Mlp& model, AdamOptions options) : options_(options) {
  m_ = model.zero_like();
  v_ = model.zero_like();
}

void Adam::step(Mlp& model, const MlpParams& g) {
  MlpParams& p = model.params();
  GLIMPSE_CHECK(p.w.size() == g.w.size());
  ++t_;
  const StepScale k{1.0 - std::pow(kBeta1, t_), 1.0 - std::pow(kBeta2, t_), options_.lr};
  const linalg::kernels::Isa isa = linalg::kernels::select(linalg::simd_enabled());
  for (std::size_t l = 0; l < p.w.size(); ++l) {
    auto pw = p.w[l].data();
    update(pw.data(), m_.w[l].data().data(), v_.w[l].data().data(), g.w[l].data().data(),
           pw.size(), k, isa);
    update(p.b[l].data(), m_.b[l].data(), v_.b[l].data(), g.b[l].data(), p.b[l].size(), k,
           isa);
  }
}

}  // namespace glimpse::nn
