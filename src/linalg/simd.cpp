#include "linalg/simd.hpp"

#include <atomic>

namespace glimpse::linalg {

namespace {

std::atomic<bool> g_simd{simd_compiled()};  // compiled in -> on by default

#if GLIMPSE_SIMD_X86
bool cpu_has_avx2() {
  static const bool has = [] {
    __builtin_cpu_init();  // may run before libgcc's own initializer
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return has;
}
#endif

}  // namespace

bool simd_enabled() { return g_simd.load(std::memory_order_relaxed); }

void set_simd_enabled(bool on) {
  g_simd.store(simd_compiled() && on, std::memory_order_relaxed);
}

namespace kernels {

Isa select(bool use_simd) {
#if GLIMPSE_SIMD_X86
  if (use_simd && cpu_has_avx2()) return Isa::kAvx2;
#else
  (void)use_simd;
#endif
  return Isa::kScalar;
}

}  // namespace kernels

}  // namespace glimpse::linalg
