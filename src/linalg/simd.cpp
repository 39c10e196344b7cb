#include "linalg/simd.hpp"

#include <atomic>

namespace glimpse::linalg {

namespace {

std::atomic<bool> g_simd{simd_compiled()};  // compiled in -> on by default

}  // namespace

bool simd_enabled() { return g_simd.load(std::memory_order_relaxed); }

void set_simd_enabled(bool on) {
  g_simd.store(simd_compiled() && on, std::memory_order_relaxed);
}

}  // namespace glimpse::linalg
