// Seeded random-number utilities used by every stochastic component.
//
// All randomness in the library flows through `Rng` so that experiments are
// reproducible: a bench seeds one root Rng and derives per-component streams
// with `fork`, and the simulator derives per-measurement streams from stable
// hashes (see hash_combine) so a measurement's noise does not depend on the
// order in which measurements are issued.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace glimpse {

/// Combine a hash value into a seed (Boost-style mixing).
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t value) {
  // splitmix64-style finalization keeps avalanche behaviour good even for
  // small integer inputs such as config indices.
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL + value;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Stable 64-bit hash of a string (FNV-1a). Used to derive deterministic
/// per-task / per-hardware seeds from their names.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Deterministic pseudo-random stream with convenience helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0) : engine_(seed) {}

  /// Derive an independent child stream; deterministic in (parent state, tag).
  /// Advances the parent — fork order matters. For parallel loops use the
  /// static overload below, which reads no shared state.
  Rng fork(std::uint64_t tag) { return Rng(hash_combine(engine_(), tag)); }

  /// Derive an independent substream purely from (seed, stream_id) —
  /// SplitMix64-style, no parent state read or advanced. Parallel loops
  /// draw one base seed serially, then give index i the stream
  /// Rng::fork(base, i); results are then independent of thread count and
  /// execution order.
  static Rng fork(std::uint64_t seed, std::uint64_t stream_id) {
    return Rng(hash_combine(hash_combine(seed, 0xda3e39cb94b95bdbULL), stream_id));
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (lo > hi) throw std::invalid_argument("uniform_int: lo > hi");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform index in [0, n). n must be positive.
  std::size_t index(std::size_t n) {
    if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Standard normal scaled to (mean, stddev).
  double normal(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Sample an index from an (unnormalized, non-negative) weight vector.
  std::size_t weighted_index(std::span<const double> weights);

  /// Sample `k` distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  std::mt19937_64& engine() { return engine_; }
  const std::mt19937_64& engine() const { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace glimpse
