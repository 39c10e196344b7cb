// ConfigSpace: the cross product of a template's knobs, and Config: one
// point in it (an option index per knob).
//
// Spaces are astronomically large (the paper notes >2*10^8 combinations for
// VGG-16's first layer) so they are never materialized; tuners interact with
// the space through per-knob option enumeration, random sampling, index
// arithmetic and single-knob mutation.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "searchspace/knob.hpp"

namespace glimpse::searchspace {

/// One configuration: option index per knob, aligned with ConfigSpace knobs.
using Config = std::vector<std::uint32_t>;

/// Stable hash for configs (for dedup sets).
struct ConfigHash {
  std::size_t operator()(const Config& c) const {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (auto v : c) h = hash_combine(h, v);
    return static_cast<std::size_t>(h);
  }
};

class ConfigSpace {
 public:
  ConfigSpace() = default;
  explicit ConfigSpace(std::vector<Knob> knobs);

  std::size_t num_knobs() const { return knobs_.size(); }
  const Knob& knob(std::size_t i) const { return knobs_[i]; }
  const std::vector<Knob>& knobs() const { return knobs_; }

  /// Index of the knob with this name; throws if absent.
  std::size_t knob_index(std::string_view name) const;
  /// True if a knob with this name exists.
  bool has_knob(std::string_view name) const;

  /// Total number of configurations as a double (can exceed 2^64).
  double size() const { return size_; }

  /// The selected option tuple for knob `k` under config `c`.
  std::span<const int> option_of(const Config& c, std::size_t k) const {
    return knobs_[k].option(c[k]);
  }

  /// Uniform random configuration.
  Config random_config(Rng& rng) const;

  /// A single-knob move: knob `knob` left option `from`. `knob` is
  /// num_knobs() when no knob moved.
  struct KnobMove {
    std::size_t knob;
    std::uint32_t from;
  };
  /// Mutate exactly one knob of `c` in place to a different option. Draws
  /// index(num_knobs()) and then index(n - 1) for a knob with n > 1 options,
  /// up to 16 tries; a space whose knobs all have one option leaves `c`
  /// unchanged. `c` must be contained in the space.
  KnobMove mutate(Config& c, Rng& rng) const;

  /// Mixed-radix flattening (knob 0 most significant); only usable when
  /// size() < 2^63, so no flat index is ever UINT64_MAX.
  std::uint64_t to_flat_index(const Config& c) const;
  Config from_flat_index(std::uint64_t idx) const;
  bool flat_indexable() const;
  /// Place value of knob `k` in the flat index: changing knob k from option
  /// a to b moves the index by (b - a) * stride(k). Flat-indexable only.
  std::uint64_t stride(std::size_t k) const { return strides_[k]; }

  /// Validate structural well-formedness (right length, indices in range).
  bool contains(const Config& c) const;

  /// Human-readable rendering, e.g. "tile_f=[2,1,16,2] unroll=512".
  std::string to_string(const Config& c) const;

 private:
  std::vector<Knob> knobs_;
  double size_ = 1.0;
  std::vector<std::uint64_t> strides_;  ///< empty unless flat_indexable()
};

}  // namespace glimpse::searchspace
