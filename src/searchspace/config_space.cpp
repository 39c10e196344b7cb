#include "searchspace/config_space.hpp"

#include <limits>

#include "common/logging.hpp"
#include "common/strutil.hpp"

namespace glimpse::searchspace {

ConfigSpace::ConfigSpace(std::vector<Knob> knobs) : knobs_(std::move(knobs)) {
  size_ = 1.0;
  for (const auto& k : knobs_) {
    GLIMPSE_CHECK(k.num_options() > 0) << "knob " << k.name() << " has no options";
    size_ *= static_cast<double>(k.num_options());
  }
  if (flat_indexable()) {
    strides_.assign(knobs_.size(), 1);
    for (std::size_t i = knobs_.size(); i-- > 1;)
      strides_[i - 1] = strides_[i] * knobs_[i].num_options();
  }
}

std::size_t ConfigSpace::knob_index(std::string_view name) const {
  for (std::size_t i = 0; i < knobs_.size(); ++i)
    if (knobs_[i].name() == name) return i;
  throw std::out_of_range("ConfigSpace: no knob named " + std::string(name));
}

bool ConfigSpace::has_knob(std::string_view name) const {
  for (const auto& k : knobs_)
    if (k.name() == name) return true;
  return false;
}

Config ConfigSpace::random_config(Rng& rng) const {
  Config c(knobs_.size());
  for (std::size_t i = 0; i < knobs_.size(); ++i)
    c[i] = static_cast<std::uint32_t>(rng.index(knobs_[i].num_options()));
  return c;
}

ConfigSpace::KnobMove ConfigSpace::mutate(Config& c, Rng& rng) const {
  // Pick a knob with more than one option; give up after a few tries if the
  // space is degenerate (all knobs single-option).
  for (int attempt = 0; attempt < 16; ++attempt) {
    std::size_t k = rng.index(knobs_.size());
    std::size_t n = knobs_[k].num_options();
    if (n <= 1) continue;
    const std::uint32_t from = c[k];
    std::uint32_t nv = static_cast<std::uint32_t>(rng.index(n - 1));
    if (nv >= from) ++nv;  // skip the current option
    c[k] = nv;
    return {k, from};
  }
  return {knobs_.size(), 0};
}

bool ConfigSpace::flat_indexable() const {
  return size_ < static_cast<double>(std::numeric_limits<std::int64_t>::max());
}

std::uint64_t ConfigSpace::to_flat_index(const Config& c) const {
  GLIMPSE_CHECK(flat_indexable());
  GLIMPSE_CHECK(contains(c));
  std::uint64_t idx = 0;
  for (std::size_t i = 0; i < knobs_.size(); ++i) idx += c[i] * strides_[i];
  return idx;
}

Config ConfigSpace::from_flat_index(std::uint64_t idx) const {
  GLIMPSE_CHECK(flat_indexable());
  Config c(knobs_.size());
  for (std::size_t ii = knobs_.size(); ii-- > 0;) {
    std::uint64_t n = knobs_[ii].num_options();
    c[ii] = static_cast<std::uint32_t>(idx % n);
    idx /= n;
  }
  GLIMPSE_CHECK(idx == 0) << "flat index out of range";
  return c;
}

bool ConfigSpace::contains(const Config& c) const {
  if (c.size() != knobs_.size()) return false;
  for (std::size_t i = 0; i < knobs_.size(); ++i)
    if (c[i] >= knobs_[i].num_options()) return false;
  return true;
}

std::string ConfigSpace::to_string(const Config& c) const {
  GLIMPSE_CHECK(contains(c));
  std::vector<std::string> parts;
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    auto opt = knobs_[i].option(c[i]);
    if (knobs_[i].kind() == Knob::Kind::kSplit) {
      std::vector<std::string> fs;
      for (int f : opt) fs.push_back(std::to_string(f));
      parts.push_back(knobs_[i].name() + "=[" + join(fs, ",") + "]");
    } else {
      parts.push_back(knobs_[i].name() + "=" + std::to_string(opt[0]));
    }
  }
  return join(parts, " ");
}

}  // namespace glimpse::searchspace
