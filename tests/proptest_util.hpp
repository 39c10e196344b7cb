// Lightweight property-based testing on top of gtest.
//
// A property is a callable `bool(Rng&)` (return false or throw to fail).
// CHECK_PROP runs it against many independent Rng streams forked from a
// base seed; a failure reports the exact (base_seed, iteration) pair so the
// case replays with `Rng rng = Rng::fork(base_seed, iter);` in isolation.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace glimpse::testing {

struct PropResult {
  bool ok = true;
  int failing_iter = -1;
  std::string message;  ///< what() when the property threw
};

/// Run `prop` against `iters` streams forked from `base_seed`; stop at the
/// first failure (false return or exception).
PropResult run_prop(std::uint64_t base_seed, int iters,
                    const std::function<bool(Rng&)>& prop);

// ---------- generators ----------

/// Any double, including ±inf, NaN, ±0, denormals, and wide-magnitude
/// finite values.
double any_double(Rng& rng);
/// Finite double with the exponent spread across (almost) the full range.
double finite_double(Rng& rng);
/// Non-empty printable word without whitespace (a legal TextWriter token),
/// 1..max_len chars.
std::string any_word(Rng& rng, std::size_t max_len);
/// Arbitrary string: printable chars, quotes, backslashes, control chars,
/// and high bytes — the JSON-escaping gauntlet. May be empty.
std::string any_string(Rng& rng, std::size_t max_len);
/// Vector of any_double values; may be empty.
linalg::Vector any_vector(Rng& rng, std::size_t max_len);
/// Matrix of any_double values; either dimension may be zero.
linalg::Matrix any_matrix(Rng& rng, std::size_t max_dim);

/// Equality that treats every NaN as equal and distinguishes -0.0 from 0.0
/// (what a bit-exact serialization round trip must preserve, modulo NaN
/// payloads which textual formats do not carry).
bool same_double(double a, double b);

/// Deterministically damage a serialized stream: truncate, delete a chunk,
/// flip characters, or duplicate a span. Never returns the input unchanged
/// unless the input is empty.
std::string garble(const std::string& s, Rng& rng);

/// Byte offset where the last whitespace-delimited token of `s` starts, or
/// std::string::npos if `s` has no tokens. Truncating strictly before this
/// offset is guaranteed to lose at least one whole token.
std::size_t last_token_start(const std::string& s);

/// Minimal strict JSON validator (syntax only, no semantics), kept apart
/// from common/json_reader: it checks JsonWriter output, and it is the
/// oracle of the reader's differential fuzz.
bool json_valid(const std::string& s);

}  // namespace glimpse::testing

/// Run a property under gtest, reporting the failing iteration on error.
#define CHECK_PROP(base_seed, iters, prop)                                     \
  do {                                                                         \
    const std::uint64_t cp_seed_ = (base_seed);                                \
    ::glimpse::testing::PropResult cp_res_ =                                   \
        ::glimpse::testing::run_prop(cp_seed_, (iters), (prop));               \
    EXPECT_TRUE(cp_res_.ok)                                                    \
        << "property failed at iteration " << cp_res_.failing_iter             \
        << " — replay with Rng rng = Rng::fork(" << cp_seed_ << "ULL, "        \
        << cp_res_.failing_iter << ");"                                        \
        << (cp_res_.message.empty() ? "" : "\n  threw: " + cp_res_.message);   \
  } while (0)
