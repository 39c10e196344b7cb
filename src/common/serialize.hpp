// Minimal tagged text serialization for model artifacts.
//
// Format: one token stream; each field is written as `tag value...`.
// Human-diffable, whitespace-delimited, locale-independent doubles via
// max_digits10 round-tripping. Used to persist pretrained Glimpse artifacts
// (train once offline, ship the files).
#pragma once

#include <iosfwd>
#include <string>

#include "linalg/matrix.hpp"

namespace glimpse {

class TextWriter {
 public:
  explicit TextWriter(std::ostream& os) : os_(os) {}

  void tag(const std::string& t);
  void scalar(double v);
  void scalar_u(std::size_t v);
  void vector(std::span<const double> v);       ///< size then elements
  void matrix(const linalg::Matrix& m);         ///< rows cols then data
  void text(const std::string& s);              ///< length-prefixed word

 private:
  std::ostream& os_;
};

/// Throws std::runtime_error on malformed input or tag mismatch.
class TextReader {
 public:
  explicit TextReader(std::istream& is) : is_(is) {}

  void expect(const std::string& tag);
  double scalar();
  std::size_t scalar_u();
  linalg::Vector vector();
  linalg::Matrix matrix();
  std::string text();

 private:
  std::string next_token();
  std::istream& is_;
};

}  // namespace glimpse
