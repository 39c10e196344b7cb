#include "common/serialize.hpp"

#include <cctype>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace glimpse {

namespace {

// Cap on speculative up-front allocation when honoring a size prefix from
// untrusted input: a corrupted/garbled prefix (e.g. "999999999999") must
// fail with "unexpected end of input" while parsing elements, not take the
// process down trying to reserve terabytes first.
constexpr std::size_t kMaxPrealloc = std::size_t{1} << 20;

}  // namespace

void TextWriter::tag(const std::string& t) { os_ << t << ' '; }

void TextWriter::scalar(double v) {
  os_.precision(std::numeric_limits<double>::max_digits10);
  os_ << v << ' ';
}

void TextWriter::scalar_u(std::size_t v) { os_ << v << ' '; }

void TextWriter::vector(std::span<const double> v) {
  scalar_u(v.size());
  for (double x : v) scalar(x);
  os_ << '\n';
}

void TextWriter::matrix(const linalg::Matrix& m) {
  scalar_u(m.rows());
  scalar_u(m.cols());
  for (double x : m.data()) scalar(x);
  os_ << '\n';
}

void TextWriter::text(const std::string& s) {
  // Words only (no embedded whitespace) keep the format trivially tokenizable.
  for (char c : s)
    if (std::isspace(static_cast<unsigned char>(c)))
      throw std::invalid_argument("TextWriter::text: whitespace in token: " + s);
  os_ << s << ' ';
}

std::string TextReader::next_token() {
  std::string tok;
  if (!(is_ >> tok)) throw std::runtime_error("TextReader: unexpected end of input");
  return tok;
}

void TextReader::expect(const std::string& tag) {
  std::string tok = next_token();
  if (tok != tag)
    throw std::runtime_error("TextReader: expected tag '" + tag + "', got '" + tok +
                             "'");
}

double TextReader::scalar() {
  std::string tok = next_token();
  // strtod, not stod: stod throws out_of_range on subnormal values, which
  // the writer emits legally. strtod returns the closest representable
  // double (denormal, 0, or ±inf) and lets us reject partial parses.
  char* end = nullptr;
  double v = std::strtod(tok.c_str(), &end);
  if (tok.empty() || end != tok.c_str() + tok.size())
    throw std::runtime_error("TextReader: bad scalar " + tok);
  return v;
}

std::size_t TextReader::scalar_u() {
  std::string tok = next_token();
  // stoull silently accepts (and wraps) negative numbers and skips trailing
  // junk; require pure decimal digits so garbled input fails loudly.
  if (tok.empty()) throw std::runtime_error("TextReader: bad integer (empty)");
  for (char c : tok)
    if (!std::isdigit(static_cast<unsigned char>(c)))
      throw std::runtime_error("TextReader: bad integer " + tok);
  try {
    std::size_t pos = 0;
    unsigned long long v = std::stoull(tok, &pos);
    if (pos != tok.size()) throw std::runtime_error("TextReader: bad integer " + tok);
    return static_cast<std::size_t>(v);
  } catch (const std::runtime_error&) {
    throw;
  } catch (const std::exception&) {
    throw std::runtime_error("TextReader: bad integer " + tok);
  }
}

linalg::Vector TextReader::vector() {
  std::size_t n = scalar_u();
  linalg::Vector v;
  v.reserve(std::min(n, kMaxPrealloc));
  for (std::size_t i = 0; i < n; ++i) v.push_back(scalar());
  return v;
}

linalg::Matrix TextReader::matrix() {
  std::size_t r = scalar_u();
  std::size_t c = scalar_u();
  if (c != 0 && r > std::numeric_limits<std::size_t>::max() / c)
    throw std::runtime_error("TextReader: matrix dimensions overflow");
  std::size_t total = r * c;
  // Parse every element before allocating rows*cols: a corrupted dimension
  // pair then dies on end-of-input instead of a huge allocation.
  linalg::Vector data;
  data.reserve(std::min(total, kMaxPrealloc));
  for (std::size_t i = 0; i < total; ++i) data.push_back(scalar());
  linalg::Matrix m(r, c);
  auto dst = m.data();
  for (std::size_t i = 0; i < total; ++i) dst[i] = data[i];
  return m;
}

std::string TextReader::text() { return next_token(); }

}  // namespace glimpse
