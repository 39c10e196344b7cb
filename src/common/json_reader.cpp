#include "common/json_reader.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace glimpse::json {

namespace {

/// Recursive-descent parser appending pre-order Nodes to a Document's
/// storage. Nodes are addressed by index while parsing (the vector grows).
class Parser {
 public:
  Parser(std::string_view s, std::vector<Node>& nodes,
         std::forward_list<std::string>& unescaped)
      : p_(s.data()), end_(s.data() + s.size()), nodes_(nodes), unescaped_(unescaped) {}

  bool parse(std::string& error) {
    if (!value(0)) return reject(error, err_ ? err_ : "malformed JSON");
    skip_ws();
    return p_ == end_ || reject(error, "trailing bytes after JSON value");
  }

 private:
  bool fail(const char* what) {
    if (!err_) err_ = what;
    return false;
  }

  void skip_ws() {
    while (p_ != end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' || *p_ == '\r'))
      ++p_;
  }

  bool lit(const char* s) {
    std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end_ - p_) < n || std::memcmp(p_, s, n) != 0)
      return false;
    p_ += n;
    return true;
  }

  bool eat(char c) {
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  bool skip_digits() {
    const char* start = p_;
    while (p_ != end_ && *p_ >= '0' && *p_ <= '9') ++p_;
    return p_ != start;
  }

  bool close(std::size_t idx) {
    nodes_[idx].span = static_cast<std::uint32_t>(nodes_.size() - idx);
    return true;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (nodes_.size() >= kMaxValues) return fail("too many values");
    skip_ws();
    if (p_ == end_) return fail("unexpected end of input");
    const std::size_t idx = nodes_.size();
    nodes_.emplace_back();
    Node& v = nodes_.back();  // stable until a container pushes children
    switch (*p_) {
      case '{': return object(idx, depth);
      case '[': return array(idx, depth);
      case '"':
        v.kind = Kind::kString;
        return string(v.s);
      case 't':
      case 'f':
        v.kind = Kind::kBool;
        v.b = *p_ == 't';
        return lit(v.b ? "true" : "false") || fail("bad literal");
      case 'n': return lit("null") || fail("bad literal");
      default: return number(v);
    }
  }

  bool object(std::size_t idx, int depth) {
    ++p_;  // '{'
    nodes_[idx].kind = Kind::kObject;
    skip_ws();
    if (eat('}')) return close(idx);
    while (true) {
      skip_ws();
      if (p_ == end_ || *p_ != '"') return fail("expected object key");
      std::string_view key;
      if (!string(key)) return false;
      for (std::size_t k = idx + 1; k < nodes_.size(); k += nodes_[k].span)
        if (nodes_[k].key == key) return fail("duplicate object key");
      if (nodes_[idx].count >= kMaxObjectKeys) return fail("too many object keys");
      skip_ws();
      if (!eat(':')) return fail("expected ':'");
      const std::size_t member = nodes_.size();
      if (!value(depth + 1)) return false;
      nodes_[member].key = key;
      ++nodes_[idx].count;
      skip_ws();
      if (p_ == end_) return fail("unterminated object");
      if (eat('}')) return close(idx);
      if (!eat(',')) return fail("expected ',' or '}'");
    }
  }

  bool array(std::size_t idx, int depth) {
    ++p_;  // '['
    nodes_[idx].kind = Kind::kArray;
    skip_ws();
    if (eat(']')) return close(idx);
    while (true) {
      if (!value(depth + 1)) return false;
      if (nodes_[idx].count >= kMaxArrayLen) return fail("array too long");
      ++nodes_[idx].count;
      skip_ws();
      if (p_ == end_) return fail("unterminated array");
      if (eat(']')) return close(idx);
      if (!eat(',')) return fail("expected ',' or ']'");
    }
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    const int tail = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    out += static_cast<char>(kLead[tail] | (cp >> (6 * tail)));
    for (int k = tail - 1; k >= 0; --k)
      out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
  }

  bool hex4(std::uint32_t& out) {
    if (end_ - p_ < 4) return fail("truncated \\u escape");
    if (std::from_chars(p_, p_ + 4, out, 16).ptr != p_ + 4) return fail("bad \\u escape");
    p_ += 4;
    return true;
  }

  /// A string token. Without escapes the result views the input; the first
  /// escape switches to decoding into a Document-owned copy.
  bool string(std::string_view& result) {
    const char* start = ++p_;  // past the opening quote
    const char* stop =
        static_cast<std::size_t>(end_ - p_) > kMaxStringLen ? p_ + kMaxStringLen : end_;
    while (p_ != stop && *p_ != '"' && *p_ != '\\' &&
           static_cast<unsigned char>(*p_) >= 0x20)
      ++p_;
    if (p_ == end_) return fail("unterminated string");
    if (*p_ == '"') {
      result = std::string_view(start, static_cast<std::size_t>(p_ - start));
      ++p_;
      return true;
    }
    if (p_ == stop) return fail("string too long");
    if (*p_ != '\\') return fail("raw control character in string");
    std::string& out = unescaped_.emplace_front(start, p_);
    static constexpr std::string_view kEscapes = "\"\\/bfnrt";
    static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
    while (true) {
      if (p_ == end_) return fail("unterminated string");
      unsigned char c = static_cast<unsigned char>(*p_);
      if (c == '"') {
        ++p_;
        result = out;
        return true;
      }
      if (out.size() >= kMaxStringLen) return fail("string too long");
      if (c < 0x20) return fail("raw control character in string");
      ++p_;
      if (c != '\\') {
        out += static_cast<char>(c);
        continue;
      }
      if (p_ == end_) return fail("truncated escape");
      const char e = *p_++;
      if (const std::size_t at = kEscapes.find(e); at != std::string_view::npos) {
        out += kDecoded[at];
        continue;
      }
      if (e != 'u') return fail("unknown escape");
      std::uint32_t cp = 0;
      if (!hex4(cp)) return false;
      if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate: need the pair
        if (end_ - p_ < 2 || p_[0] != '\\' || p_[1] != 'u')
          return fail("lone high surrogate");
        p_ += 2;
        std::uint32_t lo = 0;
        if (!hex4(lo)) return false;
        if (lo < 0xDC00 || lo > 0xDFFF) return fail("bad surrogate pair");
        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
      } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
        return fail("lone low surrogate");
      }
      append_utf8(out, cp);
    }
  }

  bool number(Node& v) {
    const char* start = p_;
    const bool negative = eat('-');
    const char* digits = p_;
    std::uint64_t mag = 0;  // exact while at most 19 digits
    for (; p_ != end_ && *p_ >= '0' && *p_ <= '9'; ++p_)
      mag = mag * 10 + static_cast<std::uint64_t>(*p_ - '0');
    if (p_ == digits) return fail("bad number");
    // JSON forbids leading zeros on multi-digit integers.
    if (p_ - digits > 1 && *digits == '0') return fail("leading zero");
    const char* int_end = p_;
    if (eat('.') && !skip_digits()) return fail("bad fraction");
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!skip_digits()) return fail("bad exponent");
    }
    if (p_ == int_end) {  // an integer: kept exact
      if (p_ - digits > 19 && std::from_chars(digits, p_, mag).ec != std::errc())
        return fail("integer out of range");
      constexpr std::uint64_t kMinMag = std::uint64_t{1} << 63;  // |INT64_MIN|
      if (negative && mag > kMinMag) return fail("integer out of range");
      v.kind = negative || mag < kMinMag ? Kind::kInt : Kind::kUint;
      v.i = static_cast<std::int64_t>(negative ? 0 - mag : mag);
      v.u = mag;
      v.d = negative ? -static_cast<double>(mag) : static_cast<double>(mag);  // "-0" too
      return true;
    }
    double x = 0.0;
    const std::from_chars_result r = std::from_chars(start, p_, x);
    // from_chars refuses underflow too; strtod rounds it to zero or a
    // denormal, which is the value the token spells.
    if (r.ec == std::errc::result_out_of_range)
      x = std::strtod(std::string(start, p_).c_str(), nullptr);
    else if (r.ec != std::errc() || r.ptr != p_)
      return fail("bad number");
    if (!std::isfinite(x)) return fail("bad number");
    v.kind = Kind::kDouble;
    v.d = x;
    return true;
  }

  const char* p_;
  const char* end_;
  const char* err_ = nullptr;
  std::vector<Node>& nodes_;
  std::forward_list<std::string>& unescaped_;
};

bool bad_key(std::string& error, std::string_view key, const char* what) {
  return reject(error, "key '" + std::string(key) + "' " + what);
}

/// The outcome for an absent key: an error when it is required.
bool missing(std::string& error, std::string_view key, bool required) {
  return !required || reject(error, "missing key '" + std::string(key) + "'");
}

}  // namespace

bool reject(std::string& error, std::string why) {
  error = std::move(why);
  return false;
}

bool Node::to_u64(std::uint64_t& out) const {
  if (kind == Kind::kUint) out = u;
  else if (kind == Kind::kInt && i >= 0) out = static_cast<std::uint64_t>(i);
  else return false;
  return true;
}

bool Document::parse(std::string_view line, std::string& error) {
  nodes_.clear();
  nodes_.reserve(32);  // a whole cache line or submit request: one allocation
  unescaped_.clear();
  if (line.size() > kMaxLineBytes) return reject(error, "line too long");
  return Parser(line, nodes_, unescaped_).parse(error);
}

const Node* find(const Node& obj, std::string_view key) {
  for (const Node& m : obj.children())
    if (m.key == key) return &m;
  return nullptr;
}

bool check_keys(const Node& obj, std::initializer_list<std::string_view> allowed,
                std::string& error) {
  for (const Node& m : obj.children())
    if (std::find(allowed.begin(), allowed.end(), m.key) == allowed.end())
      return reject(error, "unknown key '" + std::string(m.key) + "'");
  return true;
}

bool get_u64(const Node& obj, std::string_view key, std::uint64_t& out,
             std::uint64_t lo, std::uint64_t hi, std::string& error, bool required) {
  const Node* v = find(obj, key);
  if (!v) return missing(error, key, required);
  std::uint64_t x;
  if (!v->to_u64(x)) return bad_key(error, key, "must be a non-negative integer");
  if (x < lo || x > hi) return bad_key(error, key, "out of range");
  out = x;
  return true;
}

bool get_i64(const Node& obj, std::string_view key, std::int64_t& out,
             std::int64_t lo, std::int64_t hi, std::string& error) {
  const Node* v = find(obj, key);
  if (!v) return missing(error, key, true);
  if (v->kind != Kind::kInt) return bad_key(error, key, "must be an integer");
  if (v->i < lo || v->i > hi) return bad_key(error, key, "out of range");
  out = v->i;
  return true;
}

bool get_string(const Node& obj, std::string_view key, std::string& out,
                std::size_t max_len, bool allow_empty, std::string& error) {
  const Node* v = find(obj, key);
  if (!v) return missing(error, key, true);
  if (v->kind != Kind::kString) return bad_key(error, key, "must be a string");
  if (v->s.size() > max_len || (!allow_empty && v->s.empty()))
    return bad_key(error, key, "has bad length");
  out = v->s;
  return true;
}

bool get_nonneg_double(const Node& obj, std::string_view key, double& out,
                       std::string& error, bool required) {
  const Node* v = find(obj, key);
  if (!v) return missing(error, key, required);
  if (!v->is_number()) return bad_key(error, key, "must be a number");
  if (!std::isfinite(v->d) || v->d < 0.0)
    return bad_key(error, key, "must be finite and non-negative");
  out = v->d;
  return true;
}

bool get_bool(const Node& obj, std::string_view key, bool& out, std::string& error,
              bool required) {
  const Node* v = find(obj, key);
  if (!v) return missing(error, key, required);
  if (v->kind != Kind::kBool) return bad_key(error, key, "must be a boolean");
  out = v->b;
  return true;
}

}  // namespace glimpse::json
