// Strict JSON reader: the one parser for every JSON line the repo reads back
// — wire messages and spool records (service/protocol.cpp) and result-cache
// tier lines (tuning/result_cache.cpp).
//
// A Document is flat: every value is a Node in one vector, laid out in
// pre-order, so a container's children follow it contiguously and are
// reached by index arithmetic (Node::span), not by pointers or per-node
// allocations. Strings are views into the parsed line, copied only when they
// contain escapes; numbers are read with std::from_chars on the token. The
// caller keeps the line alive while reading the Document.
//
// Strictness: the caps below are hard limits; duplicate object keys, leading
// zeros, non-finite numbers, lone surrogates and non-JSON whitespace are
// rejected; integer tokens stay exact (int64, or uint64 above the int64
// range — a seed is a uint64, and doubles lose exactness above 2^53).
// Anything outside the grammar fails with a short message, never coerces.
#pragma once

#include <cstddef>
#include <cstdint>
#include <forward_list>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace glimpse::json {

inline constexpr std::size_t kMaxLineBytes = 1 << 16;  ///< 64 KiB
inline constexpr int kMaxDepth = 8;
inline constexpr std::size_t kMaxValues = 16384;
inline constexpr std::size_t kMaxStringLen = 4096;
inline constexpr std::size_t kMaxArrayLen = 4096;
inline constexpr std::size_t kMaxObjectKeys = 64;

enum class Kind : std::uint8_t {
  kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
};

struct Children;

struct Node {
  Kind kind = Kind::kNull;
  bool b = false;           ///< kBool
  std::uint32_t count = 0;  ///< kArray items / kObject members
  std::uint32_t span = 1;   ///< nodes in this subtree, itself included
  std::int64_t i = 0;       ///< kInt
  std::uint64_t u = 0;      ///< kUint (magnitudes above the int64 range)
  double d = 0.0;           ///< every number, as the nearest double
  std::string_view s;       ///< kString payload
  std::string_view key;     ///< member name when the parent is an object

  bool is_number() const {
    return kind == Kind::kInt || kind == Kind::kUint || kind == Kind::kDouble;
  }
  /// True (and sets `out`) for a non-negative integer.
  bool to_u64(std::uint64_t& out) const;
  /// A container's direct children (members or items), in order.
  Children children() const;
};

/// A container's direct children: each child's subtree is `span` nodes
/// long, so the next sibling starts `span` nodes on.
struct Children {
  struct iterator {
    const Node* p;
    const Node& operator*() const { return *p; }
    iterator& operator++() {
      p += p->span;
      return *this;
    }
    bool operator!=(const iterator& o) const { return p != o.p; }
  };
  const Node* first;
  const Node* last;
  iterator begin() const { return {first}; }
  iterator end() const { return {last}; }
};

inline Children Node::children() const { return {this + 1, this + span}; }

class Document {
 public:
  Document() = default;
  Document(const Document&) = delete;  // nodes view into unescaped_
  Document& operator=(const Document&) = delete;

  /// Parse one line of at most kMaxLineBytes. Returns false and fills
  /// `error` (a short human-readable reason) on any deviation.
  bool parse(std::string_view line, std::string& error);
  /// The root value; only meaningful after a successful parse().
  const Node& root() const { return nodes_.front(); }

 private:
  std::vector<Node> nodes_;
  std::forward_list<std::string> unescaped_;  ///< decoded strings that had escapes
};

/// Sets `error` to `why` and returns false: a rejection in one line.
bool reject(std::string& error, std::string why);

// Field helpers for reading an object. Each fails with a message naming the
// key; an absent optional key (`required` false) succeeds and leaves `out`.

const Node* find(const Node& obj, std::string_view key);
/// Rejects any member whose key is not in `allowed`.
bool check_keys(const Node& obj, std::initializer_list<std::string_view> allowed,
                std::string& error);
bool get_u64(const Node& obj, std::string_view key, std::uint64_t& out,
             std::uint64_t lo, std::uint64_t hi, std::string& error,
             bool required = true);
bool get_i64(const Node& obj, std::string_view key, std::int64_t& out,
             std::int64_t lo, std::int64_t hi, std::string& error);
bool get_string(const Node& obj, std::string_view key, std::string& out,
                std::size_t max_len, bool allow_empty, std::string& error);
bool get_nonneg_double(const Node& obj, std::string_view key, double& out,
                       std::string& error, bool required = true);
bool get_bool(const Node& obj, std::string_view key, bool& out,
              std::string& error, bool required = true);

}  // namespace glimpse::json
