#include "common/json_writer.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace glimpse {

JsonWriter::JsonWriter(std::ostream& os, int indent) : os_(os), indent_(indent) {}

JsonWriter::~JsonWriter() { os_.flush(); }

std::string JsonWriter::escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

void JsonWriter::raw(std::string_view s) { os_.write(s.data(), static_cast<std::streamsize>(s.size())); }

void JsonWriter::newline_indent() {
  if (indent_ <= 0) return;
  os_.put('\n');
  for (std::size_t i = 0; i < stack_.size() * static_cast<std::size_t>(indent_); ++i)
    os_.put(' ');
}

void JsonWriter::before_value(bool is_key) {
  if (root_done_) throw std::logic_error("JsonWriter: write after root value closed");
  if (stack_.empty()) {
    if (is_key) throw std::logic_error("JsonWriter: key outside an object");
    return;  // the root value itself
  }
  if (pending_key_) {
    if (is_key) throw std::logic_error("JsonWriter: key after key");
    return;  // value completes the pending key; separator already emitted
  }
  const bool in_object = stack_.back() == Frame::kObject;
  if (in_object && !is_key)
    throw std::logic_error("JsonWriter: value without key inside object");
  if (!in_object && is_key)
    throw std::logic_error("JsonWriter: key inside array");
  if (!first_in_frame_.back()) raw(",");
  first_in_frame_.back() = false;
  newline_indent();
}

JsonWriter& JsonWriter::begin_object() {
  before_value(false);
  pending_key_ = false;
  raw("{");
  stack_.push_back(Frame::kObject);
  first_in_frame_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value(false);
  pending_key_ = false;
  raw("[");
  stack_.push_back(Frame::kArray);
  first_in_frame_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  if (stack_.empty() || stack_.back() != Frame::kObject || pending_key_)
    throw std::logic_error("JsonWriter: mismatched end_object");
  const bool empty = first_in_frame_.back();
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (!empty) newline_indent();
  raw("}");
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  if (stack_.empty() || stack_.back() != Frame::kArray)
    throw std::logic_error("JsonWriter: mismatched end_array");
  const bool empty = first_in_frame_.back();
  stack_.pop_back();
  first_in_frame_.pop_back();
  if (!empty) newline_indent();
  raw("]");
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view k) {
  before_value(true);
  raw("\"");
  raw(escape(k));
  raw(indent_ > 0 ? "\": " : "\":");
  pending_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  before_value(false);
  pending_key_ = false;
  raw("\"");
  raw(escape(s));
  raw("\"");
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(bool b) {
  before_value(false);
  pending_key_ = false;
  raw(b ? "true" : "false");
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  before_value(false);
  pending_key_ = false;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  raw(buf);
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  before_value(false);
  pending_key_ = false;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  raw(buf);
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  before_value(false);
  pending_key_ = false;
  if (!std::isfinite(v)) {
    raw("null");
  } else {
    // The shortest %.*g at precision 6..16 that reads back exactly, else
    // %.17g. No precision below the shortest round-trip form's digit count
    // `n` can read back, so the search starts at max(6, n). It still goes
    // on from there: at a power of two the gap below is half the gap above,
    // and the nearest n-digit text can fall outside the round-trip interval.
    char buf[40];
    char* end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::scientific).ptr;
    int n = 0;
    for (const char* p = buf; p != end && *p != 'e'; ++p) n += *p >= '0' && *p <= '9';
    for (int prec = std::max(6, n);; ++prec) {
      end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, prec).ptr;
      if (prec == 17) break;
      double back = 0.0;
      std::from_chars(buf, end, back);
      if (back == v) break;
    }
    raw(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::kv_fixed(std::string_view k, double v, int digits) {
  key(k);
  before_value(false);
  pending_key_ = false;
  if (!std::isfinite(v)) {
    raw("null");
  } else {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    raw(buf);
  }
  if (stack_.empty()) root_done_ = true;
  return *this;
}

JsonWriter& JsonWriter::null() {
  before_value(false);
  pending_key_ = false;
  raw("null");
  if (stack_.empty()) root_done_ = true;
  return *this;
}

bool JsonWriter::done() const { return root_done_; }

}  // namespace glimpse
