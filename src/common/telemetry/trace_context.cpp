#include "common/telemetry/trace_context.hpp"

#include <atomic>
#include <chrono>
#include <random>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "common/strutil.hpp"

namespace glimpse::telemetry {

namespace {

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

std::uint64_t splitmix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t seed_entropy() {
  std::uint64_t s = static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  try {
    std::random_device rd;
    s ^= (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  } catch (...) {
    // random_device can throw on exotic platforms; the clock+pid mix below
    // still gives per-process-unique ids, which is all stitching needs.
  }
#ifdef _WIN32
  s ^= static_cast<std::uint64_t>(_getpid()) << 17;
#else
  s ^= static_cast<std::uint64_t>(::getpid()) << 17;
#endif
  return splitmix64(s | 1);
}

/// Dedicated id stream: a lock-free SplitMix64 counter. Deliberately NOT
/// glimpse::Rng — tracing must never share entropy with tuning decisions.
std::atomic<std::uint64_t>& entropy_state() {
  static std::atomic<std::uint64_t> state{seed_entropy()};
  return state;
}

std::uint64_t next_id() {
  std::uint64_t id;
  do {
    id = splitmix64(
        entropy_state().fetch_add(kGolden, std::memory_order_relaxed));
  } while (id == 0);
  return id;
}

thread_local TraceContext t_active{};

}  // namespace

TraceContext make_trace_context() {
  TraceContext ctx;
  ctx.trace_id_hi = next_id();
  ctx.trace_id_lo = next_id();
  ctx.span_id = next_id();
  ctx.sampled = true;
  return ctx;
}

std::uint64_t next_span_id() { return next_id(); }

std::string to_traceparent(const TraceContext& ctx) {
  std::string out;
  out.reserve(55);
  out += "00-";
  out += hex64(ctx.trace_id_hi);
  out += hex64(ctx.trace_id_lo);
  out += '-';
  out += hex64(ctx.span_id);
  out += ctx.sampled ? "-01" : "-00";
  return out;
}

bool parse_traceparent(std::string_view s, TraceContext& out) {
  // 00-{32}-{16}-{2} => 2 + 1 + 32 + 1 + 16 + 1 + 2 = 55 characters.
  if (s.size() != 55) return false;
  if (s[0] != '0' || s[1] != '0') return false;  // only version 00
  if (s[2] != '-' || s[35] != '-' || s[52] != '-') return false;
  TraceContext ctx;
  if (!parse_hex64(s.substr(3, 16), ctx.trace_id_hi)) return false;
  if (!parse_hex64(s.substr(19, 16), ctx.trace_id_lo)) return false;
  if (!parse_hex64(s.substr(36, 16), ctx.span_id)) return false;
  std::uint64_t flags = 0;
  if (!parse_hex64(s.substr(53, 2), flags)) return false;
  if (!ctx.valid()) return false;
  ctx.sampled = (flags & 1) != 0;
  out = ctx;
  return true;
}

TraceContext current_trace_context() { return t_active; }

namespace detail {
// Internal hook for span.cpp: mutable access to the ambient context so a
// Span can splice its own id in as the parent for its children.
TraceContext& active_trace_context() { return t_active; }
}  // namespace detail

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx)
    : saved_(t_active) {
  t_active = ctx;
}

ScopedTraceContext::~ScopedTraceContext() { t_active = saved_; }

}  // namespace glimpse::telemetry
