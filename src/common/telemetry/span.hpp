// Tracing spans: scoped wall-clock intervals recorded into per-thread
// buffers and merged at flush time.
//
// Design constraints (see DESIGN.md §8, §13):
//  * Zero work when disabled: GLIMPSE_SPAN compiles to one relaxed atomic
//    load and a branch; no clock read, no allocation, no stores.
//  * No cross-thread contention when enabled: each thread appends to its own
//    buffer (adopted on the thread's first span); only
//    drain_events()/snapshot take the registry lock. Pool workers running
//    parallel_for indices therefore record spans without sharing a cache
//    line.
//  * No interaction with determinism: spans read the monotonic clock and
//    the dedicated trace-id entropy stream (trace_context.hpp) and nothing
//    else — never an Rng — so traced and untraced runs produce bit-identical
//    tuning results.
//  * Bounded registry: thread tags (and the span buffers they index) are
//    recycled when a thread exits, so short-lived connection threads reuse
//    slots instead of growing the registry; an exited thread's undrained
//    events stay in its slot and still reach the flush.
//
// Flush contract: snapshot_events()/drain_events() must be called from a
// quiescent point — after parallel_for has returned, so the pool's
// completion synchronization orders worker appends before the merge (the
// same contract each index's output slots rely on).
//
// Span names (and note attributes) must have static storage duration
// (string literals); events store the pointer, not a copy.
#pragma once

#include <cstdint>
#include <vector>

#include "common/telemetry/trace_context.hpp"

namespace glimpse::telemetry {

/// True when span recording is on (GLIMPSE_TRACE set, or enabled
/// programmatically). One relaxed atomic load.
bool tracing_enabled();
/// Programmatic override (tests, examples). Does not change the export path.
void set_tracing_enabled(bool on);

/// Small sequential id for the calling thread (0 = first thread to ask).
/// Stable for the thread's lifetime; recycled to a later thread after this
/// one exits, so the tag space stays bounded by the high-water mark of
/// concurrently live threads. Shared by span buffers and the logging
/// layer's line tags.
std::uint32_t thread_tag();

/// Sentinel for TraceEvent::round — "no round attribute".
inline constexpr std::uint64_t kNoRound = ~std::uint64_t{0};

/// One completed span. Times are nanoseconds on the process-local monotonic
/// clock (t = 0 at telemetry init). Trace/span ids are zero for spans
/// recorded outside any trace context; attribute fields use their sentinels
/// (0 / kNoRound / nullptr) when unset and are omitted from exports.
struct TraceEvent {
  const char* name = nullptr;  ///< static string (the GLIMPSE_SPAN literal)
  std::uint32_t tid = 0;       ///< thread_tag() of the recording thread
  std::uint32_t depth = 0;     ///< nesting depth within the thread (0 = root)
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  // Distributed-trace identity (zero outside a trace context).
  std::uint64_t trace_id_hi = 0;
  std::uint64_t trace_id_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  // Fixed-size attribute slot — no allocation on the recording path.
  std::uint64_t job_id = 0;         ///< service job id (0 = unset; ids start at 1)
  std::uint64_t round = kNoRound;   ///< scheduler round / trial index
  std::uint64_t config_fp = 0;      ///< config fingerprint (0 = unset)
  const char* note = nullptr;       ///< static string (e.g. MeasureError kind)
};

/// Nanoseconds since telemetry init on the monotonic clock.
std::uint64_t now_ns();

/// Wall-clock (unix epoch) nanoseconds captured at the same instant the
/// monotonic base was pinned. trace_stitch.py uses it to align timelines
/// from different processes onto one clock.
std::uint64_t base_unix_ns();

/// RAII span. Prefer the GLIMPSE_SPAN macro. A span constructed while
/// tracing is disabled stays inert even if tracing is enabled before it
/// closes (and vice versa), so toggling mid-span cannot corrupt nesting.
///
/// When the thread has an ambient trace context (ScopedTraceContext), the
/// span joins that trace: it draws a fresh span id, records the context's
/// span as its parent, and becomes the ambient parent for spans nested
/// inside it until it closes.
class Span {
 public:
  explicit Span(const char* name) {
    if (tracing_enabled()) begin(name);
  }
  ~Span() {
    if (name_) end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the span is live (tracing was enabled at construction).
  /// Use to gate attribute computation that is not free (e.g. hashing).
  bool active() const { return name_ != nullptr; }

  // Attribute setters; no-ops on an inert span. `note` must be a static
  // string (literal or to_string of an enum).
  void set_job(std::uint64_t id) { if (name_) job_id_ = id; }
  void set_round(std::uint64_t r) { if (name_) round_ = r; }
  void set_config_fp(std::uint64_t fp) { if (name_) config_fp_ = fp; }
  void set_note(const char* static_str) { if (name_) note_ = static_str; }

 private:
  void begin(const char* name);
  void end();

  const char* name_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t depth_ = 0;
  // Trace identity captured at begin (zero outside a context).
  std::uint64_t trace_hi_ = 0;
  std::uint64_t trace_lo_ = 0;
  std::uint64_t span_id_ = 0;
  std::uint64_t parent_span_id_ = 0;
  std::uint64_t prev_ambient_span_ = 0;  ///< restored at end()
  // Attribute slot, copied into the event at end().
  std::uint64_t job_id_ = 0;
  std::uint64_t round_ = kNoRound;
  std::uint64_t config_fp_ = 0;
  const char* note_ = nullptr;
};

/// Optional attributes for record_span_event.
struct EventArgs {
  std::uint64_t job_id = 0;
  std::uint64_t round = kNoRound;
  std::uint64_t config_fp = 0;
  const char* note = nullptr;  ///< static string
};

/// Append one already-completed span directly to the calling thread's
/// buffer — for intervals that no single live scope covers, e.g. a job's
/// queue wait measured between a connection thread's submit and a worker
/// thread's admit. The event carries ctx's trace identity with
/// ctx.span_id as its own id and `parent_span_id` as its parent.
/// No-op when tracing is disabled.
void record_span_event(const char* name, std::uint64_t start_ns,
                       std::uint64_t dur_ns, const TraceContext& ctx,
                       std::uint64_t parent_span_id,
                       const EventArgs& args = {});

/// Copy of every buffered event, in per-thread recording order (threads
/// concatenated in tag order). Buffers keep their contents.
std::vector<TraceEvent> snapshot_events();

/// snapshot_events() + clear all buffers.
std::vector<TraceEvent> drain_events();

/// Clear all buffers without reading them.
void clear_events();

/// Events recorded but dropped because a thread buffer hit its cap
/// (kMaxEventsPerThread); nonzero means the trace is truncated.
std::uint64_t num_dropped_events();

/// Number of registered per-thread span buffers. Bounded by the high-water
/// mark of concurrently live threads that recorded spans (exited threads'
/// slots are adopted by later threads), not by the total number of threads
/// ever created — the satellite fix for per-connection server threads.
std::size_t num_thread_buffers();

/// Per-thread buffer cap; beyond it spans are counted as dropped, not
/// stored, so a runaway loop cannot exhaust memory.
inline constexpr std::size_t kMaxEventsPerThread = 1u << 21;  // ~84 MB/thread max

}  // namespace glimpse::telemetry

#define GLIMPSE_TELEMETRY_CONCAT2(a, b) a##b
#define GLIMPSE_TELEMETRY_CONCAT(a, b) GLIMPSE_TELEMETRY_CONCAT2(a, b)

/// Scoped span covering the rest of the enclosing block.
/// Usage: GLIMPSE_SPAN("sa.chain");
#define GLIMPSE_SPAN(name)                                          \
  ::glimpse::telemetry::Span GLIMPSE_TELEMETRY_CONCAT(glimpse_span_, \
                                                      __LINE__)(name)
