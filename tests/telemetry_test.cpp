// Telemetry subsystem tests: span nesting (including across pool threads),
// histogram/percentile math, instrument atomicity under parallel_for,
// exporter parse-back through common/json_reader, and the determinism
// contract (tracing on/off x thread count changes no tuning result).
//
// Runs in its own binary (ctest -L observability) because it toggles the
// process-global telemetry switches.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/telemetry/telemetry.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "gpusim/measurer.hpp"
#include "identity.hpp"
#include "test_util.hpp"
#include "tuning/session.hpp"

namespace glimpse::telemetry {
namespace {

// ---- reading exports back through common/json_reader ----------------------

using glimpse::testing::json_at;
using glimpse::testing::JsonLines;
using glimpse::testing::read_file;

// ---- fixture: isolate the process-global telemetry state -------------------

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_events();
    MetricsRegistry::global().reset();
  }
  void TearDown() override {
    clear_events();
    MetricsRegistry::global().reset();
  }

 private:
  glimpse::testing::EnvScope switches_{{}};  ///< all off; restored afterwards
};

// ---- spans -----------------------------------------------------------------

TEST_F(TelemetryTest, DisabledSpansRecordNothing) {
  {
    GLIMPSE_SPAN("test.outer");
    GLIMPSE_SPAN("test.inner");
  }
  EXPECT_TRUE(snapshot_events().empty());
}

TEST_F(TelemetryTest, SpanNestingDepthAndContainment) {
  set_tracing_enabled(true);
  {
    GLIMPSE_SPAN("test.outer");
    { GLIMPSE_SPAN("test.a"); }
    { GLIMPSE_SPAN("test.b"); }
  }
  set_tracing_enabled(false);
  auto events = drain_events();
  ASSERT_EQ(events.size(), 3u);
  // Children close (and are recorded) before the parent.
  EXPECT_STREQ(events[0].name, "test.a");
  EXPECT_STREQ(events[1].name, "test.b");
  EXPECT_STREQ(events[2].name, "test.outer");
  EXPECT_EQ(events[0].depth, 1u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].depth, 0u);
  const auto& outer = events[2];
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_GE(events[i].start_ns, outer.start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns, outer.start_ns + outer.dur_ns);
  }
  EXPECT_LE(events[0].start_ns + events[0].dur_ns, events[1].start_ns);
}

TEST_F(TelemetryTest, SpansAcrossPoolThreadsStayWellNested) {
  set_tracing_enabled(true);
  set_num_threads(4);
  constexpr std::size_t kIters = 64;
  parallel_for(kIters, [](std::size_t) {
    GLIMPSE_SPAN("test.task");
    GLIMPSE_SPAN("test.step");
  });
  set_tracing_enabled(false);
  auto events = drain_events();
  ASSERT_EQ(events.size(), 2 * kIters);

  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const auto& e : events) by_tid[e.tid].push_back(&e);
  std::size_t outers = 0, inners = 0;
  for (const auto& [tid, evs] : by_tid) {
    // Per-thread recording order: each inner immediately precedes its outer.
    for (std::size_t i = 0; i < evs.size(); i += 2) {
      const TraceEvent* inner = evs[i];
      const TraceEvent* outer = evs[i + 1];
      ASSERT_STREQ(inner->name, "test.step");
      ASSERT_STREQ(outer->name, "test.task");
      EXPECT_EQ(outer->depth, inner->depth - 1);
      EXPECT_GE(inner->start_ns, outer->start_ns);
      EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
      ++outers;
      ++inners;
    }
  }
  EXPECT_EQ(outers, kIters);
  EXPECT_EQ(inners, kIters);
}

TEST_F(TelemetryTest, DrainClearsBuffers) {
  set_tracing_enabled(true);
  { GLIMPSE_SPAN("test.once"); }
  EXPECT_EQ(drain_events().size(), 1u);
  EXPECT_TRUE(snapshot_events().empty());
}

// ---- distributed trace context ---------------------------------------------

TEST_F(TelemetryTest, TraceparentFormatsAndParsesRoundTrip) {
  TraceContext ctx;
  ctx.trace_id_hi = 0x118d627ac8387f2eULL;
  ctx.trace_id_lo = 0xce243bda5e27a40bULL;
  ctx.span_id = 0xa4871a5c829f593cULL;
  ctx.sampled = true;
  const std::string tp = to_traceparent(ctx);
  EXPECT_EQ(tp, "00-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-01");
  TraceContext back;
  ASSERT_TRUE(parse_traceparent(tp, back));
  EXPECT_EQ(back, ctx);
}

TEST_F(TelemetryTest, TraceparentRejectsMalformedValues) {
  const char* bad[] = {
      "",
      "00-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c",      // short
      "00-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-01x",  // long
      "01-118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-01",   // version
      "00-00000000000000000000000000000000-a4871a5c829f593c-01",   // zero trace
      "00-118d627ac8387f2ece243bda5e27a40b-0000000000000000-01",   // zero span
      "00-118d627ac8387f2ece243bda5e27a40g-a4871a5c829f593c-01",   // non-hex
      "00_118d627ac8387f2ece243bda5e27a40b-a4871a5c829f593c-01",   // delimiter
      "00-118D627AC8387F2ECE243BDA5E27A40B-a4871a5c829f593c-01",   // uppercase
  };
  for (const char* s : bad) {
    TraceContext out;
    EXPECT_FALSE(parse_traceparent(s, out)) << "accepted: " << s;
    EXPECT_FALSE(out.valid()) << "out mutated by: " << s;
  }
}

TEST_F(TelemetryTest, MakeTraceContextIsValidAndUnique) {
  set_tracing_enabled(true);
  TraceContext a = make_trace_context();
  TraceContext b = make_trace_context();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_FALSE(a == b);
  EXPECT_NE(next_span_id(), next_span_id());
}

TEST_F(TelemetryTest, SpansJoinAmbientTraceAndChainParents) {
  set_tracing_enabled(true);
  TraceContext ctx = make_trace_context();
  {
    ScopedTraceContext scope(ctx);
    GLIMPSE_SPAN("test.trace_outer");
    GLIMPSE_SPAN("test.trace_inner");
  }
  { GLIMPSE_SPAN("test.no_trace"); }
  set_tracing_enabled(false);
  auto events = drain_events();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  const TraceEvent& bare = events[2];
  ASSERT_STREQ(outer.name, "test.trace_outer");
  ASSERT_STREQ(inner.name, "test.trace_inner");
  // Both spans carry the scope's trace id; the inner chains to the outer,
  // the outer to the context's span.
  EXPECT_EQ(outer.trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(outer.trace_id_lo, ctx.trace_id_lo);
  EXPECT_EQ(inner.trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(outer.parent_span_id, ctx.span_id);
  EXPECT_EQ(inner.parent_span_id, outer.span_id);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_NE(inner.span_id, outer.span_id);
  // Outside the scope: no trace identity at all.
  EXPECT_EQ(bare.trace_id_hi | bare.trace_id_lo, 0u);
  EXPECT_EQ(bare.span_id, 0u);
  // And the ambient context was restored.
  EXPECT_FALSE(current_trace_context().valid());
}

TEST_F(TelemetryTest, RootPendingContextMakesFirstSpanTheRoot) {
  set_tracing_enabled(true);
  TraceContext ctx = make_trace_context();
  ctx.span_id = 0;  // root pending: no phantom parent
  {
    ScopedTraceContext scope(ctx);
    GLIMPSE_SPAN("test.trace_root");
  }
  set_tracing_enabled(false);
  auto events = drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(events[0].parent_span_id, 0u);
  EXPECT_NE(events[0].span_id, 0u);
}

TEST_F(TelemetryTest, SpanAttributesReachTheEvent) {
  set_tracing_enabled(true);
  {
    Span s("test.attrs");
    EXPECT_TRUE(s.active());
    s.set_job(42);
    s.set_round(7);
    s.set_config_fp(0xdeadbeefULL);
    s.set_note("cache_hit");
  }
  set_tracing_enabled(false);
  auto events = drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].job_id, 42u);
  EXPECT_EQ(events[0].round, 7u);
  EXPECT_EQ(events[0].config_fp, 0xdeadbeefULL);
  EXPECT_STREQ(events[0].note, "cache_hit");
}

TEST_F(TelemetryTest, RecordSpanEventCarriesContextAndArgs) {
  set_tracing_enabled(true);
  TraceContext ctx = make_trace_context();
  EventArgs args;
  args.job_id = 9;
  args.note = "done";
  record_span_event("test.retro", 1000, 500, ctx, 0x1234u, args);
  set_tracing_enabled(false);
  auto events = drain_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.retro");
  EXPECT_EQ(events[0].start_ns, 1000u);
  EXPECT_EQ(events[0].dur_ns, 500u);
  EXPECT_EQ(events[0].trace_id_hi, ctx.trace_id_hi);
  EXPECT_EQ(events[0].span_id, ctx.span_id);
  EXPECT_EQ(events[0].parent_span_id, 0x1234u);
  EXPECT_EQ(events[0].job_id, 9u);
  EXPECT_STREQ(events[0].note, "done");
}

// Satellite regression: short-lived threads (one per server connection) must
// not grow the buffer registry without bound, and events recorded by a
// thread that has already exited must still be drainable.
TEST_F(TelemetryTest, ThreadBufferTagsAreRecycledAcrossShortLivedThreads) {
  set_tracing_enabled(true);
  const std::size_t before = num_thread_buffers();
  std::set<std::uint32_t> tags;
  constexpr int kThreads = 32;
  for (int i = 0; i < kThreads; ++i) {
    std::thread t([&] {
      tags.insert(thread_tag());
      GLIMPSE_SPAN("test.short_lived");
    });
    t.join();  // sequential: each thread exits before the next starts
  }
  set_tracing_enabled(false);
  // Sequential threads all reuse one recycled tag (LIFO free list), so the
  // registry grew by at most one slot — not one per thread.
  EXPECT_EQ(tags.size(), 1u);
  EXPECT_LE(num_thread_buffers(), before + 1);
  // Every exited thread's span survived in the adopted buffer.
  std::size_t recorded = 0;
  for (const auto& e : drain_events())
    if (std::string_view(e.name) == "test.short_lived") ++recorded;
  EXPECT_EQ(recorded, static_cast<std::size_t>(kThreads));
}

TEST_F(TelemetryTest, JsonlTraceExportCarriesMetaAndIds) {
  set_tracing_enabled(true);
  TraceContext ctx = make_trace_context();
  {
    ScopedTraceContext scope(ctx);
    GLIMPSE_SPAN("test.export_outer");
    GLIMPSE_SPAN("test.export_inner");
  }
  set_tracing_enabled(false);
  std::ostringstream os;
  write_trace_jsonl(os, snapshot_events());

  JsonLines lines(os.str());
  ASSERT_EQ(lines.size(), 3u);
  const json::Node& meta = lines[0];
  EXPECT_EQ(json_at(meta, "name").s, "trace_meta");
  EXPECT_EQ(json_at(meta, "ph").s, "M");
  EXPECT_GE(json_at(meta, "pid").d, 1.0);
  EXPECT_GT(json_at(json_at(meta, "args"), "base_unix_ns").d, 0.0);
  // The X spans follow in (tid, start) order: the outer span first despite
  // closing last.
  const json::Node& outer = lines[1];
  const json::Node& inner = lines[2];
  EXPECT_EQ(json_at(outer, "name").s, "test.export_outer");
  EXPECT_EQ(json_at(inner, "name").s, "test.export_inner");
  for (const json::Node* e : {&outer, &inner}) {
    EXPECT_EQ(json_at(*e, "ph").s, "X");
    EXPECT_EQ(json_at(*e, "cat").s, "glimpse");
    EXPECT_EQ(json_at(*e, "pid").d, json_at(meta, "pid").d);
    EXPECT_GE(json_at(*e, "ts").d, 0.0);
    EXPECT_GE(json_at(*e, "dur").d, 0.0);
    EXPECT_EQ(json_at(json_at(*e, "args"), "trace_id").s.size(), 32u);
    EXPECT_EQ(json_at(json_at(*e, "args"), "span_id").s.size(), 16u);
  }
  EXPECT_EQ(json_at(json_at(outer, "args"), "depth").d, 0.0);
  EXPECT_EQ(json_at(json_at(inner, "args"), "depth").d, 1.0);
  // The inner interval sits within the outer one (µs, same clock).
  EXPECT_GE(json_at(inner, "ts").d, json_at(outer, "ts").d);
  EXPECT_LE(json_at(inner, "ts").d + json_at(inner, "dur").d,
            json_at(outer, "ts").d + json_at(outer, "dur").d + 1e-3);
}

// The segment's bytes are what perfbench, the daemons' readers and
// trace_stitch.py parse: pin them for a fixed set of events.
TEST_F(TelemetryTest, JsonlTraceSegmentBytesArePinned) {
  const TraceEvent outer{.name = "outer", .tid = 2, .start_ns = 1234567,
                         .dur_ns = 89012345, .trace_id_hi = 0x118d627ac8387f2eULL,
                         .trace_id_lo = 0x0e243bda5e27a40bULL,
                         .span_id = 0xa4871a5c829f593cULL, .parent_span_id = 1,
                         .job_id = 7, .round = 3, .config_fp = 0xdeadbeefULL,
                         .note = "cache_hit"};
  const TraceEvent inner{.name = "inner", .tid = 2, .depth = 1, .start_ns = 1234999,
                         .dur_ns = 5, .span_id = ~0ULL, .parent_span_id = outer.span_id};
  // Same start as `inner` but longer: sorts first.
  const TraceEvent longer{.name = "same_start_longer", .tid = 2, .start_ns = 1234999,
                          .dur_ns = 6, .round = 0};
  const TraceEvent other{.name = "other", .dur_ns = 1};

  std::ostringstream os;
  write_trace_jsonl(os, {inner, outer, other, longer});
  const std::string text = os.str();
  JsonLines lines(text);
  ASSERT_EQ(lines.size(), 5u);
  const std::string pid = std::to_string(json_at(lines[0], "pid").i);
  const std::string base = std::to_string(json_at(json_at(lines[0], "args"), "base_unix_ns").i);
  const std::string x = R"({"name":")";
  const std::string cat = R"(","cat":"glimpse","ph":"X","pid":)" + pid;
  EXPECT_EQ(text,
            R"({"name":"trace_meta","ph":"M","pid":)" + pid +
                R"(,"ts":0,"args":{"process":")" + process_label() +
                R"(","base_unix_ns":)" + base + "}}\n" +
                x + "other" + cat +
                R"(,"tid":0,"ts":0.000,"dur":0.001,"args":{"depth":0}})" "\n" +
                x + "outer" + cat +
                R"(,"tid":2,"ts":1234.567,"dur":89012.345,"args":{"depth":0,)"
                R"("trace_id":"118d627ac8387f2e0e243bda5e27a40b","span_id":"a4871a5c829f593c",)"
                R"("parent_span_id":"0000000000000001","job":7,"round":3,)"
                R"("config_fp":"00000000deadbeef","note":"cache_hit"}})" "\n" +
                x + "same_start_longer" + cat +
                R"(,"tid":2,"ts":1234.999,"dur":0.006,"args":{"depth":0,"round":0}})" "\n" +
                x + "inner" + cat +
                R"(,"tid":2,"ts":1234.999,"dur":0.005,"args":{"depth":1,)"
                R"("span_id":"ffffffffffffffff","parent_span_id":"a4871a5c829f593c"}})" "\n");
}

// GLIMPSE_TRACE's suffix picks no format: a path without ".jsonl" is
// appended to, one segment per export, like any other.
TEST_F(TelemetryTest, ExportToEnvPathsAppendsSegmentsWhateverTheSuffix) {
  const std::string path = glimpse::testing::tmp_path("telemetry_env_trace.json");
  std::filesystem::remove(path);
  ::setenv("GLIMPSE_TRACE", path.c_str(), 1);
  ASSERT_EQ(trace_path(), path) << "GLIMPSE_TRACE was read before this test set it";
  set_tracing_enabled(true);
  { GLIMPSE_SPAN("test.env_export"); }
  EXPECT_EQ(export_to_env_paths(), std::vector<std::string>{path});
  EXPECT_EQ(export_to_env_paths(), std::vector<std::string>{path});
  set_tracing_enabled(false);
  ::unsetenv("GLIMPSE_TRACE");

  JsonLines lines(read_file(path));
  ASSERT_EQ(lines.size(), 4u);  // two (trace_meta, span) segments
  for (std::size_t i : {0u, 2u}) {
    EXPECT_EQ(json_at(lines[i], "name").s, "trace_meta");
    EXPECT_EQ(json_at(lines[i + 1], "name").s, "test.env_export");
  }
  std::filesystem::remove(path);
}

// ---- histogram math --------------------------------------------------------

TEST_F(TelemetryTest, HistogramBucketsAndExactBoundaryPercentiles) {
  Histogram h;
  const auto& b = h.bounds();
  // One value in each of the first four buckets: below b[0], exactly on
  // b[1], and mid-way through (b[1], b[2]] and (b[2], b[3]].
  const double v[] = {b[0] / 2, b[1], (b[1] + b[2]) / 2, (b[2] + b[3]) / 2};
  for (int i = 0; i < 10; ++i)
    for (double x : v) h.record(x);
  EXPECT_EQ(h.count(), 40u);
  EXPECT_DOUBLE_EQ(h.min(), v[0]);
  EXPECT_DOUBLE_EQ(h.max(), v[3]);
  EXPECT_NEAR(h.sum(), 10 * (v[0] + v[1] + v[2] + v[3]), 1e-18);
  ASSERT_EQ(h.num_buckets(), Histogram::kBuckets + 1);  // finite + overflow
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(h.bucket_count(i), 10u);
  EXPECT_EQ(h.bucket_count(4), 0u);

  // Rank 20 lands exactly on the upper edge of the (b[0], b[1]] bucket.
  EXPECT_DOUBLE_EQ(h.percentile(50.0), b[1]);
  // Rank 36 is 60 % into the (b[2], b[3]] bucket, past max -> clamped.
  EXPECT_DOUBLE_EQ(h.percentile(90.0), v[3]);
  // Rank 10 fills the first bucket exactly -> its upper bound.
  EXPECT_DOUBLE_EQ(h.percentile(25.0), b[0]);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), v[0]);    // clamps to min
  EXPECT_DOUBLE_EQ(h.percentile(100.0), v[3]);  // clamps to max
}

TEST_F(TelemetryTest, HistogramOverflowBucket) {
  Histogram h;
  h.record(1e4);
  EXPECT_EQ(h.bucket_count(Histogram::kBuckets), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e4);
  EXPECT_GE(h.percentile(99.0), 1e3);
  EXPECT_LE(h.percentile(99.0), 1e4);
}

TEST_F(TelemetryTest, HistogramDefaultBucketsAreLogSpaced) {
  const auto& b = Histogram::bounds();
  ASSERT_EQ(b.size(), 54u);
  EXPECT_DOUBLE_EQ(b.front(), 1e-6);
  EXPECT_DOUBLE_EQ(b.back(), 1e3);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
}

// ---- instrument atomicity under the pool -----------------------------------

TEST_F(TelemetryTest, CounterAtomicUnderParallelFor) {
  Counter& c = MetricsRegistry::global().counter("test.par_counter");
  Histogram& h = MetricsRegistry::global().histogram("test.par_hist");
  set_num_threads(8);
  constexpr std::size_t kIters = 100000;
  parallel_for(kIters, [&](std::size_t i) {
    c.add(1);
    h.record(1e-3 * static_cast<double>(i % 7 + 1));
  });
  EXPECT_EQ(c.value(), kIters);
  EXPECT_EQ(h.count(), kIters);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < h.num_buckets(); ++i) bucket_total += h.bucket_count(i);
  EXPECT_EQ(bucket_total, kIters);
}

TEST_F(TelemetryTest, RegistryKindMismatchThrows) {
  MetricsRegistry::global().counter("test.kind");
  EXPECT_THROW(MetricsRegistry::global().gauge("test.kind"), std::logic_error);
  EXPECT_THROW(MetricsRegistry::global().histogram("test.kind"), std::logic_error);
  // Same-kind relookup returns the same instrument.
  Counter& a = MetricsRegistry::global().counter("test.kind");
  Counter& b = MetricsRegistry::global().counter("test.kind");
  EXPECT_EQ(&a, &b);
}

// ---- JsonWriter ------------------------------------------------------------

TEST_F(TelemetryTest, JsonWriterRoundTripsThroughParser) {
  std::ostringstream os;
  JsonWriter w(os, /*indent=*/2);
  w.begin_object();
  w.kv("name", "quote\" backslash\\ newline\n");
  w.kv("count", std::uint64_t{42});
  w.kv("ratio", 0.125);
  w.kv("flag", true);
  w.key("none").null();
  w.key("items").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.end_object();
  EXPECT_TRUE(w.done());

  const std::string text = os.str();  // the Document views into it
  json::Document doc;
  std::string error;
  ASSERT_TRUE(doc.parse(text, error)) << error;
  const json::Node& root = doc.root();
  EXPECT_EQ(json_at(root, "name").s, "quote\" backslash\\ newline\n");
  EXPECT_DOUBLE_EQ(json_at(root, "count").d, 42.0);
  EXPECT_DOUBLE_EQ(json_at(root, "ratio").d, 0.125);
  EXPECT_TRUE(json_at(root, "flag").b);
  EXPECT_EQ(json_at(root, "none").kind, json::Kind::kNull);
  std::vector<double> items;
  for (const json::Node& v : json_at(root, "items").children()) items.push_back(v.d);
  EXPECT_EQ(items, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST_F(TelemetryTest, JsonWriterThrowsOnMisuse) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);   // value with no key
  EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
}

// ---- exporter parse-back ---------------------------------------------------

TEST_F(TelemetryTest, MetricsJsonlExportParsesBack) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.jsonl_counter").add(7);
  reg.gauge("test.jsonl_gauge").set(2.5);
  Histogram& h = reg.histogram("test.jsonl_hist");
  h.record(0.5);
  h.record(5.0);
  h.record(5000.0);

  std::ostringstream os;
  write_metrics_jsonl(os, reg.snapshot());

  JsonLines lines(os.str());
  std::map<std::string_view, const json::Node*> by_name;
  for (std::size_t i = 0; i < lines.size(); ++i) by_name[json_at(lines[i], "name").s] = &lines[i];
  ASSERT_TRUE(by_name.count("test.jsonl_counter"));
  ASSERT_TRUE(by_name.count("test.jsonl_gauge"));
  ASSERT_TRUE(by_name.count("test.jsonl_hist"));

  const json::Node& c = *by_name.at("test.jsonl_counter");
  EXPECT_EQ(json_at(c, "type").s, "counter");
  EXPECT_DOUBLE_EQ(json_at(c, "value").d, 7.0);

  const json::Node& g = *by_name.at("test.jsonl_gauge");
  EXPECT_EQ(json_at(g, "type").s, "gauge");
  EXPECT_DOUBLE_EQ(json_at(g, "value").d, 2.5);

  const json::Node& hist = *by_name.at("test.jsonl_hist");
  EXPECT_EQ(json_at(hist, "type").s, "histogram");
  EXPECT_DOUBLE_EQ(json_at(hist, "count").d, 3.0);
  EXPECT_DOUBLE_EQ(json_at(hist, "min").d, 0.5);
  EXPECT_DOUBLE_EQ(json_at(hist, "max").d, 5000.0);
  std::vector<const json::Node*> buckets;
  for (const json::Node& b : json_at(hist, "buckets").children()) buckets.push_back(&b);
  const auto& bounds = Histogram::bounds();
  ASSERT_EQ(buckets.size(), bounds.size() + 1);  // finite + overflow
  double total = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(json_at(*buckets[i], "le").d, bounds[i]);  // bounds read back exactly
    total += json_at(*buckets[i], "count").d;
  }
  EXPECT_DOUBLE_EQ(total, 2.0);
  EXPECT_EQ(json_at(*buckets.back(), "le").kind, json::Kind::kNull);  // +inf bucket
  EXPECT_DOUBLE_EQ(json_at(*buckets.back(), "count").d, 1.0);
}

TEST_F(TelemetryTest, MetricsSummaryMentionsEveryInstrument) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.summary_counter").add(3);
  reg.histogram("test.summary_hist").record(0.01);
  std::string s = metrics_summary();
  EXPECT_NE(s.find("test.summary_counter"), std::string::npos);
  EXPECT_NE(s.find("test.summary_hist"), std::string::npos);
}

// ---- determinism contract --------------------------------------------------

// A short GlimpseTuner session must be trial-for-trial identical at any
// thread count, with tracing/metrics on or off: telemetry never touches an
// Rng and the instrumented validity scan preserves the verdict.
TEST_F(TelemetryTest, TunerSessionDeterministicUnderTelemetryAndThreads) {
  glimpse::testing::IdentityChecker check({glimpse::testing::task_run(
      "glimpse", glimpse::testing::small_conv_task(), glimpse::testing::titan_xp(), 11, 64)});
  check.expect({.env = {.telemetry = true}});
  check.expect({.env = {.threads = 4}});
  check.expect({.env = {.threads = 4, .telemetry = true}});
}

TEST_F(TelemetryTest, InstrumentedSessionRecordsAllSubsystems) {
  using glimpse::testing::session_options;
  using glimpse::testing::small_conv_task;
  using glimpse::testing::tiny_artifacts;
  using glimpse::testing::titan_xp;

  set_tracing_enabled(true);
  set_metrics_enabled(true);
  core::GlimpseTuner tuner(small_conv_task(), titan_xp(), 12, tiny_artifacts());
  gpusim::SimMeasurer m;
  tuning::run_session(tuner, small_conv_task(), titan_xp(), m, session_options(64));
  set_tracing_enabled(false);
  set_metrics_enabled(false);

  std::map<std::string, std::size_t> span_counts;
  for (const auto& e : drain_events()) ++span_counts[e.name];
  for (const char* expected :
       {"session.run", "session.batch", "tuner.propose", "sa.run", "sa.chain",
        "measure.measure"})
    EXPECT_GT(span_counts[expected], 0u) << "missing span " << expected;

  auto& reg = MetricsRegistry::global();
  EXPECT_EQ(reg.counter("session.sessions").value(), 1u);
  EXPECT_GT(reg.counter("session.trials").value(), 0u);
  EXPECT_GT(reg.counter("measure.count").value(), 0u);
  EXPECT_GT(reg.counter("sa.evaluations").value(), 0u);
  // The validity ensemble attributes rejections per resource dimension.
  std::uint64_t dim_rejects = 0;
  for (const auto& s : reg.snapshot())
    if (s.name.rfind("validity.reject.", 0) == 0)
      dim_rejects += static_cast<std::uint64_t>(s.value);
  EXPECT_EQ(reg.counter("validity.rejects").value() > 0, dim_rejects > 0)
      << "rejections must be attributed to at least one dimension";
}

// ---- overhead guard --------------------------------------------------------

// Disabled spans must stay near-free (one relaxed load + branch). The bound
// is deliberately loose — CI machines vary — but catches an accidental
// clock read or allocation on the disabled path (~100x more than a load).
TEST_F(TelemetryTest, DisabledSpanOverheadIsNegligible) {
  constexpr std::size_t kIters = 2000000;
  auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kIters; ++i) {
    GLIMPSE_SPAN("test.overhead");
  }
  auto t1 = std::chrono::steady_clock::now();
  double ns_per_span =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIters;
  EXPECT_LT(ns_per_span, 200.0) << "disabled GLIMPSE_SPAN is doing real work";
}

}  // namespace
}  // namespace glimpse::telemetry
