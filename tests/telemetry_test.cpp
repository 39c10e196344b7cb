// Telemetry subsystem tests: span nesting (including across pool threads),
// histogram/percentile math, instrument atomicity under parallel_for,
// exporter parse-back through a minimal JSON reader, and the determinism
// contract (tracing on/off x thread count changes no tuning result).
//
// Runs in its own binary (ctest -L observability) because it toggles the
// process-global telemetry switches.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

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

// ---- minimal recursive-descent JSON reader (tests only) --------------------
// Not common/json_reader: Chrome trace exports exceed the wire caps.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& k) const {
    auto it = obj.find(k);
    if (it == obj.end()) throw std::runtime_error("missing key: " + k);
    return it->second;
  }
  bool has(const std::string& k) const { return obj.count(k) > 0; }
};

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    ++pos_;
  }
  bool consume_literal(std::string_view lit) {
    if (s_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.type = Json::Type::kString;
        v.str = string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.type = Json::Type::kBool;
        v.b = consume_literal("true");
        if (!v.b && !consume_literal("false"))
          throw std::runtime_error("bad literal");
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) throw std::runtime_error("bad literal");
        return Json{};
      }
      default: return number();
    }
  }

  Json object() {
    Json v;
    v.type = Json::Type::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string k = string();
      expect(':');
      v.obj.emplace(std::move(k), value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.type = Json::Type::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.arr.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u escape");
          unsigned code = std::stoul(std::string(s_.substr(pos_, 4)), nullptr, 16);
          pos_ += 4;
          // Tests only emit ASCII control characters via \u.
          out.push_back(static_cast<char>(code));
          break;
        }
        default: throw std::runtime_error("bad escape");
      }
    }
    expect('"');
    return out;
  }

  Json number() {
    std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.type = Json::Type::kNumber;
    v.num = std::stod(std::string(s_.substr(start, pos_ - start)));
    return v;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

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
    GLIMPSE_SPAN("test.jsonl_span");
  }
  set_tracing_enabled(false);
  std::ostringstream os;
  write_trace_jsonl(os, snapshot_events());

  std::vector<Json> lines;
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line))
    if (!line.empty()) lines.push_back(JsonReader(line).parse());
  ASSERT_GE(lines.size(), 2u);
  const Json& meta = lines[0];
  EXPECT_EQ(meta.at("name").str, "trace_meta");
  EXPECT_EQ(meta.at("ph").str, "M");
  EXPECT_GT(meta.at("pid").num, 0.0);
  EXPECT_GT(meta.at("args").at("base_unix_ns").num, 0.0);
  bool found = false;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const Json& e = lines[i];
    if (e.at("name").str != "test.jsonl_span") continue;
    found = true;
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_EQ(e.at("args").at("trace_id").str.size(), 32u);
    EXPECT_EQ(e.at("args").at("span_id").str.size(), 16u);
  }
  EXPECT_TRUE(found);
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

  Json root = JsonReader(os.str()).parse();
  EXPECT_EQ(root.at("name").str, "quote\" backslash\\ newline\n");
  EXPECT_DOUBLE_EQ(root.at("count").num, 42.0);
  EXPECT_DOUBLE_EQ(root.at("ratio").num, 0.125);
  EXPECT_TRUE(root.at("flag").b);
  EXPECT_EQ(root.at("none").type, Json::Type::kNull);
  ASSERT_EQ(root.at("items").arr.size(), 3u);
  EXPECT_DOUBLE_EQ(root.at("items").arr[2].num, 3.0);
}

TEST_F(TelemetryTest, JsonWriterThrowsOnMisuse) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  EXPECT_THROW(w.value(1), std::logic_error);   // value with no key
  EXPECT_THROW(w.end_array(), std::logic_error);  // mismatched close
}

// ---- exporter parse-back ---------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceExportParsesBack) {
  set_tracing_enabled(true);
  {
    GLIMPSE_SPAN("test.export_outer");
    GLIMPSE_SPAN("test.export_inner");
  }
  set_tracing_enabled(false);
  std::ostringstream os;
  write_chrome_trace(os, snapshot_events());

  Json root = JsonReader(os.str()).parse();
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  EXPECT_GE(root.at("pid").num, 1.0);
  EXPECT_GT(root.at("baseUnixNs").num, 0.0);
  const auto& events = root.at("traceEvents").arr;
  // Metadata records (process_name, one thread_name per tid) lead, then the
  // X spans in (tid, start) order: the outer span despite closing last.
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].at("ph").str, "M");
  EXPECT_EQ(events[0].at("name").str, "process_name");
  std::vector<const Json*> spans;
  for (const auto& e : events)
    if (e.at("ph").str == "X") spans.push_back(&e);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0]->at("name").str, "test.export_outer");
  EXPECT_EQ(spans[1]->at("name").str, "test.export_inner");
  for (const Json* e : spans) {
    EXPECT_EQ(e->at("cat").str, "glimpse");
    EXPECT_GE(e->at("ts").num, 0.0);
    EXPECT_GE(e->at("dur").num, 0.0);
    ASSERT_TRUE(e->has("args"));
  }
  EXPECT_DOUBLE_EQ(spans[0]->at("args").at("depth").num, 0.0);
  EXPECT_DOUBLE_EQ(spans[1]->at("args").at("depth").num, 1.0);
  // The inner interval sits within the outer one (µs, same clock).
  EXPECT_GE(spans[1]->at("ts").num, spans[0]->at("ts").num);
  EXPECT_LE(spans[1]->at("ts").num + spans[1]->at("dur").num,
            spans[0]->at("ts").num + spans[0]->at("dur").num + 1e-3);
}

TEST_F(TelemetryTest, MetricsJsonlExportParsesBack) {
  auto& reg = MetricsRegistry::global();
  reg.counter("test.jsonl_counter").add(7);
  reg.gauge("test.jsonl_gauge").set(2.5);
  Histogram& h = reg.histogram("test.jsonl_hist");
  h.record(0.5);
  h.record(5.0);
  h.record(5000.0);

  std::ostringstream os;
  write_metrics_jsonl(os);

  std::map<std::string, Json> by_name;
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    Json v = JsonReader(line).parse();
    by_name.emplace(v.at("name").str, std::move(v));
  }
  ASSERT_TRUE(by_name.count("test.jsonl_counter"));
  ASSERT_TRUE(by_name.count("test.jsonl_gauge"));
  ASSERT_TRUE(by_name.count("test.jsonl_hist"));

  const Json& c = by_name.at("test.jsonl_counter");
  EXPECT_EQ(c.at("type").str, "counter");
  EXPECT_DOUBLE_EQ(c.at("value").num, 7.0);

  const Json& g = by_name.at("test.jsonl_gauge");
  EXPECT_EQ(g.at("type").str, "gauge");
  EXPECT_DOUBLE_EQ(g.at("value").num, 2.5);

  const Json& hist = by_name.at("test.jsonl_hist");
  EXPECT_EQ(hist.at("type").str, "histogram");
  EXPECT_DOUBLE_EQ(hist.at("count").num, 3.0);
  EXPECT_DOUBLE_EQ(hist.at("min").num, 0.5);
  EXPECT_DOUBLE_EQ(hist.at("max").num, 5000.0);
  const auto& buckets = hist.at("buckets").arr;
  const auto& bounds = Histogram::bounds();
  ASSERT_EQ(buckets.size(), bounds.size() + 1);  // finite + overflow
  double total = 0.0;
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(buckets[i].at("le").num, bounds[i]);  // bounds read back exactly
    total += buckets[i].at("count").num;
  }
  EXPECT_DOUBLE_EQ(total, 2.0);
  EXPECT_EQ(buckets.back().at("le").type, Json::Type::kNull);  // +inf bucket
  EXPECT_DOUBLE_EQ(buckets.back().at("count").num, 1.0);
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
