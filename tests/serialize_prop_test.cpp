// Property/fuzz tests for the persistence layer: TextWriter/TextReader
// round trips (including non-finite and denormal doubles), hostile-input
// behaviour (truncated and garbled streams must throw std::runtime_error,
// never crash or over-allocate), JsonWriter well-formedness, and JsonWriter's
// number text held byte for byte to the printf search it replaced.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/json_writer.hpp"
#include "common/serialize.hpp"
#include "gpusim/measurer.hpp"
#include "proptest_util.hpp"
#include "service/protocol.hpp"
#include "test_util.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse {
namespace {

using testing::any_double;
using testing::any_matrix;
using testing::any_string;
using testing::any_vector;
using testing::any_word;
using testing::garble;
using testing::json_valid;
using testing::last_token_start;
using testing::same_double;

// ---------- round trips ----------

TEST(SerializePropTest, ScalarRoundTripsAnyDouble) {
  CHECK_PROP(101, 200, [](Rng& rng) {
    std::stringstream ss;
    TextWriter w(ss);
    std::vector<double> vals;
    for (int i = 0; i < 16; ++i) vals.push_back(any_double(rng));
    for (double v : vals) w.scalar(v);
    TextReader r(ss);
    for (double v : vals)
      if (!same_double(r.scalar(), v)) return false;
    return true;
  });
}

TEST(SerializePropTest, VectorRoundTripsIncludingEmpty) {
  CHECK_PROP(102, 150, [](Rng& rng) {
    linalg::Vector v = any_vector(rng, 64);
    std::stringstream ss;
    TextWriter w(ss);
    w.vector(v);
    TextReader r(ss);
    linalg::Vector back = r.vector();
    if (back.size() != v.size()) return false;
    for (std::size_t i = 0; i < v.size(); ++i)
      if (!same_double(back[i], v[i])) return false;
    return true;
  });
}

TEST(SerializePropTest, MatrixRoundTripsIncludingDegenerateShapes) {
  CHECK_PROP(103, 150, [](Rng& rng) {
    linalg::Matrix m = any_matrix(rng, 12);  // hits 0xN, Nx0, and 0x0
    std::stringstream ss;
    TextWriter w(ss);
    w.matrix(m);
    TextReader r(ss);
    linalg::Matrix back = r.matrix();
    if (back.rows() != m.rows() || back.cols() != m.cols()) return false;
    auto a = m.data();
    auto b = back.data();
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!same_double(b[i], a[i])) return false;
    return true;
  });
}

TEST(SerializePropTest, LongWordsRoundTrip) {
  CHECK_PROP(104, 100, [](Rng& rng) {
    std::string s = any_word(rng, 2000);
    std::stringstream ss;
    TextWriter w(ss);
    w.text(s);
    TextReader r(ss);
    return r.text() == s;
  });
}

// ---------- hostile input ----------

// A random schedule of writes, with a reader that replays the same schedule.
struct Stream {
  std::string bytes;
  std::vector<int> schedule;  // 0=tag 1=scalar 2=scalar_u 3=vector 4=matrix 5=text
};

Stream make_stream(Rng& rng) {
  std::stringstream ss;
  TextWriter w(ss);
  Stream out;
  int fields = 2 + static_cast<int>(rng.index(8));
  for (int i = 0; i < fields; ++i) {
    int kind = static_cast<int>(rng.index(6));
    out.schedule.push_back(kind);
    switch (kind) {
      case 0: w.tag("t"); break;
      case 1: w.scalar(any_double(rng)); break;
      case 2: w.scalar_u(rng.index(1000)); break;
      case 3: w.vector(any_vector(rng, 8)); break;
      case 4: w.matrix(any_matrix(rng, 4)); break;
      default: w.text(any_word(rng, 12)); break;
    }
  }
  out.bytes = ss.str();
  return out;
}

void replay(const Stream& s, const std::string& bytes) {
  std::istringstream is(bytes);
  TextReader r(is);
  for (int kind : s.schedule) {
    switch (kind) {
      case 0: r.expect("t"); break;
      case 1: r.scalar(); break;
      case 2: r.scalar_u(); break;
      case 3: r.vector(); break;
      case 4: r.matrix(); break;
      default: r.text(); break;
    }
  }
}

TEST(SerializePropTest, TruncationLosingATokenAlwaysThrows) {
  CHECK_PROP(106, 200, [](Rng& rng) {
    Stream s = make_stream(rng);
    // Cut strictly before the last token starts: at least one whole token is
    // gone, so replaying the full schedule must run out of input.
    std::size_t limit = last_token_start(s.bytes);
    if (limit == std::string::npos || limit == 0) return true;
    std::string cut = s.bytes.substr(0, rng.index(limit));
    try {
      replay(s, cut);
      return false;  // read a stream with a missing token without noticing
    } catch (const std::runtime_error&) {
      return true;
    }
    // Any other exception type escapes and fails the property.
  });
}

TEST(SerializePropTest, GarbledInputThrowsRuntimeErrorOrSucceeds) {
  CHECK_PROP(107, 400, [](Rng& rng) {
    Stream s = make_stream(rng);
    std::string bad = garble(s.bytes, rng);
    try {
      replay(s, bad);  // some mutations stay parseable — that's fine
    } catch (const std::runtime_error&) {
      // the one contractual failure type
    }
    return true;  // anything else (crash, bad_alloc, invalid_argument) fails
  });
}

TEST(SerializePropTest, NegativeAndJunkIntegersThrow) {
  for (const char* tok : {"-5", "1x", "x1", "1.5", "+3", "12-3"}) {
    std::istringstream is(std::string(tok) + " 0");
    TextReader r(is);
    EXPECT_THROW(r.scalar_u(), std::runtime_error) << "token: '" << tok << "'";
  }
  for (const char* tok : {"abc", "1.2.3", "--5", "1e", "0x1p3q"}) {
    std::istringstream is(tok);
    TextReader r(is);
    EXPECT_THROW(r.scalar(), std::runtime_error) << "token: '" << tok << "'";
  }
}

TEST(SerializePropTest, HugeSizePrefixFailsWithoutHugeAllocation) {
  // A corrupted vector length claiming ~1.8e19 elements must die on
  // end-of-input while parsing, not attempt the allocation up front.
  {
    std::istringstream is("18446744073709551615 1.0 2.0");
    TextReader r(is);
    EXPECT_THROW(r.vector(), std::runtime_error);
  }
  {
    std::istringstream is("4294967295 4294967295 1.0");
    TextReader r(is);
    EXPECT_THROW(r.matrix(), std::runtime_error);  // dimension overflow
  }
  {
    std::istringstream is("99999999 99999999 1.0");
    TextReader r(is);
    EXPECT_THROW(r.matrix(), std::runtime_error);  // runs out of elements
  }
}

// ---------- JsonWriter ----------

// Emit a random document through JsonWriter, mirroring the nesting rules.
void emit_value(JsonWriter& w, Rng& rng, int depth) {
  int pick = static_cast<int>(rng.index(depth >= 4 ? 5 : 7));
  switch (pick) {
    case 0: w.value(any_string(rng, 24)); break;
    case 1: w.value(any_double(rng)); break;  // non-finite must become null
    case 2: w.value(rng.chance(0.5)); break;
    case 3: w.value(static_cast<std::int64_t>(rng.uniform_int(-1000000, 1000000))); break;
    case 4: w.null(); break;
    case 5: {
      w.begin_array();
      std::size_t n = rng.index(4);
      for (std::size_t i = 0; i < n; ++i) emit_value(w, rng, depth + 1);
      w.end_array();
      break;
    }
    default: {
      w.begin_object();
      std::size_t n = rng.index(4);
      for (std::size_t i = 0; i < n; ++i) {
        w.key("k" + std::to_string(i) + any_string(rng, 8));
        emit_value(w, rng, depth + 1);
      }
      w.end_object();
      break;
    }
  }
}

TEST(SerializePropTest, JsonWriterEmitsWellFormedJson) {
  CHECK_PROP(108, 300, [](Rng& rng) {
    std::ostringstream os;
    {
      JsonWriter w(os, rng.chance(0.5) ? 2 : 0);
      w.begin_object();
      std::size_t n = rng.index(6);
      for (std::size_t i = 0; i < n; ++i) {
        w.key("f" + std::to_string(i));
        emit_value(w, rng, 0);
      }
      w.end_object();
      if (!w.done()) return false;
    }
    return json_valid(os.str());
  });
}

TEST(SerializePropTest, JsonEscapeAlwaysProducesAValidStringLiteral) {
  CHECK_PROP(109, 300, [](Rng& rng) {
    std::string raw = any_string(rng, 64);
    return json_valid("\"" + JsonWriter::escape(raw) + "\"");
  });
}

TEST(SerializePropTest, JsonWriterMisuseThrowsLogicError) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), std::logic_error);  // value with no key
  }
  {
    std::ostringstream os2;
    JsonWriter w(os2);
    EXPECT_THROW(w.end_object(), std::logic_error);  // unbalanced close
  }
}

// ---------- JsonWriter number text ----------

namespace oracle {

/// JsonWriter::value(double) as it was written with printf: the shortest
/// %.*g at precision 6..16 that sscanf reads back exactly, else %.17g. Every
/// tier file, wire message and digest written so far holds this text.
std::string number_text(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  char shorter[40];
  for (int prec = 6; prec < 17; ++prec) {
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) break;
    shorter[0] = '\0';
  }
  return shorter[0] ? shorter : buf;
}

}  // namespace oracle

std::string writer_text(double v) {
  std::ostringstream os;
  {
    JsonWriter w(os, /*indent=*/0);
    w.value(v);
  }
  return os.str();
}

/// Every value's writer text equals the oracle's; reports the first few
/// mismatches with the value's bits so a failure replays exactly.
void expect_same_text(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (double v : values) {
    std::string want = oracle::number_text(v);
    std::string got = writer_text(v);
    if (got != want && ++mismatches <= 5)
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v)
                    << std::dec << ": writer '" << got << "', oracle '" << want << "'";
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

double from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

TEST(JsonNumberTextTest, PowersOfTwoAndTheirNeighboursMatchOracle) {
  // At a power of two the gap below is half the gap above, so the
  // round-trip interval is lopsided: the one place where the nearest n-digit
  // decimal can miss while another n-digit decimal would round-trip.
  std::vector<double> values;
  for (int e = -1074; e <= 1023; ++e) {
    double p = std::ldexp(1.0, e);
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, HUGE_VAL)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  expect_same_text(values);
}

TEST(JsonNumberTextTest, SubnormalsZerosAndLargeIntegersMatchOracle) {
  std::vector<double> values = {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest(),
                                from_bits(0x000fffffffffffffULL)};
  Rng rng(1101);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t mant = static_cast<std::uint64_t>(rng.uniform_int(1, (1LL << 52) - 1));
    values.push_back(from_bits(mant));                    // random subnormal
    values.push_back(from_bits(static_cast<std::uint64_t>(i + 1)));  // smallest ones
  }
  const double two53 = std::ldexp(1.0, 53);
  for (int k = -300; k <= 300; ++k) values.push_back(two53 + k);
  for (double base : {1e15, 1e16, 1e17}) {
    for (int k = -300; k <= 300; ++k) values.push_back(base + k);
    double v = base;
    for (int k = 0; k < 50; ++k) values.push_back(v = std::nextafter(v, 0.0));
  }
  for (int i = 0; i < 2000; ++i)
    values.push_back(std::floor(rng.uniform(1e15, 1e17)));
  expect_same_text(values);
}

TEST(JsonNumberTextTest, ValuesShorterThanSixDigitsMatchOracle) {
  // %g pads the search's six-digit floor: these print as %.6g would, not
  // as their shortest form (100000, not 1e+05).
  std::vector<double> values = {0.5,    100000, 123450, 1e21,  1e22, 1.0,   2.0,
                                0.1,    0.25,   1e-5,   1e-4,  1e5,  1e6,   1e15,
                                1e16,   1e17,   1e100,  1e-300, 12345, 99999, 999999,
                                1234567, 0.001, 3.5e-7, 7e300};
  for (std::size_t i = 0, n = values.size(); i < n; ++i) values.push_back(-values[i]);
  expect_same_text(values);
}

TEST(JsonNumberTextTest, RandomFiniteBitPatternsMatchOracle) {
  Rng rng(1102);
  std::vector<double> values;
  values.reserve(100000);
  while (values.size() < 100000) {
    double v = from_bits(static_cast<std::uint64_t>(
        rng.uniform_int(std::numeric_limits<std::int64_t>::min(),
                        std::numeric_limits<std::int64_t>::max())));
    if (std::isfinite(v)) values.push_back(v);
  }
  expect_same_text(values);
}

TEST(JsonNumberTextTest, SimulatedMeasurementsMatchOracle) {
  // The doubles a cache-tier line carries, as the simulator produces them.
  const auto& task = testing::small_conv_task();
  gpusim::SimMeasurer sim;
  Rng rng(1103);
  std::vector<double> values;
  for (int i = 0; i < 400; ++i) {
    const hwspec::GpuSpec& hw = i % 2 ? testing::titan_xp() : testing::rtx3090();
    gpusim::MeasureResult r = sim.measure(task, hw, task.space().random_config(rng), 10.0);
    values.insert(values.end(), {r.latency_s, r.gflops, r.cost_s});
  }
  expect_same_text(values);
}

// One disk-tier line and one "result" response, byte for byte as the
// printf writer emitted them: tier files written before the std::to_chars
// writer must stay mergeable text-for-text with the lines written after it.
TEST(JsonNumberTextTest, CacheTierLineIsPinned) {
  gpusim::MeasureResult r;
  r.valid = true;
  r.attempts = 1;
  r.latency_s = 0x1.36263fb240909p-7;
  r.gflops = 0x1.86d8fd4b97838p+4;
  r.cost_s = 0x1.0c1d7e7cf685ap+1;
  tuning::CacheKey key;
  key.task_fp = 0x0123456789abcdefULL;
  key.hw_fp = 0xfedcba9876543210ULL;
  key.config = {198, 3, 3, 9, 0, 0, 0, 0};

  const std::string path = testing::tmp_path("number_text_tier.jsonl");
  std::remove(path.c_str());
  {
    tuning::ResultCacheOptions opts;
    opts.path = path;
    tuning::ResultCache cache(opts);
    cache.insert(key, r);
  }
  std::ifstream is(path);
  std::string line;
  ASSERT_TRUE(std::getline(is, line));
  EXPECT_EQ(line,
            "{\"fpv\":3,\"task_fp\":\"0123456789abcdef\",\"hw_fp\":\"fedcba9876543210\","
            "\"config\":[198,3,3,9,0,0,0,0],\"valid\":true,\"reason\":0,\"error\":0,"
            "\"attempts\":1,\"latency_s\":0.009465008832652904,"
            "\"gflops\":24.427975936203637,\"cost_s\":2.094650088326529}");
  std::remove(path.c_str());
}

TEST(JsonNumberTextTest, ResultResponseIsPinned) {
  service::Response r;
  r.type = service::ResponseType::kResult;
  r.summary.job_id = 17;
  r.summary.client = "pin";
  r.summary.state = "done";
  r.summary.trials = 48;
  r.summary.faulted = 2;
  r.summary.best_gflops = 0x1.3456b0cbd4bc8p+5;
  r.summary.best_config = {148, 0, 0, 6, 0, 0, 0, 1};
  r.summary.elapsed_s = 0x1.e5485cf1616ecp+2;
  EXPECT_EQ(service::encode_response(r),
            "{\"v\":3,\"type\":\"result\",\"job\":{\"job_id\":17,\"client\":\"pin\","
            "\"state\":\"done\",\"trials\":48,\"faulted\":2,"
            "\"best_gflops\":38.54232939951868,\"best_config\":[148,0,0,6,0,0,0,1],"
            "\"elapsed_s\":7.582541690562476,\"error\":\"\"}}");
}

}  // namespace
}  // namespace glimpse
