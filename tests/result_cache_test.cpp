// Measurement result cache tests (ctest -L robustness): fingerprinting,
// LRU behaviour under random eviction orders, disk-tier round trips,
// corrupted-line rejection, and the measure_with_retry integration — a hit
// must charge zero simulated time and return the bit-identical result.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <vector>

#include "gpusim/faulty_measurer.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/database.hpp"
#include "proptest_util.hpp"
#include "test_util.hpp"
#include "tuning/measure.hpp"
#include "tuning/result_cache.hpp"

namespace glimpse::tuning {
namespace {

using glimpse::testing::garble;
using glimpse::testing::small_conv_task;
using glimpse::testing::small_dense_task;
using glimpse::testing::titan_xp;
using glimpse::testing::tmp_path;
using gpusim::FaultInjector;
using gpusim::FaultPlan;
using gpusim::MeasureResult;
using gpusim::SimMeasurer;

MeasureResult valid_result(double gflops) {
  MeasureResult r;
  r.valid = true;
  r.latency_s = 1e-3;
  r.gflops = gflops;
  r.cost_s = 2.0;
  return r;
}

CacheKey key_for(std::uint32_t a, std::uint32_t b = 0) {
  CacheKey k;
  k.task_fp = 0x1111;
  k.hw_fp = 0x2222;
  k.config = {a, b};
  return k;
}

bool results_equal(const MeasureResult& a, const MeasureResult& b) {
  return a.valid == b.valid && a.reason == b.reason && a.error == b.error &&
         a.attempts == b.attempts && a.latency_s == b.latency_s &&
         a.gflops == b.gflops && a.cost_s == b.cost_s;
}

TEST(ResultCacheTest, FingerprintsAreStableAndDiscriminating) {
  EXPECT_EQ(task_fingerprint(small_conv_task()), task_fingerprint(small_conv_task()));
  EXPECT_NE(task_fingerprint(small_conv_task()), task_fingerprint(small_dense_task()));
  EXPECT_EQ(hardware_fingerprint(titan_xp()), hardware_fingerprint(titan_xp()));
  EXPECT_NE(hardware_fingerprint(titan_xp()),
            hardware_fingerprint(glimpse::testing::rtx3090()));
  // Editing any datasheet number must invalidate the fingerprint.
  hwspec::GpuSpec edited = titan_xp();
  edited.mem_bandwidth_gbs += 1.0;
  EXPECT_NE(hardware_fingerprint(titan_xp()), hardware_fingerprint(edited));
}

TEST(ResultCacheTest, HardwareFingerprintGolden) {
  // Golden values pin fingerprint scheme 3 (name + datasheet incl. the
  // tensor-core columns + quirk seed). If this test fails, the scheme
  // changed: bump kCacheLineFpVersion so old tier lines classify stale,
  // then update these constants.
  const hwspec::GpuSpec* db_titan = hwspec::find_gpu("Titan Xp");
  ASSERT_NE(db_titan, nullptr);
  EXPECT_EQ(hardware_fingerprint(*db_titan), 0xf17de7d51c4e9963ull);

  // The per-device quirk seed is part of the identity: two boards with
  // identical datasheets but different quirks measure different costs, so
  // they must never share cache entries.
  hwspec::GpuSpec quirked = *db_titan;
  quirked.quirk_seed = 0xdeadbeef;
  EXPECT_EQ(hardware_fingerprint(quirked), 0x4cd725b08c759af3ull);
  EXPECT_NE(hardware_fingerprint(quirked), hardware_fingerprint(*db_titan));

  // quirk_seed = 0 means "derive from the name", so setting it explicitly
  // to that derivation is the same device.
  hwspec::GpuSpec explicit_seed = *db_titan;
  explicit_seed.quirk_seed = db_titan->seed();
  EXPECT_EQ(hardware_fingerprint(explicit_seed),
            hardware_fingerprint(*db_titan));
}

TEST(ResultCacheTest, MissingOrForeignFpvClassifiesStale) {
  // A well-formed current line is served; the same line with the "fpv"
  // field stripped (pre-scheme-2 writer) or rewritten to a foreign version
  // parses but classifies stale — its fingerprints came from different math.
  std::string path = tmp_path("cache_fpv.jsonl");
  std::remove(path.c_str());
  {
    ResultCacheOptions opts;
    opts.path = path;
    ResultCache cache(opts);
    cache.insert(key_for(7), valid_result(123.0));
  }
  std::string line;
  {
    std::ifstream is(path);
    ASSERT_TRUE(std::getline(is, line));
  }
  std::remove(path.c_str());
  const std::string current =
      "\"fpv\":" + std::to_string(kCacheLineFpVersion) + ",";
  ASSERT_NE(line.find(current), std::string::npos);

  CacheKey key;
  MeasureResult r;
  bool stale = true;
  ASSERT_TRUE(parse_cache_line(line, key, r, stale));
  EXPECT_FALSE(stale);

  std::string no_fpv = line;
  no_fpv.erase(no_fpv.find(current), current.size());
  ASSERT_TRUE(parse_cache_line(no_fpv, key, r, stale));
  EXPECT_TRUE(stale);

  std::string old_fpv = line;
  old_fpv.replace(old_fpv.find(current), current.size(), "\"fpv\":1,");
  ASSERT_TRUE(parse_cache_line(old_fpv, key, r, stale));
  EXPECT_TRUE(stale);

  // And a cache opened over a foreign-fpv tier drops the line as stale.
  {
    std::ofstream os(path, std::ios::trunc);
    os << old_fpv << '\n';
  }
  ResultCacheOptions opts;
  opts.path = path;
  ResultCache cache(opts);
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.stats().loaded, 0u);
  std::remove(path.c_str());
}

TEST(ResultCacheTest, NonJsonTierLinesAreRejected) {
  // Tier lines are read by the strict JSON reader: spellings a strtod /
  // isspace scanner would take but JSON does not are rejected lines now,
  // never loaded or stale. The writer's key order is still demanded;
  // MissingOrForeignFpvClassifiesStale covers lines without "fpv".
  ResultCacheOptions opts;
  opts.path = tmp_path("cache_non_json.jsonl");
  const std::string& path = opts.path;
  std::remove(path.c_str());
  ResultCache(opts).insert(key_for(7), valid_result(123.0));
  std::string good;
  std::getline(std::ifstream(path), good);
  ASSERT_EQ(good,  // the writer's spelling, which the table below edits
            R"({"fpv":3,"task_fp":"0000000000001111","hw_fp":"0000000000002222",)"
            R"("config":[7,0],"valid":true,"reason":0,"error":0,"attempts":1,)"
            R"("latency_s":0.001,"gflops":123,"cost_s":2})");
  auto with = [&](const std::string& from, const std::string& to) {
    std::string line = good;
    return line.replace(line.find(from), from.size(), to);
  };
  const std::pair<const char*, std::string> rejected[] = {
      {"hex float", with("0.001", "0x1p3")},
      {"nan", with("0.001", "nan")},
      {"inf", with("0.001", "inf")},
      {"plus sign", with(":123", ":+1")},
      {"leading zero", with(":123", ":01.5")},
      {"bare fraction", with(":123", ":.5")},
      {"vertical tab", with(":true", ":\vtrue")},
      {"attempts above 2^64",
       with("\"attempts\":1", "\"attempts\":18446744073709551616")},
      {"reordered keys", with(R"("reason":0,"error":0)", R"("error":0,"reason":0)")},
      {"duplicated key", with(R"("error":0)", R"("error":0,"error":0)")},
  };
  CacheKey key;
  MeasureResult r;
  bool stale = false;
  for (const auto& [name, line] : rejected) {
    EXPECT_FALSE(parse_cache_line(line, key, r, stale)) << name;
    std::ofstream(path, std::ios::trunc)
        << line << '\n' << with("[7,0]", "[8,0]") << '\n';
    const ResultCacheStats st = ResultCache(opts).stats();
    EXPECT_EQ(st.rejected_lines, 1u) << name;
    EXPECT_EQ(st.stale, 0u) << name;
    EXPECT_EQ(st.loaded, 1u) << name;
  }
  std::remove(path.c_str());
}

TEST(ResultCacheTest, PeerTierLinesParsedAtMostOnce) {
  // Regression for the peer-adoption hot path: sync_peers() must resume
  // from per-file byte offsets, so a line that was already adopted is never
  // run through the parser again on later syncs.
  namespace fs = std::filesystem;
  const std::string dir = tmp_path("cache_peer_once");
  fs::remove_all(dir);
  fs::create_directories(dir);

  ResultCacheOptions mine;
  mine.path = dir + "/tier-a.jsonl";
  mine.shared_dir = dir;
  ResultCache cache(mine);

  {
    ResultCacheOptions peer;
    peer.path = dir + "/tier-b.jsonl";
    peer.shared_dir = dir;
    ResultCache other(peer);
    for (std::uint32_t i = 0; i < 6; ++i)
      other.insert(key_for(i), valid_result(10.0 + i));
  }
  EXPECT_EQ(cache.sync_peers(), 6u);
  EXPECT_EQ(cache.stats().peer_lines_parsed, 6u);
  EXPECT_EQ(cache.stats().peer_merged, 6u);

  // Nothing new: no line may be re-parsed.
  EXPECT_EQ(cache.sync_peers(), 0u);
  EXPECT_EQ(cache.stats().peer_lines_parsed, 6u);

  // One appended entry costs exactly one parse.
  {
    ResultCacheOptions peer;
    peer.path = dir + "/tier-b.jsonl";
    peer.shared_dir = dir;
    ResultCache other(peer);
    other.insert(key_for(99), valid_result(99.0));
  }
  EXPECT_EQ(cache.sync_peers(), 1u);
  EXPECT_EQ(cache.stats().peer_lines_parsed, 7u);
  fs::remove_all(dir);
}

TEST(ResultCacheTest, InsertLookupRoundTrip) {
  ResultCache cache;
  MeasureResult in = valid_result(900.0);
  EXPECT_FALSE(cache.lookup(key_for(1), in));
  cache.insert(key_for(1), in);
  MeasureResult out;
  ASSERT_TRUE(cache.lookup(key_for(1), out));
  EXPECT_TRUE(results_equal(in, out));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().inserts, 1u);
}

TEST(ResultCacheTest, FaultedResultsAreNeverCached) {
  ResultCache cache;
  MeasureResult faulted = valid_result(100.0);
  faulted.valid = false;
  faulted.gflops = 0.0;
  faulted.latency_s = 0.0;
  faulted.error = gpusim::MeasureError::kTransient;
  EXPECT_FALSE(ResultCache::cacheable(faulted));
  cache.insert(key_for(2), faulted);
  MeasureResult out;
  EXPECT_FALSE(cache.lookup(key_for(2), out));

  // Model-invalid results ARE cacheable: the rejection is deterministic.
  MeasureResult invalid;
  invalid.valid = false;
  invalid.reason = gpusim::InvalidReason::kTooManyThreads;
  EXPECT_TRUE(ResultCache::cacheable(invalid));
  cache.insert(key_for(3), invalid);
  EXPECT_TRUE(cache.lookup(key_for(3), out));
  EXPECT_TRUE(results_equal(invalid, out));
}

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsedUnderRandomAccess) {
  // Property: after any interleaving of inserts and lookups, the cache holds
  // exactly the `capacity` most recently touched keys.
  CHECK_PROP(401, 50, [&](Rng& rng) {
    std::size_t capacity = 2 + rng.index(6);
    ResultCacheOptions opts;
    opts.capacity = capacity;
    ResultCache cache(opts);
    std::vector<std::uint32_t> recency;  // most recent last
    auto touch = [&](std::uint32_t id) {
      for (auto it = recency.begin(); it != recency.end(); ++it)
        if (*it == id) {
          recency.erase(it);
          break;
        }
      recency.push_back(id);
      if (recency.size() > capacity) recency.erase(recency.begin());
    };
    int steps = 30 + static_cast<int>(rng.index(40));
    for (int s = 0; s < steps; ++s) {
      std::uint32_t id = static_cast<std::uint32_t>(rng.index(12));
      MeasureResult out;
      if (rng.chance(0.5)) {
        if (cache.lookup(key_for(id), out)) touch(id);
      } else {
        bool had = cache.lookup(key_for(id), out);
        if (!had) cache.insert(key_for(id), valid_result(100.0 + id));
        touch(id);
      }
      if (cache.size() > capacity) return false;
    }
    // Every key the model says is resident must be served.
    for (std::uint32_t id : recency) {
      MeasureResult out;
      if (!cache.lookup(key_for(id), out)) return false;
      if (out.gflops != 100.0 + id) return false;
    }
    return true;
  });
}

TEST(ResultCacheTest, DiskTierRoundTrips) {
  // Costs reload bit-identical, edge doubles included: denormals, -0.0,
  // extremes, and values whose shortest spelling is not their %.17g one.
  const double costs[] = {std::numeric_limits<double>::denorm_min(), -0.0, 1e-300,
                          DBL_MAX, DBL_MIN, 0.1, 1.0 / 3.0, 123.456, 5e-324 * 3,
                          9007199254740993.0, 2.0};
  auto cost = [&](std::uint32_t i) { return costs[i % std::size(costs)]; };
  std::string path = tmp_path("cache_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    ResultCacheOptions opts;
    opts.path = path;
    ResultCache cache(opts);
    for (std::uint32_t i = 0; i < 16; ++i) {
      MeasureResult r = valid_result(50.0 + i);
      r.cost_s = cost(i);
      cache.insert(key_for(i), r);
    }
  }
  ResultCacheOptions opts;
  opts.path = path;
  ResultCache reloaded(opts);
  EXPECT_EQ(reloaded.stats().loaded, 16u);
  EXPECT_EQ(reloaded.stats().rejected_lines, 0u);
  EXPECT_EQ(reloaded.stats().stale, 0u);
  for (std::uint32_t i = 0; i < 16; ++i) {
    MeasureResult out;
    ASSERT_TRUE(reloaded.lookup(key_for(i), out)) << "entry " << i;
    EXPECT_EQ(out.gflops, 50.0 + i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out.cost_s),
              std::bit_cast<std::uint64_t>(cost(i)))
        << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST(ResultCacheTest, CorruptedLinesAreRejectedWithoutAborting) {
  std::string path = tmp_path("cache_corrupt.jsonl");
  std::remove(path.c_str());
  {
    ResultCacheOptions opts;
    opts.path = path;
    ResultCache cache(opts);
    for (std::uint32_t i = 0; i < 8; ++i)
      cache.insert(key_for(i), valid_result(50.0 + i));
  }
  std::vector<std::string> lines;
  {
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 8u);

  CHECK_PROP(402, 60, [&](Rng& rng) {
    // Garble a random subset of lines; the rest must still load.
    std::string bad = tmp_path("cache_corrupt_bad.jsonl");
    std::size_t damaged = 0;
    {
      std::ofstream os(bad, std::ios::trunc);
      for (const std::string& line : lines) {
        if (rng.chance(0.4)) {
          os << garble(line, rng) << '\n';
          ++damaged;
        } else {
          os << line << '\n';
        }
      }
    }
    ResultCacheOptions opts;
    opts.path = bad;
    ResultCache cache(opts);  // must not throw or abort
    ResultCacheStats st = cache.stats();
    // Every undamaged line loads; damaged lines are rejected or stale (or,
    // for the rare garble that still parses as a well-formed entry, loaded
    // under whatever key it now spells). Nothing is fatal.
    if (st.loaded < lines.size() - damaged) return false;
    std::remove(bad.c_str());
    return true;
  });
  std::remove(path.c_str());
}

TEST(ResultCacheTest, StaleEntriesAreDroppedNotServed) {
  std::string path = tmp_path("cache_stale.jsonl");
  std::remove(path.c_str());
  {
    // A line that parses but claims a valid result with negative latency:
    // parseable, impossible, therefore stale.
    std::ofstream os(path, std::ios::trunc);
    os << "{\"task_fp\":\"0000000000001111\",\"hw_fp\":\"0000000000002222\","
          "\"config\":[1,0],\"valid\":true,\"reason\":0,\"error\":0,"
          "\"attempts\":1,\"latency_s\":-1.0,\"gflops\":900.0,\"cost_s\":2.0}\n";
  }
  ResultCacheOptions opts;
  opts.path = path;
  ResultCache cache(opts);
  EXPECT_EQ(cache.stats().stale, 1u);
  EXPECT_EQ(cache.stats().loaded, 0u);
  MeasureResult out;
  EXPECT_FALSE(cache.lookup(key_for(1), out));
  std::remove(path.c_str());
}

TEST(ResultCacheTest, MeasureWithRetryHitChargesZeroSimulatedTime) {
  const auto& task = small_conv_task();
  const auto& hw = titan_xp();
  Rng crng(7);
  Config config = task.space().random_config(crng);
  RetryPolicy policy;
  ResultCache cache;

  SimMeasurer sim;
  MeasureResult first =
      measure_with_retry(sim, task, hw, config, policy, 99, 0, &cache);
  std::size_t measurements = sim.num_measurements();
  double elapsed = sim.elapsed_seconds();
  EXPECT_GT(measurements, 0u);
  EXPECT_GT(elapsed, 0.0);

  // Second call: a hit. Bit-identical result, measurer untouched.
  MeasureResult second =
      measure_with_retry(sim, task, hw, config, policy, 99, 1, &cache);
  EXPECT_TRUE(results_equal(first, second));
  EXPECT_EQ(sim.num_measurements(), measurements);
  EXPECT_EQ(sim.elapsed_seconds(), elapsed);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ResultCacheTest, FaultedThenCachedTrialDoesNotInflateBackoff) {
  const auto& task = small_conv_task();
  const auto& hw = titan_xp();
  Rng crng(8);
  Config config = task.space().random_config(crng);
  RetryPolicy policy;
  ResultCache cache;

  // First trial: one scheduled transient fault, so the retry loop charges
  // one backoff wait and then recovers and caches the settled result.
  SimMeasurer sim;
  FaultPlan plan;
  plan.scheduled_transients = {0};
  FaultInjector flaky(sim, plan);
  MeasureResult first =
      measure_with_retry(flaky, task, hw, config, policy, 99, 0, &cache);
  ASSERT_EQ(first.error, gpusim::MeasureError::kNone);
  EXPECT_GT(first.attempts, 1);
  double elapsed_after_fault = sim.elapsed_seconds();

  // Second trial of the same config: served from the cache. No measurement,
  // no backoff, no simulated time — the earlier fault's backoff state is
  // confined to its own trial and cannot leak forward.
  MeasureResult second =
      measure_with_retry(flaky, task, hw, config, policy, 99, 1, &cache);
  EXPECT_TRUE(results_equal(first, second));
  EXPECT_EQ(sim.elapsed_seconds(), elapsed_after_fault);
}

}  // namespace
}  // namespace glimpse::tuning
