// Cross-session measurement result cache.
//
// Measurements in this codebase are deterministic in (task, hardware,
// config) — SimMeasurer seeds its noise from stable hashes of exactly that
// triple — so a result measured once is a result known forever. The cache
// exploits that: it is consulted by tuning::measure_with_retry before any
// simulated-hardware measurement, keyed by
//   (task fingerprint, hardware fingerprint, config),
// where the fingerprints digest everything the measurement depends on (task
// name, template kind, knob structure, FLOP count; hardware name plus the
// full datasheet feature vector). If a task or GPU definition changes, its
// fingerprint changes and old entries become unreachable rather than wrong.
//
// Two tiers:
//  * an in-memory LRU map bounded by `capacity`, safe for concurrent
//    lookup/insert from the scheduler's measurement threads;
//  * an optional persistent on-disk tier: an append-only JSONL file (one
//    entry per line, written through JsonWriter, read back through the
//    strict JSON reader) loaded at open. Corrupted or stale lines are
//    counted and skipped, never fatal — the cache is an accelerator, not a
//    source of truth.
//
// Fleet mode (shared_dir): several daemons point at one directory, each
// appending only to its own `tier-<shard>.jsonl` — single-writer files, so
// no cross-process locking — and periodically pulling the other shards'
// tiers with sync_peers(). Peer reads are incremental (a byte offset per
// peer file, rewound when a peer file shrinks underneath us) and consume
// only newline-terminated lines, so a peer's in-flight append is never
// torn. Peer entries enter memory-only (no re-append: no echo
// amplification between shards), so each shard's own tier holds only what
// that shard measured; a restarted shard gets the rest back from its
// peers' tiers at open.
//
// Only settled results are cached: valid measurements and deterministic
// model-invalid configs (error == kNone). Infrastructure faults (transient,
// timeout, corrupt) are never cached — a flaky measurement must stay
// retryable, not become a cached failure.
//
// Telemetry: cache.hit / cache.miss / cache.stale / cache.insert /
// cache.evict counters (gated on metrics_enabled()). Lookups never touch an
// Rng, so enabling the cache cannot perturb any random stream: a cache hit
// returns the bit-identical result a fresh measurement would have produced
// and charges zero simulated time.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json_reader.hpp"
#include "gpusim/measurer.hpp"
#include "hwspec/gpu_spec.hpp"
#include "searchspace/task.hpp"

namespace glimpse::tuning {

/// Digest of everything a measurement result depends on from the task side:
/// name, template kind, knob structure (count and per-knob option counts),
/// and nominal FLOPs. Stable across processes.
std::uint64_t task_fingerprint(const searchspace::Task& task);

/// Digest of the hardware side: GPU name, the full datasheet feature vector
/// (bit-exact), and the per-device quirk seed. The quirk seed matters: two
/// boards with identical datasheets but different quirk factors measure
/// different costs, so sharing cache entries between them would serve wrong
/// results. Bumping the scheme requires bumping kCacheLineFpVersion so old
/// tier lines classify stale instead of colliding.
std::uint64_t hardware_fingerprint(const hwspec::GpuSpec& hw);

/// Version of the fingerprint scheme embedded in disk-tier lines ("fpv").
/// Lines written under a different scheme — or before the field existed —
/// parse but classify stale: their fingerprints were computed by different
/// math, so serving them would attribute results to the wrong device.
inline constexpr std::uint64_t kCacheLineFpVersion = 3;

struct CacheKey {
  std::uint64_t task_fp = 0;
  std::uint64_t hw_fp = 0;
  searchspace::Config config;

  friend bool operator==(const CacheKey& a, const CacheKey& b) = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    std::uint64_t h = hash_combine(k.task_fp, k.hw_fp);
    for (auto v : k.config) h = hash_combine(h, v);
    return static_cast<std::size_t>(h);
  }
};

/// Parse one disk-tier JSONL line through the strict JSON reader
/// (common/json_reader.hpp). Returns false (rejected) when the line is not
/// JSON within the reader's caps, or not an entry in the writer's fixed key
/// order with lowercase-hex fingerprints. On success, `stale` flags entries
/// that must not be served: impossible payloads, or fingerprints from an
/// old scheme (missing/mismatched "fpv"). Exposed for the warm-start donor
/// reader, which scans tier files without materializing a ResultCache.
bool parse_cache_line(const std::string& line, CacheKey& key,
                      gpusim::MeasureResult& r, bool& stale);

/// The fleet tier files (`tier-*.jsonl`) in `dir`, sorted so merge order
/// never depends on directory iteration order. None when `dir` is missing.
std::vector<std::filesystem::path> tier_files(const std::string& dir);

struct ResultCacheOptions {
  /// In-memory LRU capacity (entries). Must be >= 1.
  std::size_t capacity = 1 << 16;
  /// Persistent tier path; empty disables the disk tier.
  std::string path;
  /// Fleet shared-tier directory. Non-empty makes sync_peers() merge every
  /// `tier-*.jsonl` in it except this cache's own `path` (which should
  /// live inside the directory). Empty disables peer syncing.
  std::string shared_dir;
};

struct ResultCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale = 0;     ///< disk lines with impossible payloads, dropped
  std::uint64_t inserts = 0;   ///< new entries accepted (memory tier)
  std::uint64_t evictions = 0; ///< LRU evictions since open
  std::uint64_t loaded = 0;    ///< entries restored from the disk tier at open
  std::uint64_t rejected_lines = 0;  ///< unparseable disk lines, dropped
  /// Entries adopted from peer shards' tiers by sync_peers().
  std::uint64_t peer_merged = 0;
  /// Non-empty peer tier lines run through the parser by sync_peers().
  /// Adoption is incremental (per-file byte offsets), so across a cache's
  /// lifetime each peer line is parsed at most once unless a peer file
  /// shrinks underneath us (which rewinds that peer's offset).
  /// Regression-tested.
  std::uint64_t peer_lines_parsed = 0;
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = {});
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// True (and fills `out`) when the key is cached. Refreshes LRU recency.
  bool lookup(const CacheKey& key, gpusim::MeasureResult& out);

  /// Insert a settled result. Uncacheable results (error != kNone) and
  /// duplicate keys are ignored (measurements are deterministic, so the
  /// first entry is already the truth). Appends to the disk tier when open.
  void insert(const CacheKey& key, const gpusim::MeasureResult& r);

  /// True when a result may enter the cache: the measurement settled
  /// (error == kNone); valid and model-invalid results both qualify.
  static bool cacheable(const gpusim::MeasureResult& r);

  /// Fleet mode: incrementally merge new entries from every peer shard's
  /// tier file in `shared_dir`. Returns the number of entries adopted
  /// (0 and a no-op without a shared_dir). Safe to call concurrently with
  /// lookups; peers' partially appended final lines are left for the next
  /// sync rather than consumed torn.
  std::size_t sync_peers();

  std::size_t size() const;
  ResultCacheStats stats() const;

 private:
  struct Entry {
    CacheKey key;
    gpusim::MeasureResult result;
  };
  using EntryList = std::list<Entry>;

  void insert_locked(const CacheKey& key, const gpusim::MeasureResult& r,
                     bool persist);
  void load_disk_tier();
  /// Parse one tier line and insert it memory-only, counting rejected and
  /// stale lines. True when the entry was new to the memory tier.
  bool adopt_line_locked(json::Document& doc, const std::string& line);
  void append_line(const CacheKey& key, const gpusim::MeasureResult& r);

  ResultCacheOptions options_;
  mutable std::mutex mu_;
  EntryList lru_;  ///< front = most recently used
  std::unordered_map<CacheKey, EntryList::iterator, CacheKeyHash> index_;
  std::ofstream appender_;
  ResultCacheStats stats_;
  /// Fleet mode: bytes of each peer tier already consumed (by path).
  std::unordered_map<std::string, std::uint64_t> peer_offsets_;
};

}  // namespace glimpse::tuning
