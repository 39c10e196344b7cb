#include "tuning/result_cache.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <string_view>
#include <vector>

#include "common/json_reader.hpp"
#include "common/json_writer.hpp"
#include "common/logging.hpp"
#include "common/strutil.hpp"
#include "common/telemetry/telemetry.hpp"
#include "tuning/measure.hpp"

namespace glimpse::tuning {

namespace {

void write_cache_line(std::ostream& os, const CacheKey& key,
                      const gpusim::MeasureResult& r) {
  JsonWriter w(os, /*indent=*/0);
  w.begin_object();
  w.kv("fpv", kCacheLineFpVersion);
  w.kv("task_fp", hex64(key.task_fp));
  w.kv("hw_fp", hex64(key.hw_fp));
  w.key("config");
  w.begin_array();
  for (std::uint32_t v : key.config) w.value(static_cast<std::uint64_t>(v));
  w.end_array();
  w.kv("valid", r.valid);
  w.kv("reason", static_cast<std::uint64_t>(r.reason));
  w.kv("error", static_cast<std::uint64_t>(r.error));
  w.kv("attempts", static_cast<std::uint64_t>(std::max(1, r.attempts)));
  w.kv("latency_s", r.latency_s);
  w.kv("gflops", r.gflops);
  w.kv("cost_s", r.cost_s);
  w.end_object();
  os << '\n';
}

/// A fingerprint as the writer spells it: 1-16 lowercase hex digits.
bool hex_fp(const json::Node& v, std::uint64_t& out) {
  return v.kind == json::Kind::kString && parse_hex64(v.s, out);
}

/// parse_cache_line() into a caller-owned Document, so a tier read reuses
/// one node buffer for all its lines.
bool parse_tier_line(json::Document& doc, const std::string& line, CacheKey& key,
                     gpusim::MeasureResult& r, bool& stale) {
  std::string error;
  if (!doc.parse(line, error) || doc.root().kind != json::Kind::kObject) return false;
  // The writer emits a fixed key order, so the reader demands it: anything
  // else — truncation, bit flips, hand edits — fails the line, and the
  // caller drops it. "fpv" was introduced with fingerprint scheme 2; older
  // lines lack it and still parse, but classify stale below — their
  // fingerprints were computed without the per-device quirk seed, so
  // serving them could hand a quirked board its datasheet twin's costs.
  static constexpr std::string_view kKeys[] = {
      "fpv",    "task_fp",  "hw_fp",     "config", "valid", "reason",
      "error",  "attempts", "latency_s", "gflops", "cost_s"};
  constexpr std::size_t kNumKeys = std::size(kKeys);
  const json::Node* f[kNumKeys] = {};
  std::size_t k = 0;
  for (const json::Node& m : doc.root().children()) {
    if (k == 0 && m.key != kKeys[0]) k = 1;  // no "fpv"
    if (k == kNumKeys || m.key != kKeys[k]) return false;
    f[k++] = &m;
  }
  if (k != kNumKeys) return false;

  const bool have_fpv = f[0] != nullptr;
  std::uint64_t fpv = 0, reason = 0, error_code = 0, attempts = 0;
  if (have_fpv && !f[0]->to_u64(fpv)) return false;
  if (!hex_fp(*f[1], key.task_fp) || !hex_fp(*f[2], key.hw_fp)) return false;
  if (f[3]->kind != json::Kind::kArray) return false;
  key.config.clear();
  key.config.reserve(f[3]->count);
  for (const json::Node& e : f[3]->children()) {
    std::uint64_t v;
    if (!e.to_u64(v) || v > 0xffffffffULL) return false;
    key.config.push_back(static_cast<std::uint32_t>(v));
  }
  if (f[4]->kind != json::Kind::kBool) return false;
  if (!f[5]->to_u64(reason) || !f[6]->to_u64(error_code) || !f[7]->to_u64(attempts))
    return false;
  if (!f[8]->is_number() || !f[9]->is_number() || !f[10]->is_number()) return false;

  r.valid = f[4]->b;
  r.reason = static_cast<gpusim::InvalidReason>(reason);
  r.error = static_cast<gpusim::MeasureError>(error_code);
  r.attempts = static_cast<int>(attempts);
  r.latency_s = f[8]->d;
  r.gflops = f[9]->d;
  r.cost_s = f[10]->d;

  // Semantic validation: the payload must be a result this codebase could
  // have produced. Anything else is stale — parseable, but not servable.
  // A missing or foreign "fpv" is stale for the same reason: the line's
  // fingerprints came from different math than the ones we look up with.
  stale = !have_fpv || fpv != kCacheLineFpVersion ||
          reason > static_cast<std::uint64_t>(
                       gpusim::InvalidReason::kTensorCoreUnavailable) ||
          error_code != 0 ||  // only settled results are ever written
          attempts < 1 || attempts > 1000 || key.config.empty() ||
          !std::isfinite(r.cost_s) || r.cost_s < 0.0 ||
          !std::isfinite(r.latency_s) || !std::isfinite(r.gflops) ||
          (r.valid && (r.latency_s <= 0.0 || r.gflops <= 0.0)) ||
          (!r.valid && (r.latency_s != 0.0 || r.gflops != 0.0));
  return true;
}

}  // namespace

// Declared in the header (warm-start reads tier lines directly); the writer
// above stays file-local so every line flows through the cache.
bool parse_cache_line(const std::string& line, CacheKey& key,
                      gpusim::MeasureResult& r, bool& stale) {
  json::Document doc;
  return parse_tier_line(doc, line, key, r, stale);
}

std::vector<std::filesystem::path> tier_files(const std::string& dir) {
  std::vector<std::filesystem::path> tiers;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() >= 12 && name.starts_with("tier-") && name.ends_with(".jsonl"))
      tiers.push_back(it->path());
  }
  std::sort(tiers.begin(), tiers.end());
  return tiers;
}

std::uint64_t task_fingerprint(const searchspace::Task& task) {
  std::uint64_t h = fnv1a(task.name());
  h = hash_combine(h, static_cast<std::uint64_t>(task.kind()));
  const auto& space = task.space();
  h = hash_combine(h, space.num_knobs());
  for (std::size_t k = 0; k < space.num_knobs(); ++k)
    h = hash_combine(h, space.knob(k).num_options());
  h = hash_combine(h, std::bit_cast<std::uint64_t>(task.flops()));
  return h;
}

std::uint64_t hardware_fingerprint(const hwspec::GpuSpec& hw) {
  std::uint64_t h = fnv1a(hw.name);
  linalg::Vector f = hw.to_features();
  h = hash_combine(h, f.size());
  for (double v : f) h = hash_combine(h, std::bit_cast<std::uint64_t>(v));
  // The per-device quirk identity. The simulator's quirk factor is keyed off
  // hw.seed(), so two boards with identical datasheets but different quirk
  // seeds measure different costs — they must never share cache entries.
  // (Scheme version kCacheLineFpVersion = 3 — v3 added the tensor-core
  // datasheet fields to to_features(); bump it if this changes again.)
  h = hash_combine(h, hw.seed());
  return h;
}

bool ResultCache::cacheable(const gpusim::MeasureResult& r) {
  return r.error == gpusim::MeasureError::kNone;
}

ResultCache::ResultCache(ResultCacheOptions options) : options_(std::move(options)) {
  GLIMPSE_CHECK(options_.capacity >= 1);
  if (!options_.path.empty()) {
    load_disk_tier();
    appender_.open(options_.path, std::ios::app);
    if (!appender_.good())
      LOG_WARN << "result cache: cannot append to " << options_.path
               << "; running memory-only";
  }
  // Fleet mode: adopt whatever the peer shards measured before this one
  // started (a restarted shard comes back warm from the whole fleet).
  sync_peers();
}

ResultCache::~ResultCache() {
  if (appender_.is_open()) appender_.flush();
}

bool ResultCache::lookup(const CacheKey& key, gpusim::MeasureResult& out) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.miss").add(1);
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  out = it->second->result;
  ++stats_.hits;
  if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.hit").add(1);
  return true;
}

void ResultCache::insert(const CacheKey& key, const gpusim::MeasureResult& r) {
  if (!cacheable(r)) return;
  std::lock_guard<std::mutex> lock(mu_);
  insert_locked(key, r, /*persist=*/true);
}

void ResultCache::insert_locked(const CacheKey& key, const gpusim::MeasureResult& r,
                                bool persist) {
  if (index_.contains(key)) return;  // deterministic: first entry is the truth
  lru_.push_front(Entry{key, r});
  index_.emplace(key, lru_.begin());
  ++stats_.inserts;
  if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.insert").add(1);
  if (persist && appender_.is_open()) {
    append_line(key, r);
    appender_.flush();
  }
  while (index_.size() > options_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
    if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.evict").add(1);
  }
}

void ResultCache::append_line(const CacheKey& key, const gpusim::MeasureResult& r) {
  write_cache_line(appender_, key, r);
}

void ResultCache::load_disk_tier() {
  std::ifstream is(options_.path);
  if (!is.good()) return;  // no file yet: an empty cache, not an error
  std::string line;
  json::Document doc;
  std::lock_guard<std::mutex> lock(mu_);
  while (std::getline(is, line))
    if (!line.empty() && adopt_line_locked(doc, line)) ++stats_.loaded;
}

bool ResultCache::adopt_line_locked(json::Document& doc, const std::string& line) {
  CacheKey key;
  gpusim::MeasureResult r;
  bool stale = false;
  if (!parse_tier_line(doc, line, key, r, stale)) {
    ++stats_.rejected_lines;
    if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.rejected_line").add(1);
    return false;
  }
  if (stale) {
    ++stats_.stale;
    if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.stale").add(1);
    return false;
  }
  const std::size_t before = index_.size();
  insert_locked(key, r, /*persist=*/false);
  if (index_.size() == before) return false;
  --stats_.inserts;  // loads and adoptions are not new inserts
  return true;
}

std::size_t ResultCache::sync_peers() {
  if (options_.shared_dir.empty()) return 0;
  namespace fs = std::filesystem;
  // Enumerate before locking; sorted so merge order (and hence LRU order
  // for fresh peer entries) never depends on directory iteration order.
  std::vector<fs::path> peers = tier_files(options_.shared_dir);
  const fs::path own = fs::path(options_.path).filename();
  std::erase_if(peers, [&](const fs::path& p) { return p.filename() == own; });

  std::size_t adopted = 0;
  json::Document doc;
  std::lock_guard<std::mutex> lock(mu_);
  for (const fs::path& peer : peers) {
    std::ifstream is(peer, std::ios::binary);
    if (!is.good()) continue;  // peer vanished between listing and open
    std::uint64_t& off = peer_offsets_[peer.string()];
    is.seekg(0, std::ios::end);
    const std::streamoff file_size = is.tellg();
    if (file_size < 0) continue;
    // A peer file shorter than what we consumed was replaced or truncated
    // underneath us: re-read it from the start.
    if (static_cast<std::uint64_t>(file_size) < off) off = 0;
    if (static_cast<std::uint64_t>(file_size) == off) continue;
    is.seekg(static_cast<std::streamoff>(off));
    std::string chunk((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
    // Consume only newline-terminated lines: the peer may be mid-append,
    // and its final partial line must be re-read whole next sync.
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = chunk.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = chunk.substr(start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      ++stats_.peer_lines_parsed;
      // Memory-only: peer entries are never appended to our own tier, so
      // two shards syncing each other never ping-pong the same entry
      // through their append logs.
      if (adopt_line_locked(doc, line)) {
        ++stats_.peer_merged;
        ++adopted;
        if (telemetry::metrics_enabled()) GLIMPSE_COUNTER("cache.peer_merged").add(1);
      }
    }
    off += start;
  }
  return adopted;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

ResultCacheStats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace glimpse::tuning
