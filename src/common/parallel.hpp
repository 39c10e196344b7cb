// Deterministic thread-pool parallelism for the library's hot loops.
//
// A single lazily-initialized global pool (size from GLIMPSE_NUM_THREADS,
// default std::thread::hardware_concurrency) executes index ranges split
// into fixed-size chunks. Determinism contract: the chunk structure depends
// only on (begin, end, grain) — never on the thread count — and every chunk
// writes only to its own output slots, so serial and parallel runs produce
// bit-identical results. Loops that need randomness derive one independent
// stream per chunk with Rng::fork(seed, chunk_id) instead of sharing a
// sequential stream.
//
// Exception contract: if any chunk throws, the loop drains (no new chunks
// start), and the exception of the lowest-indexed throwing chunk is
// rethrown — the same exception a serial left-to-right run would surface.
//
// Nested parallel_for calls (from inside a worker) run serially on the
// calling worker; they cannot deadlock the pool.
//
// Fast path: the loop entry points are templates, so when the range fits a
// single chunk, the pool has one thread, or the call is nested, the body
// runs inlined on the calling thread — no std::function allocation, no
// queue or condition-variable traffic, no mutex. A 1-thread run therefore
// costs the same as a plain serial loop; only genuinely parallel calls pay
// the (one-time per loop) dispatch cost of handing chunks to the pool.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace glimpse {

namespace detail {

/// >0 while executing inside a pool worker or a caller participating in a
/// parallel loop (nested loops degrade to serial). Defined inline here, not
/// `extern` with a definition in parallel.cpp: other translation units then
/// read it directly instead of through the thread_local wrapper call that
/// UBSan reports as a null load.
inline thread_local int pool_depth = 0;

/// Cached pool width (0 = not yet resolved). Written under the pool mutex;
/// read lock-free on every loop entry.
extern std::atomic<std::size_t> pool_width_cache;

/// Slow path of pool_width(): resolves GLIMPSE_NUM_THREADS / hardware
/// default and builds the pool under the global mutex.
std::size_t resolve_pool_width();

/// Configured pool width without taking a lock (after first resolution).
inline std::size_t pool_width() {
  std::size_t w = pool_width_cache.load(std::memory_order_acquire);
  return w != 0 ? w : resolve_pool_width();
}

/// Parallel slow path: fan `num_chunks` chunks of `grain` indices across
/// the pool, calling body(chunk_begin, chunk_end, chunk_id). The caller
/// participates; exceptions follow the lowest-chunk-wins contract.
void run_chunks_on_pool(
    std::size_t begin, std::size_t end, std::size_t grain,
    std::size_t num_chunks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace detail

/// Width of the global pool (>= 1). First call initializes the pool from
/// GLIMPSE_NUM_THREADS (default: hardware_concurrency).
std::size_t num_threads();

/// Resize the global pool (0 = re-read env / hardware default). Joins the
/// old workers; must not race with in-flight parallel loops. Benches and
/// tests use this to compare serial vs parallel runs in one process.
void set_num_threads(std::size_t n);

/// True while executing inside a pool worker (nested loops run serially).
inline bool in_parallel_region() { return detail::pool_depth > 0; }

/// Execute `body(chunk_begin, chunk_end, chunk_id)` over [begin, end) split
/// into contiguous chunks of at most `grain` indices. Chunks may run on any
/// thread but the chunk structure is fixed, so deterministic bodies give
/// deterministic results. Runs inline on the calling thread (zero dispatch
/// cost) when the pool has one thread, the range fits in one chunk, or the
/// call is nested.
template <typename Body>
void parallel_for_chunks(std::size_t begin, std::size_t end, std::size_t grain,
                         Body&& body) {
  if (end <= begin) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t num_chunks = (n + grain - 1) / grain;
  if (num_chunks <= 1) {
    body(begin, end, std::size_t{0});
    return;
  }
  if (detail::pool_depth > 0 || detail::pool_width() <= 1) {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      std::size_t b = begin + c * grain;
      body(b, std::min(end, b + grain), c);
    }
    return;
  }
  detail::run_chunks_on_pool(
      begin, end, grain, num_chunks,
      std::function<void(std::size_t, std::size_t, std::size_t)>(
          [&body](std::size_t b, std::size_t e, std::size_t c) { body(b, e, c); }));
}

/// Element-wise form: `fn(i)` for each i in [begin, end), chunked by
/// `grain`. The per-index call is inlined into the chunk body — there is no
/// per-element indirection.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain, Fn&& fn) {
  parallel_for_chunks(begin, end, grain,
                      [&fn](std::size_t b, std::size_t e, std::size_t) {
                        for (std::size_t i = b; i < e; ++i) fn(i);
                      });
}

/// Map i -> fn(i) into a vector, preserving index order. The result type
/// must be default-constructible.
template <typename Fn>
auto parallel_map(std::size_t n, std::size_t grain, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  std::vector<decltype(fn(std::size_t{}))> out(n);
  parallel_for_chunks(0, n, grain,
                      [&](std::size_t b, std::size_t e, std::size_t) {
                        for (std::size_t i = b; i < e; ++i) out[i] = fn(i);
                      });
  return out;
}

}  // namespace glimpse
