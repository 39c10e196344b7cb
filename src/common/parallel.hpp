// Deterministic thread-pool parallelism for the library's outermost loops.
//
// A single lazily-initialized global pool (size from GLIMPSE_NUM_THREADS,
// default std::thread::hardware_concurrency) runs parallel_for(n, fn): one
// task per index i in [0, n). Callers are the scheduler's plan and measure
// phases and the bench harnesses' grids; everything below them is serial.
// Determinism contract: fn(i) writes only to index i's own output slots, so
// serial and parallel runs produce bit-identical results. Loops that need
// randomness derive one independent stream per index with
// Rng::fork(seed, i) instead of sharing a sequential stream.
//
// Exception contract: if any index throws, the loop drains (no new index
// starts), and the exception of the lowest throwing index is rethrown —
// the same exception a serial ascending run would surface.
//
// Nested parallel_for calls (from inside a worker, or from a caller already
// running a loop) run serially on the calling thread; they cannot deadlock
// the pool.
//
// Fast path: parallel_for is a template, so when n == 1, the pool has one
// thread, or the call is nested, fn runs inlined on the calling thread — no
// std::function allocation, no queue or condition-variable traffic, no
// mutex. Only genuinely parallel calls pay the dispatch cost of handing
// indices to the pool.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

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

/// Parallel slow path: claim indices 0..n-1 across the pool, calling
/// body(i) for each. The caller participates; exceptions follow the
/// lowest-index-wins contract.
void run_on_pool(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace detail

/// Width of the global pool (>= 1). First call initializes the pool from
/// GLIMPSE_NUM_THREADS (default: hardware_concurrency).
std::size_t num_threads();

/// Resize the global pool (0 = re-read env / hardware default). Joins the
/// old workers; must not race with in-flight parallel loops. Benches and
/// tests use this to compare serial vs parallel runs in one process.
void set_num_threads(std::size_t n);

/// Execute fn(i) for each i in [0, n), one index per task. Indices may run
/// on any thread in any order. Runs inline on the calling thread, in
/// ascending order, when n == 1, the pool has one thread, or the call is
/// nested.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  if (n == 0) return;
  if (n == 1 || detail::pool_depth > 0 || detail::pool_width() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  detail::run_on_pool(
      n, std::function<void(std::size_t)>([&fn](std::size_t i) { fn(i); }));
}

}  // namespace glimpse
