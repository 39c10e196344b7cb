#include "common/parallel.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace glimpse {

namespace detail {
std::atomic<std::size_t> pool_width_cache{0};
}  // namespace detail

namespace {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t n) {
    workers_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  std::size_t size() const { return workers_.size(); }

  void submit(std::function<void()> job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
  }

 private:
  void worker_loop() {
    detail::pool_depth = 1;
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
        if (stop_ && jobs_.empty()) return;
        job = std::move(jobs_.front());
        jobs_.pop_front();
      }
      job();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> jobs_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

std::size_t default_num_threads() {
  if (const char* env = std::getenv("GLIMPSE_NUM_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1) return static_cast<std::size_t>(v);
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc ? hc : 1;
}

std::mutex g_pool_mu;
std::shared_ptr<ThreadPool> g_pool;

/// Pool handle (nullptr when width <= 1). shared_ptr keeps a pool alive
/// for loops that grabbed it before a concurrent set_num_threads.
std::shared_ptr<ThreadPool> acquire_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (detail::pool_width_cache.load(std::memory_order_relaxed) == 0) {
    std::size_t w = default_num_threads();
    if (w > 1) g_pool = std::make_shared<ThreadPool>(w - 1);
    detail::pool_width_cache.store(w, std::memory_order_release);
  }
  return g_pool;
}

}  // namespace

namespace detail {

std::size_t resolve_pool_width() {
  acquire_pool();
  return pool_width_cache.load(std::memory_order_acquire);
}

void run_on_pool(std::size_t n, const std::function<void(std::size_t)>& body) {
  std::shared_ptr<ThreadPool> pool = acquire_pool();
  const std::size_t width = pool_width_cache.load(std::memory_order_acquire);

  if (!pool || width <= 1) {  // pool was resized away under our feet
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  struct Shared {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors;
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::size_t helpers_done = 0;
  };
  Shared shared;
  shared.errors.resize(n);

  auto run_indices = [&] {
    for (;;) {
      if (shared.failed.load(std::memory_order_relaxed)) return;
      std::size_t i = shared.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        body(i);
      } catch (...) {
        shared.errors[i] = std::current_exception();
        shared.failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  const std::size_t helpers = std::min(width, n) - 1;
  for (std::size_t h = 0; h < helpers; ++h) {
    pool->submit([&] {
      run_indices();
      std::lock_guard<std::mutex> lock(shared.done_mu);
      ++shared.helpers_done;
      shared.done_cv.notify_one();
    });
  }
  // The calling thread participates instead of blocking idle. Nested
  // parallel_for calls made by `body` on this thread degrade to serial.
  ++pool_depth;
  run_indices();
  --pool_depth;
  {
    std::unique_lock<std::mutex> lock(shared.done_mu);
    shared.done_cv.wait(lock, [&] { return shared.helpers_done == helpers; });
  }

  // Rethrow the lowest index's exception — the one a serial ascending run
  // would have surfaced first.
  for (std::size_t i = 0; i < n; ++i)
    if (shared.errors[i]) std::rethrow_exception(shared.errors[i]);
}

}  // namespace detail

std::size_t num_threads() { return detail::pool_width(); }

void set_num_threads(std::size_t n) {
  std::shared_ptr<ThreadPool> old;
  {
    std::lock_guard<std::mutex> lock(g_pool_mu);
    old = std::move(g_pool);
    g_pool.reset();
    std::size_t w = n ? n : default_num_threads();
    if (w > 1) g_pool = std::make_shared<ThreadPool>(w - 1);
    detail::pool_width_cache.store(w, std::memory_order_release);
  }
  // Old workers join outside the lock.
}

}  // namespace glimpse
