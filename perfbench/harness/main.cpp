// perfbench_harness: runs one benchmark workload in-process and prints its
// report as one JSON line (the last line of stdout). perfbench/run.py builds
// this binary, pins its environment, and turns the report into the
// benchmark's result line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    --work-dir <dir>
//   perfbench_harness --selftest --work-dir <dir>
//
// Exit codes: 0 report printed (its "correct" field says whether the
// output checks passed), 2 usage or refused environment/build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/json_writer.hpp"
#include "common/parallel.hpp"
#include "common/strutil.hpp"
#include "linalg/simd.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr const char* kSanitizer = "enabled";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr const char* kSanitizer = "enabled";
#else
constexpr const char* kSanitizer = "none";
#endif
#else
constexpr const char* kSanitizer = "none";
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/// glibc malloc arenas the process may use. By default glibc makes up to
/// eight per core, and which threads share one depends on thread timing, so
/// peak RSS swung by up to 50 % between runs of the same inputs on
/// service_mix. One arena per pool thread keeps it a property of the program.
constexpr int kMallocArenas = 4;

int usage(const char* msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", msg);
  return 2;
}

/// Variables that change the program's path. The end-to-end runs must see
/// none of them; trace runs may carry GLIMPSE_TRACE / GLIMPSE_METRICS.
std::string forbidden_env(bool trace) {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    const std::string name = kv.substr(0, kv.find('='));
    if (name == "GLIMPSE_RESULT_CACHE" || name == "GLIMPSE_SCHED_SLOTS" ||
        name == "GLIMPSE_SIMD" || name.rfind("GLIMPSE_FAULT_", 0) == 0)
      return name;
    if (!trace && (name == "GLIMPSE_TRACE" || name == "GLIMPSE_METRICS")) return name;
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  mallopt(M_ARENA_MAX, kMallocArenas);
#endif
  perfbench::RunOptions o;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (a == "--workload") o.workload = next();
    else if (a == "--seed") o.seed = std::strtoull(next().c_str(), nullptr, 10);
    else if (a == "--seconds") o.seconds = std::strtod(next().c_str(), nullptr);
    else if (a == "--trace") o.trace = next() == "1";
    else if (a == "--work-dir") o.work_dir = next();
    else if (a == "--selftest") selftest = true;
    else return usage(("unknown argument " + a).c_str());
  }
  if (o.work_dir.empty()) return usage("--work-dir is required");

  if (!kOptimized || std::strcmp(kSanitizer, "none") != 0)
    return usage("refusing to report from an unoptimized or sanitizer build");
  const std::string bad_env = forbidden_env(o.trace);
  if (!bad_env.empty()) return usage(("environment sets " + bad_env).c_str());
  if (glimpse::num_threads() != 4) return usage("pool width must be 4 (GLIMPSE_NUM_THREADS)");

  if (selftest) {
    std::vector<std::string> failures;
    try {
      failures = perfbench::decorator_selftest(o.work_dir);
    } catch (const std::exception& e) {
      failures.push_back(std::string("selftest threw: ") + e.what());
    }
    for (const auto& f : failures) std::printf("%s\n", f.c_str());
    std::printf("{\"selftest\": %s}\n", failures.empty() ? "true" : "false");
    return 0;
  }
  if (o.seconds <= 0.0) return usage("--seconds must be positive");

  perfbench::RunReport rep;
  std::vector<std::string> errors;
  try {
    rep = perfbench::run_workload(o);
    errors = rep.errors;
  } catch (const std::exception& e) {
    errors.push_back(std::string("workload threw: ") + e.what());
  }

  for (const auto& n : rep.notes) std::printf("%s\n", n.c_str());
  for (const auto& e : errors) std::printf("check failed: %s\n", e.c_str());
  std::printf("%s: digest %016llx over %zu pass(es), %zu traced; latency samples %zu\n",
              o.workload.c_str(), static_cast<unsigned long long>(rep.digest), rep.passes,
              rep.traced_passes, rep.latency_samples);

  std::ostringstream os;
  {
    glimpse::JsonWriter w(os, /*indent=*/0);
    w.begin_object();
    w.kv("correct", errors.empty() && rep.failed == 0 && rep.attempted > 0);
    w.kv("attempted", rep.attempted);
    w.kv("failed", rep.failed);
    w.kv("digest", glimpse::strformat("%016llx", static_cast<unsigned long long>(rep.digest)));
    w.kv("passes", static_cast<std::uint64_t>(rep.passes));
    w.kv("traced_passes", static_cast<std::uint64_t>(rep.traced_passes));
    w.key("env").begin_object();
    w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("pool_width", static_cast<std::uint64_t>(glimpse::num_threads()));
    w.kv("slots", std::uint64_t{4});
    w.kv("build_type", PERFBENCH_BUILD_TYPE);
    w.kv("simd", glimpse::linalg::simd_compiled() && glimpse::linalg::simd_enabled());
    w.kv("sanitizer", kSanitizer);
#ifdef __GLIBC__
    w.kv("malloc_arenas", static_cast<std::uint64_t>(kMallocArenas));
#endif
    w.end_object();
    w.key("end_to_end").begin_object();
    for (const auto& [k, v] : rep.end_to_end) w.kv(k, v);
    w.end_object();
    w.key("per_layer").begin_object();
    for (const auto& [k, v] : rep.per_layer) w.kv(k, v);
    w.end_object();
    w.end_object();
  }
  std::printf("%s\n", os.str().c_str());
  return 0;
}
