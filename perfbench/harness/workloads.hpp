// The benchmark's three workloads. Each runs in this process, drives the
// program only through its public APIs, and reports end-to-end and
// per-layer numbers plus the outcome of its output checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Trace mode: half the measuring time runs with the program's telemetry
  /// (spans + metrics) switched on; the other half runs without it.
  bool trace = false;
  /// Scratch directory inside the checkout (spool, cache tier, socket).
  std::string work_dir;
};

struct RunReport {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  std::uint64_t attempted = 0;  ///< jobs handed in, over every pass
  std::uint64_t failed = 0;     ///< jobs rejected, failed or wrong
  std::vector<std::string> errors;  ///< one line per failed check
  std::vector<std::string> notes;   ///< human-readable detail (per-pass times)
  std::uint64_t digest = 0;         ///< decisions digest (identical every pass)
  std::size_t passes = 0;
  std::size_t traced_passes = 0;
  std::size_t latency_samples = 0;
};

RunReport run_workload(const RunOptions& options);

/// Decorator self-test: the same small schedule with and without the timing
/// decorators, at pool widths 1 and 4, checkpointing and warm-started, must
/// give one digest. Returns the failures (empty = pass).
std::vector<std::string> decorator_selftest(const std::string& work_dir);

}  // namespace perfbench
