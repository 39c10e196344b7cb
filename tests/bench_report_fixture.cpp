// Writes two bench reports through bench::Report for the checker round trip
// (tests/bench_report_roundtrip.cmake): BENCH_report_pass.json, whose gates
// hold or skip, and BENCH_report_fail.json, with one failing gate. Exits 0
// iff write() returns 0 for the first and 1 for the second.
#include <cstdint>
#include <string>

#include "bench_common.hpp"

int main() {
  using glimpse::bench::Report;
  using Op = Report::Op;
  Report pass("report_pass");
  pass.param("max_trials", std::uint64_t{64});
  pass.param("tuner", std::string("random"));
  pass.row({{"name", std::string("a")},
            {"trials", std::uint64_t{64}},
            {"wall_ms", 2.5},
            {"valid_frac", 0.5},
            {"identical", true}});
  pass.gate("speedup", 3.5, Op::kGe, 3.0, {.pool_threads = 1, .hardware_concurrency = 1});
  pass.gate("reduction_error", 0.0, Op::kLe, 0.05);
  pass.gate("completed", 48, Op::kEq, 48);
  pass.gate("needs_a_huge_pool", 0.0, Op::kGe, 1.0, {.pool_threads = 1u << 20});
  pass.check("identical", true);

  Report fail("report_fail");
  fail.gate("reduction", 1.5, Op::kGe, 2.0);
  fail.check("identical", true);
  return pass.write() == 0 && fail.write() == 1 ? 0 : 1;
}
