// Measurement harness: the stand-in for TVM's RPC measurement of real GPUs.
//
// Adds reproducible measurement noise on top of the analytical model and
// accounts simulated wall-clock cost per measurement (compile + repeats +
// RPC overhead), which is what the paper's "GPU hours" / search-time numbers
// are made of. Noise is seeded from (task, hardware, config) so a given
// measurement is reproducible regardless of issue order.
//
// `Measurer` is the abstract seam production tuning needs: real measurement
// is an unreliable RPC, so decorators (gpusim/faulty_measurer.hpp) can
// inject failures, and the retry pipeline (tuning/measure.hpp) and the
// session checkpointer talk only to this interface.
#pragma once

#include <cstdint>
#include <limits>

#include "common/serialize.hpp"
#include "gpusim/perf_model.hpp"

namespace glimpse::gpusim {

/// Measurement-infrastructure failure classification, as opposed to
/// `InvalidReason` which classifies *configurations* the model rejects.
/// A result with error != kNone never counts as an invalid config.
enum class MeasureError : unsigned char {
  kNone = 0,    ///< measurement completed (result may still be model-invalid)
  kTransient,   ///< worker crashed / RPC dropped mid-flight; retryable
  kTimeout,     ///< the attempt exceeded the per-trial timeout
  kCorrupt,     ///< result came back implausible (garbled payload)
};
const char* to_string(MeasureError e);

struct MeasureResult {
  bool valid = false;
  InvalidReason reason = InvalidReason::kNone;
  MeasureError error = MeasureError::kNone;  ///< infrastructure failure kind
  int attempts = 1;        ///< measurement attempts consumed (retry pipeline)
  double latency_s = 0.0;  ///< mean measured latency (with noise); 0 if invalid
  double gflops = 0.0;     ///< 0 if invalid
  double cost_s = 0.0;     ///< simulated wall-clock cost of this measurement
};

/// SimMeasurer's simulated costs and noise.
inline constexpr int kMeasureRepeats = 10;        ///< timed runs per measurement
inline constexpr double kCompileS = 1.4;          ///< host compilation time
inline constexpr double kRpcOverheadS = 0.6;      ///< upload + session overhead
inline constexpr double kCompileTimeoutS = 10.0;  ///< cost charged when nvcc times out
inline constexpr double kNoiseSigma = 0.03;       ///< lognormal measurement noise

/// Abstract measurement backend. Implementations must be deterministic in
/// their inputs plus their restored state so a checkpointed session resumes
/// bit-identically (see tuning/checkpoint.hpp).
class Measurer {
 public:
  virtual ~Measurer() = default;

  /// Measure one configuration. `timeout_s` is the per-attempt simulated
  /// timeout: an attempt whose cost would exceed it is cut off and returned
  /// as MeasureError::kTimeout with exactly `timeout_s` charged.
  virtual MeasureResult measure(const searchspace::Task& task,
                                const hwspec::GpuSpec& hw,
                                const searchspace::Config& config,
                                double timeout_s) = 0;
  MeasureResult measure(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                        const searchspace::Config& config) {
    return measure(task, hw, config, std::numeric_limits<double>::infinity());
  }

  /// Total simulated seconds spent so far (measurements + charged waits).
  virtual double elapsed_seconds() const = 0;
  /// Charge extra simulated wall-clock (retry backoff waits, etc.).
  virtual void add_cost(double seconds) = 0;

  /// Persist / restore accounting state for crash-safe session checkpoints.
  virtual void save_state(TextWriter& w) const = 0;
  virtual void load_state(TextReader& r) = 0;
};

class SimMeasurer : public Measurer {
 public:
  using Measurer::measure;
  MeasureResult measure(const searchspace::Task& task, const hwspec::GpuSpec& hw,
                        const searchspace::Config& config, double timeout_s) override;

  /// Total simulated seconds spent measuring so far.
  double elapsed_seconds() const override { return elapsed_s_; }
  std::size_t num_measurements() const { return num_measurements_; }
  std::size_t num_invalid() const { return num_invalid_; }

  void add_cost(double seconds) override { elapsed_s_ += seconds; }

  void save_state(TextWriter& w) const override;
  void load_state(TextReader& r) override;

 private:
  double elapsed_s_ = 0.0;
  std::size_t num_measurements_ = 0;
  std::size_t num_invalid_ = 0;
};

}  // namespace glimpse::gpusim
