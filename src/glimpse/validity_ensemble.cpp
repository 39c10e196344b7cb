#include "glimpse/validity_ensemble.hpp"

#include <cmath>
#include <iterator>
#include <limits>

#include "common/logging.hpp"
#include "common/telemetry/telemetry.hpp"
#include "gpusim/resource_model.hpp"

namespace glimpse::core {

namespace {

/// Ridge regularization of each ensemble member (member count = list size).
constexpr double kRidgeLambdas[] = {1e-4, 1e-2, 0.3};

/// Per-dimension rejection counters in ResourceDim order, all looked up on
/// the first rejection.
telemetry::Counter& dim_reject_counter(std::size_t dim) {
  static telemetry::Counter* const counters[] = {
      &GLIMPSE_COUNTER("validity.reject.threads_per_block"),
      &GLIMPSE_COUNTER("validity.reject.shared_bytes"),
      &GLIMPSE_COUNTER("validity.reject.regs_per_thread"),
      &GLIMPSE_COUNTER("validity.reject.vthreads"),
      &GLIMPSE_COUNTER("validity.reject.unrolled_body"),
      &GLIMPSE_COUNTER("validity.reject.regs_per_block")};
  static_assert(std::size(counters) == kNumResourceDims);
  return *counters[dim];
}

/// Datasheet limit of a resource dimension for one GPU.
double limit_of(ResourceDim dim, const hwspec::GpuSpec& g) {
  switch (dim) {
    case ResourceDim::kThreadsPerBlock: return g.max_threads_per_block;
    case ResourceDim::kSharedBytes: return g.max_shared_mem_per_block_kb * 1024.0;
    case ResourceDim::kRegsPerThread: return g.max_registers_per_thread;
    case ResourceDim::kVThreads: return static_cast<double>(gpusim::kMaxVThreads);
    case ResourceDim::kUnrolledBody:
      return static_cast<double>(gpusim::kUnrollBlowupLimit);
    case ResourceDim::kRegsPerBlock: return g.registers_per_sm;
    case ResourceDim::kCount: break;
  }
  throw std::logic_error("bad ResourceDim");
}

/// Ridge regression in log space: solve (X^T X + lambda I) w = X^T log(y).
linalg::Vector ridge_fit(const linalg::Matrix& x, const linalg::Vector& log_y,
                         double lambda) {
  std::size_t d = x.cols();
  linalg::Matrix a(d, d);
  linalg::Vector b(d, 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    for (std::size_t i = 0; i < d; ++i) {
      b[i] += x(r, i) * log_y[r];
      for (std::size_t j = 0; j < d; ++j) a(i, j) += x(r, i) * x(r, j);
    }
  }
  for (std::size_t i = 0; i < d; ++i) a(i, i) += lambda;
  return linalg::solve(std::move(a), std::move(b));
}

linalg::Vector with_bias(std::span<const double> blueprint) {
  linalg::Vector x(blueprint.begin(), blueprint.end());
  x.push_back(1.0);
  return x;
}

}  // namespace

ValidityEnsemble::ValidityEnsemble(const BlueprintEncoder& encoder,
                                   const std::vector<const hwspec::GpuSpec*>& train_gpus,
                                   ValidityEnsembleOptions options)
    : tau_(options.tau), blueprint_dim_(encoder.dim()) {
  GLIMPSE_CHECK(train_gpus.size() >= 3) << "need several GPUs to fit thresholds";

  std::vector<linalg::Vector> rows;
  rows.reserve(train_gpus.size());
  for (const auto* g : train_gpus) rows.push_back(with_bias(encoder.encode(*g)));
  linalg::Matrix x = linalg::Matrix::from_rows(rows);

  for (std::size_t dim = 0; dim < kNumResourceDims; ++dim) {
    double lo = std::numeric_limits<double>::max();
    double hi = std::numeric_limits<double>::lowest();
    for (const auto* g : train_gpus) {
      double v = std::log(limit_of(static_cast<ResourceDim>(dim), *g));
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    // Physical limits evolve slowly across generations: allow modest
    // extrapolation beyond the training range, no more. This keeps the
    // predictors sane when the training population is homogeneous.
    log_clamp_lo_[dim] = lo - std::log(1.5);
    log_clamp_hi_[dim] = hi + std::log(1.5);
  }

  for (double lambda : kRidgeLambdas) {
    std::array<linalg::Vector, kNumResourceDims> member;
    for (std::size_t dim = 0; dim < kNumResourceDims; ++dim) {
      linalg::Vector log_y(train_gpus.size());
      for (std::size_t i = 0; i < train_gpus.size(); ++i)
        log_y[i] = std::log(limit_of(static_cast<ResourceDim>(dim), *train_gpus[i]));
      member[dim] = ridge_fit(x, log_y, lambda);
    }
    weights_.push_back(std::move(member));
  }
}

std::vector<ValidityEnsemble::Thresholds> ValidityEnsemble::thresholds_for(
    std::span<const double> blueprint) const {
  GLIMPSE_CHECK(blueprint.size() == blueprint_dim_);
  linalg::Vector x = with_bias(blueprint);
  std::vector<Thresholds> out;
  out.reserve(weights_.size());
  for (const auto& member : weights_) {
    Thresholds t;
    for (std::size_t dim = 0; dim < kNumResourceDims; ++dim)
      t[dim] = std::exp(std::clamp(linalg::dot(member[dim], x), log_clamp_lo_[dim],
                                   log_clamp_hi_[dim]));
    out.push_back(t);
  }
  return out;
}

void ValidityEnsemble::save(TextWriter& w) const {
  w.tag("validity_ensemble");
  w.scalar(tau_);
  w.scalar_u(blueprint_dim_);
  w.scalar_u(weights_.size());
  for (const auto& member : weights_)
    for (const auto& dim_weights : member) w.vector(dim_weights);
  w.vector(std::span<const double>(log_clamp_lo_.data(), log_clamp_lo_.size()));
  w.vector(std::span<const double>(log_clamp_hi_.data(), log_clamp_hi_.size()));
}

ValidityEnsemble ValidityEnsemble::load(TextReader& r) {
  r.expect("validity_ensemble");
  ValidityEnsemble v;
  v.tau_ = r.scalar();
  v.blueprint_dim_ = r.scalar_u();
  std::size_t members = r.scalar_u();
  for (std::size_t m = 0; m < members; ++m) {
    std::array<linalg::Vector, kNumResourceDims> member;
    for (std::size_t d = 0; d < kNumResourceDims; ++d) member[d] = r.vector();
    v.weights_.push_back(std::move(member));
  }
  linalg::Vector lo = r.vector();
  linalg::Vector hi = r.vector();
  GLIMPSE_CHECK(lo.size() == kNumResourceDims && hi.size() == kNumResourceDims);
  for (std::size_t d = 0; d < kNumResourceDims; ++d) {
    v.log_clamp_lo_[d] = lo[d];
    v.log_clamp_hi_[d] = hi[d];
  }
  return v;
}

bool ValidityEnsemble::accept(const searchspace::DerivedConfig& d,
                              const std::vector<Thresholds>& thresholds) const {
  GLIMPSE_CHECK(!thresholds.empty());
  double usage[kNumResourceDims] = {
      static_cast<double>(d.threads_per_block),
      d.shared_bytes,
      d.regs_per_thread,
      static_cast<double>(d.vthreads),
      d.unroll_step > 0 ? static_cast<double>(d.unrolled_body) : 0.0,
      std::ceil(d.regs_per_thread / 8.0) * 8.0 * static_cast<double>(d.threads_per_block),
  };
  double members = static_cast<double>(thresholds.size());
  if (!telemetry::metrics_enabled()) {
    for (std::size_t dim = 0; dim < kNumResourceDims; ++dim) {
      int invalid_votes = 0;
      for (const auto& t : thresholds)
        if (usage[dim] > t[dim]) ++invalid_votes;
      if (static_cast<double>(invalid_votes) / members > tau_) return false;
    }
    return true;
  }
  // Instrumented path: same verdict, but every dimension is scanned so each
  // flagged one is attributed (the paper's Fig. 7 breakdown, live). Extra
  // work only — no behavioural difference, and no Rng involved.
  static telemetry::Counter& accepts = GLIMPSE_COUNTER("validity.accepts");
  static telemetry::Counter& rejects = GLIMPSE_COUNTER("validity.rejects");
  bool accepted = true;
  for (std::size_t dim = 0; dim < kNumResourceDims; ++dim) {
    int invalid_votes = 0;
    for (const auto& t : thresholds)
      if (usage[dim] > t[dim]) ++invalid_votes;
    if (static_cast<double>(invalid_votes) / members > tau_) {
      dim_reject_counter(dim).add(1);
      accepted = false;
    }
  }
  (accepted ? accepts : rejects).add(1);
  return accepted;
}

bool ValidityEnsemble::accept(const searchspace::Task& task,
                              const searchspace::Config& config,
                              const std::vector<Thresholds>& thresholds) const {
  return accept(searchspace::derive(task, config), thresholds);
}

}  // namespace glimpse::core
