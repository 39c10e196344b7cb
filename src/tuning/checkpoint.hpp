// Crash-safe session checkpoint/resume.
//
// After each batch the session writes `<path>`, the snapshot: session
// counters, the full trial log, the measurer's accounting, and the tuner's
// complete state (rng, visited set, history, surrogate weights + optimizer
// moments), in the TextWriter token format. Written atomically: the bytes
// go to `<path>.tmp` which is then renamed over `<path>`, so a crash
// mid-write leaves the previous snapshot intact.
//
// Determinism guarantee: all floating-point state round-trips through
// max_digits10 text (bit-exact), and Rng engines serialize their full
// internal state — so a session resumed from any snapshot produces the
// remaining trace bit-for-bit identical to the uninterrupted run, at any
// GLIMPSE_NUM_THREADS.
#pragma once

#include <string>

#include "tuning/session.hpp"

namespace glimpse::tuning {

/// Session-loop state that must survive a crash (everything in run_session
/// that is not owned by the tuner or the measurer).
struct SessionCheckpoint {
  std::string tuner_name;  ///< sanity-checked on resume
  std::string task_name;
  std::string hw_name;
  std::size_t step = 0;
  double session_start_s = 0.0;
  double plateau_best = 0.0;
  std::size_t trials_since_improvement = 0;
  Trace trace;
};

/// Atomically write `<path>` (tmp + rename). Throws on I/O failure or a
/// non-checkpointable tuner.
void save_checkpoint(const std::string& path, const SessionCheckpoint& state,
                     const Tuner& tuner, const gpusim::Measurer& measurer);

/// Restore a snapshot into `state`, `tuner`, and `measurer`. The tuner must
/// be freshly constructed with the same task/hardware/seed as the original.
/// Throws on malformed input or a tuner/task/hardware mismatch.
void load_checkpoint(const std::string& path, SessionCheckpoint& state, Tuner& tuner,
                     gpusim::Measurer& measurer);

/// Whitespace-free encoding used for name fields inside snapshots (the
/// token format cannot carry spaces); compare names through this.
std::string checkpoint_word(const std::string& name);

}  // namespace glimpse::tuning
