// Crash-safe session checkpoint/resume: one append-only journal per job.
//
// Every tuner is a propose -> measure -> update loop whose state is a
// function of its seed and the results fed back, so the measured history is
// a complete checkpoint. The journal at `checkpoint_path` holds one record
// per line:
//  * a header: tuner, task and hardware names, the session's start clock,
//    and the warm-start seeds the session actually applied;
//  * one record per batch: the `n` the scheduler passed to propose(), the
//    batch's trials, and the measurer's state after the batch.
// Each line ends in an FNV-1a checksum of its payload. The writer keeps the
// file open for the job's life and flushes every record.
//
// Resume (Scheduler::add_job) rebuilds the tuner from its seed and replays:
// propose(n) must return the journaled configs, then update() takes the
// journaled results. Every resume is therefore also a determinism check, and
// the remaining trace is bit-identical to the uninterrupted run at any
// GLIMPSE_NUM_THREADS.
//
// A crash mid-append leaves a last line without its newline: that torn
// record is dropped on read and truncated away before the next append. A
// whole line that fails its checksum or does not parse is corruption and is
// rejected, never trusted.
#pragma once

#include <string>
#include <vector>

#include "tuning/session.hpp"

namespace glimpse::tuning {

/// What a session started from: checked and applied before any replay.
struct JournalHeader {
  std::string tuner_name;  ///< checkpoint_word-encoded, like task and hw
  std::string task_name;
  std::string hw_name;
  double session_start_s = 0.0;  ///< measurer clock when the session began
  std::vector<Config> warm_configs;
  std::vector<double> warm_scores;
};

/// One measured batch.
struct JournalBatch {
  std::size_t n = 0;  ///< the argument propose() was called with
  std::vector<Config> configs;
  std::vector<MeasureResult> results;
  std::vector<double> elapsed_s;  ///< per trial, as in TrialRecord
  std::string measurer_state;     ///< Measurer::save_state tokens after the batch
};

struct Journal {
  /// False when not even the header is whole (a crash during the first
  /// append): the session starts fresh.
  bool has_header = false;
  JournalHeader header;
  std::vector<JournalBatch> batches;
  std::string whole;  ///< the file's bytes up to the end of the last whole record
};

/// Read the journal at `path`, dropping a torn last record. Throws
/// std::runtime_error when the file cannot be opened or a whole record is
/// corrupt.
Journal read_journal(const std::string& path);

/// One journal line, terminator included: the header, or a batch whose
/// trials are `trace.trials[first..]`.
std::string journal_header_line(const JournalHeader& header);
std::string journal_batch_line(std::size_t n, const Trace& trace, std::size_t first,
                               const gpusim::Measurer& measurer);

/// Whitespace-free encoding used for name fields inside journals (the
/// token format cannot carry spaces); compare names through this.
std::string checkpoint_word(const std::string& name);

}  // namespace glimpse::tuning
