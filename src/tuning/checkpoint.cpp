#include "tuning/checkpoint.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>


namespace glimpse::tuning {

namespace {

constexpr const char* kMagic = "glimpse_checkpoint_v1";

}  // namespace

std::string checkpoint_word(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (std::isspace(static_cast<unsigned char>(c))) c = '_';
  return out.empty() ? std::string("-") : out;
}

namespace {

void write_trial(TextWriter& w, const TrialRecord& t) {
  write_config(w, t.config);
  write_result(w, t.result);
  w.scalar_u(t.step);
  w.scalar(t.elapsed_s);
}

TrialRecord read_trial(TextReader& r) {
  TrialRecord t;
  t.config = read_config(r);
  t.result = read_result(r);
  t.step = r.scalar_u();
  t.elapsed_s = r.scalar();
  return t;
}

}  // namespace

void save_checkpoint(const std::string& path, const SessionCheckpoint& state,
                     const Tuner& tuner, const gpusim::Measurer& measurer) {
  if (!tuner.checkpointable())
    throw std::runtime_error("save_checkpoint: tuner '" + tuner.name() +
                             "' is not checkpointable");
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os.good())
      throw std::runtime_error("save_checkpoint: cannot open " + tmp);
    TextWriter w(os);
    w.tag(kMagic);
    w.text(checkpoint_word(tuner.name()));
    w.text(checkpoint_word(state.task_name));
    w.text(checkpoint_word(state.hw_name));
    w.scalar_u(state.step);
    w.scalar(state.session_start_s);
    w.scalar(state.plateau_best);
    w.scalar_u(state.trials_since_improvement);
    w.scalar_u(state.trace.trials.size());
    for (const TrialRecord& t : state.trace.trials) write_trial(w, t);
    measurer.save_state(w);
    tuner.save(w);
    w.tag("end");
    os.flush();
    if (!os.good())
      throw std::runtime_error("save_checkpoint: write failed for " + tmp);
  }
  // POSIX rename is atomic: readers see either the old or the new snapshot,
  // never a torn one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("save_checkpoint: rename to " + path + " failed");
}

void load_checkpoint(const std::string& path, SessionCheckpoint& state, Tuner& tuner,
                     gpusim::Measurer& measurer) {
  std::ifstream is(path);
  if (!is.good()) throw std::runtime_error("load_checkpoint: cannot open " + path);
  TextReader r(is);
  r.expect(kMagic);
  std::string tuner_name = r.text();
  if (tuner_name != checkpoint_word(tuner.name()))
    throw std::runtime_error("load_checkpoint: snapshot is for tuner '" + tuner_name +
                             "', got '" + tuner.name() + "'");
  state.tuner_name = tuner_name;
  state.task_name = r.text();
  state.hw_name = r.text();
  state.step = r.scalar_u();
  state.session_start_s = r.scalar();
  state.plateau_best = r.scalar();
  state.trials_since_improvement = r.scalar_u();
  std::size_t n = r.scalar_u();
  state.trace.trials.clear();
  for (std::size_t i = 0; i < n; ++i) state.trace.trials.push_back(read_trial(r));
  measurer.load_state(r);
  tuner.load(r);
  r.expect("end");
}

}  // namespace glimpse::tuning
