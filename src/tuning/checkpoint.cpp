#include "tuning/checkpoint.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/strutil.hpp"

namespace glimpse::tuning {

namespace {

constexpr const char* kMagic = "glimpse_journal_v1";

/// Seal a TextWriter payload into one line: newlines folded to spaces (the
/// writer ends vectors with one), then the checksum and the terminator.
std::string seal(std::string payload) {
  std::replace(payload.begin(), payload.end(), '\n', ' ');
  return payload + hex64(fnv1a(payload)) + '\n';
}

}  // namespace

std::string checkpoint_word(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (std::isspace(static_cast<unsigned char>(c))) c = '_';
  return out.empty() ? std::string("-") : out;
}

std::string journal_header_line(const JournalHeader& header) {
  std::ostringstream os;
  TextWriter w(os);
  w.tag(kMagic);
  w.text(header.tuner_name);
  w.text(header.task_name);
  w.text(header.hw_name);
  w.scalar(header.session_start_s);
  w.scalar_u(header.warm_configs.size());
  for (std::size_t i = 0; i < header.warm_configs.size(); ++i) {
    write_config(w, header.warm_configs[i]);
    w.scalar(header.warm_scores[i]);
  }
  return seal(os.str());
}

std::string journal_batch_line(std::size_t n, const Trace& trace, std::size_t first,
                               const gpusim::Measurer& measurer) {
  std::ostringstream os;
  TextWriter w(os);
  w.tag("batch");
  w.scalar_u(n);
  w.scalar_u(trace.trials.size() - first);
  for (std::size_t i = first; i < trace.trials.size(); ++i) {
    write_config(w, trace.trials[i].config);
    write_result(w, trace.trials[i].result);
    w.scalar(trace.trials[i].elapsed_s);
  }
  measurer.save_state(w);
  return seal(os.str());
}

Journal read_journal(const std::string& path) {
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) throw std::runtime_error("journal: cannot open " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    bytes = ss.str();
  }
  Journal j;
  std::size_t pos = 0;
  for (std::size_t end; (end = bytes.find('\n', pos)) != std::string::npos;
       pos = end + 1) {
    const std::string_view line(bytes.data() + pos, end - pos);
    const std::size_t cut = line.rfind(' ');
    if (cut == std::string_view::npos ||
        line.substr(cut + 1) != hex64(fnv1a(line.substr(0, cut + 1))))
      throw std::runtime_error("journal: corrupt record at byte " +
                               std::to_string(pos) + " of " + path);
    std::istringstream is{std::string(line.substr(0, cut + 1))};
    TextReader r(is);
    if (!j.has_header) {
      r.expect(kMagic);
      JournalHeader& h = j.header;
      h.tuner_name = r.text();
      h.task_name = r.text();
      h.hw_name = r.text();
      h.session_start_s = r.scalar();
      const std::size_t warm = r.scalar_u();
      for (std::size_t i = 0; i < warm; ++i) {
        h.warm_configs.push_back(read_config(r));
        h.warm_scores.push_back(r.scalar());
      }
      j.has_header = true;
      continue;
    }
    r.expect("batch");
    JournalBatch& b = j.batches.emplace_back();
    b.n = r.scalar_u();
    const std::size_t count = r.scalar_u();
    for (std::size_t i = 0; i < count; ++i) {
      b.configs.push_back(read_config(r));
      b.results.push_back(read_result(r));
      b.elapsed_s.push_back(r.scalar());
    }
    std::getline(is, b.measurer_state);  // the rest of the payload
  }
  // Whatever follows the last newline is a torn append: dropped here, and
  // truncated away before the next one.
  j.whole = bytes.substr(0, pos);
  return j;
}

}  // namespace glimpse::tuning
