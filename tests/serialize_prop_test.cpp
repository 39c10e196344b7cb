// Property/fuzz tests for the persistence layer: TextWriter/TextReader
// round trips (including non-finite and denormal doubles), hostile-input
// behaviour (truncated and garbled streams must throw std::runtime_error,
// never crash or over-allocate), and JsonWriter well-formedness.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/json_writer.hpp"
#include "common/serialize.hpp"
#include "proptest_util.hpp"

namespace glimpse {
namespace {

using testing::any_double;
using testing::any_matrix;
using testing::any_string;
using testing::any_vector;
using testing::any_word;
using testing::garble;
using testing::json_valid;
using testing::last_token_start;
using testing::same_double;

// ---------- round trips ----------

TEST(SerializePropTest, ScalarRoundTripsAnyDouble) {
  CHECK_PROP(101, 200, [](Rng& rng) {
    std::stringstream ss;
    TextWriter w(ss);
    std::vector<double> vals;
    for (int i = 0; i < 16; ++i) vals.push_back(any_double(rng));
    for (double v : vals) w.scalar(v);
    TextReader r(ss);
    for (double v : vals)
      if (!same_double(r.scalar(), v)) return false;
    return true;
  });
}

TEST(SerializePropTest, VectorRoundTripsIncludingEmpty) {
  CHECK_PROP(102, 150, [](Rng& rng) {
    linalg::Vector v = any_vector(rng, 64);
    std::stringstream ss;
    TextWriter w(ss);
    w.vector(v);
    TextReader r(ss);
    linalg::Vector back = r.vector();
    if (back.size() != v.size()) return false;
    for (std::size_t i = 0; i < v.size(); ++i)
      if (!same_double(back[i], v[i])) return false;
    return true;
  });
}

TEST(SerializePropTest, MatrixRoundTripsIncludingDegenerateShapes) {
  CHECK_PROP(103, 150, [](Rng& rng) {
    linalg::Matrix m = any_matrix(rng, 12);  // hits 0xN, Nx0, and 0x0
    std::stringstream ss;
    TextWriter w(ss);
    w.matrix(m);
    TextReader r(ss);
    linalg::Matrix back = r.matrix();
    if (back.rows() != m.rows() || back.cols() != m.cols()) return false;
    auto a = m.data();
    auto b = back.data();
    for (std::size_t i = 0; i < a.size(); ++i)
      if (!same_double(b[i], a[i])) return false;
    return true;
  });
}

TEST(SerializePropTest, LongWordsRoundTrip) {
  CHECK_PROP(104, 100, [](Rng& rng) {
    std::string s = any_word(rng, 2000);
    std::stringstream ss;
    TextWriter w(ss);
    w.text(s);
    TextReader r(ss);
    return r.text() == s;
  });
}

// ---------- hostile input ----------

// A random schedule of writes, with a reader that replays the same schedule.
struct Stream {
  std::string bytes;
  std::vector<int> schedule;  // 0=tag 1=scalar 2=scalar_u 3=vector 4=matrix 5=text
};

Stream make_stream(Rng& rng) {
  std::stringstream ss;
  TextWriter w(ss);
  Stream out;
  int fields = 2 + static_cast<int>(rng.index(8));
  for (int i = 0; i < fields; ++i) {
    int kind = static_cast<int>(rng.index(6));
    out.schedule.push_back(kind);
    switch (kind) {
      case 0: w.tag("t"); break;
      case 1: w.scalar(any_double(rng)); break;
      case 2: w.scalar_u(rng.index(1000)); break;
      case 3: w.vector(any_vector(rng, 8)); break;
      case 4: w.matrix(any_matrix(rng, 4)); break;
      default: w.text(any_word(rng, 12)); break;
    }
  }
  out.bytes = ss.str();
  return out;
}

void replay(const Stream& s, const std::string& bytes) {
  std::istringstream is(bytes);
  TextReader r(is);
  for (int kind : s.schedule) {
    switch (kind) {
      case 0: r.expect("t"); break;
      case 1: r.scalar(); break;
      case 2: r.scalar_u(); break;
      case 3: r.vector(); break;
      case 4: r.matrix(); break;
      default: r.text(); break;
    }
  }
}

TEST(SerializePropTest, TruncationLosingATokenAlwaysThrows) {
  CHECK_PROP(106, 200, [](Rng& rng) {
    Stream s = make_stream(rng);
    // Cut strictly before the last token starts: at least one whole token is
    // gone, so replaying the full schedule must run out of input.
    std::size_t limit = last_token_start(s.bytes);
    if (limit == std::string::npos || limit == 0) return true;
    std::string cut = s.bytes.substr(0, rng.index(limit));
    try {
      replay(s, cut);
      return false;  // read a stream with a missing token without noticing
    } catch (const std::runtime_error&) {
      return true;
    }
    // Any other exception type escapes and fails the property.
  });
}

TEST(SerializePropTest, GarbledInputThrowsRuntimeErrorOrSucceeds) {
  CHECK_PROP(107, 400, [](Rng& rng) {
    Stream s = make_stream(rng);
    std::string bad = garble(s.bytes, rng);
    try {
      replay(s, bad);  // some mutations stay parseable — that's fine
    } catch (const std::runtime_error&) {
      // the one contractual failure type
    }
    return true;  // anything else (crash, bad_alloc, invalid_argument) fails
  });
}

TEST(SerializePropTest, NegativeAndJunkIntegersThrow) {
  for (const char* tok : {"-5", "1x", "x1", "1.5", "+3", "12-3"}) {
    std::istringstream is(std::string(tok) + " 0");
    TextReader r(is);
    EXPECT_THROW(r.scalar_u(), std::runtime_error) << "token: '" << tok << "'";
  }
  for (const char* tok : {"abc", "1.2.3", "--5", "1e", "0x1p3q"}) {
    std::istringstream is(tok);
    TextReader r(is);
    EXPECT_THROW(r.scalar(), std::runtime_error) << "token: '" << tok << "'";
  }
}

TEST(SerializePropTest, HugeSizePrefixFailsWithoutHugeAllocation) {
  // A corrupted vector length claiming ~1.8e19 elements must die on
  // end-of-input while parsing, not attempt the allocation up front.
  {
    std::istringstream is("18446744073709551615 1.0 2.0");
    TextReader r(is);
    EXPECT_THROW(r.vector(), std::runtime_error);
  }
  {
    std::istringstream is("4294967295 4294967295 1.0");
    TextReader r(is);
    EXPECT_THROW(r.matrix(), std::runtime_error);  // dimension overflow
  }
  {
    std::istringstream is("99999999 99999999 1.0");
    TextReader r(is);
    EXPECT_THROW(r.matrix(), std::runtime_error);  // runs out of elements
  }
}

// ---------- JsonWriter ----------

// Emit a random document through JsonWriter, mirroring the nesting rules.
void emit_value(JsonWriter& w, Rng& rng, int depth) {
  int pick = static_cast<int>(rng.index(depth >= 4 ? 5 : 7));
  switch (pick) {
    case 0: w.value(any_string(rng, 24)); break;
    case 1: w.value(any_double(rng)); break;  // non-finite must become null
    case 2: w.value(rng.chance(0.5)); break;
    case 3: w.value(static_cast<std::int64_t>(rng.uniform_int(-1000000, 1000000))); break;
    case 4: w.null(); break;
    case 5: {
      w.begin_array();
      std::size_t n = rng.index(4);
      for (std::size_t i = 0; i < n; ++i) emit_value(w, rng, depth + 1);
      w.end_array();
      break;
    }
    default: {
      w.begin_object();
      std::size_t n = rng.index(4);
      for (std::size_t i = 0; i < n; ++i) {
        w.key("k" + std::to_string(i) + any_string(rng, 8));
        emit_value(w, rng, depth + 1);
      }
      w.end_object();
      break;
    }
  }
}

TEST(SerializePropTest, JsonWriterEmitsWellFormedJson) {
  CHECK_PROP(108, 300, [](Rng& rng) {
    std::ostringstream os;
    {
      JsonWriter w(os, rng.chance(0.5) ? 2 : 0);
      w.begin_object();
      std::size_t n = rng.index(6);
      for (std::size_t i = 0; i < n; ++i) {
        w.key("f" + std::to_string(i));
        emit_value(w, rng, 0);
      }
      w.end_object();
      if (!w.done()) return false;
    }
    return json_valid(os.str());
  });
}

TEST(SerializePropTest, JsonEscapeAlwaysProducesAValidStringLiteral) {
  CHECK_PROP(109, 300, [](Rng& rng) {
    std::string raw = any_string(rng, 64);
    return json_valid("\"" + JsonWriter::escape(raw) + "\"");
  });
}

TEST(SerializePropTest, JsonWriterMisuseThrowsLogicError) {
  std::ostringstream os;
  {
    JsonWriter w(os);
    w.begin_object();
    EXPECT_THROW(w.value(1.0), std::logic_error);  // value with no key
  }
  {
    std::ostringstream os2;
    JsonWriter w(os2);
    EXPECT_THROW(w.end_object(), std::logic_error);  // unbalanced close
  }
}

}  // namespace
}  // namespace glimpse
