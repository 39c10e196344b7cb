#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/serialize.hpp"
#include "glimpse/glimpse_tuner.hpp"
#include "ml/pca.hpp"
#include "nn/mlp.hpp"
#include "test_util.hpp"

namespace glimpse {
namespace {

// ---------- TextWriter / TextReader primitives ----------

TEST(SerializeTest, ScalarRoundTripsExactly) {
  std::stringstream ss;
  TextWriter w(ss);
  w.scalar(1.0 / 3.0);
  w.scalar(-2.5e-300);
  w.scalar(0.0);
  TextReader r(ss);
  EXPECT_EQ(r.scalar(), 1.0 / 3.0);  // max_digits10 -> bit-exact
  EXPECT_EQ(r.scalar(), -2.5e-300);
  EXPECT_EQ(r.scalar(), 0.0);
}

TEST(SerializeTest, VectorAndMatrixRoundTrip) {
  std::stringstream ss;
  TextWriter w(ss);
  linalg::Vector v = {1.5, -2.25, 1e-9};
  linalg::Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  w.vector(v);
  w.matrix(m);
  TextReader r(ss);
  EXPECT_EQ(r.vector(), v);
  linalg::Matrix back = r.matrix();
  EXPECT_EQ(back.rows(), 2u);
  EXPECT_EQ(back.cols(), 3u);
  EXPECT_DOUBLE_EQ(back(1, 2), 6.0);
}

TEST(SerializeTest, TagMismatchThrows) {
  std::stringstream ss;
  TextWriter w(ss);
  w.tag("alpha");
  TextReader r(ss);
  EXPECT_THROW(r.expect("beta"), std::runtime_error);
}

TEST(SerializeTest, TruncatedInputThrows) {
  std::stringstream ss;
  TextWriter w(ss);
  w.scalar_u(5);  // promises 5 elements, delivers none
  TextReader r(ss);
  EXPECT_THROW(r.vector(), std::runtime_error);
}

TEST(SerializeTest, TextRejectsWhitespace) {
  std::stringstream ss;
  TextWriter w(ss);
  EXPECT_THROW(w.text("two words"), std::invalid_argument);
}

// ---------- model round trips ----------

TEST(SerializeTest, MlpRoundTripPreservesOutputs) {
  Rng rng(1);
  nn::Mlp net({4, 8, 3}, nn::Activation::kTanh, rng);
  std::stringstream ss;
  TextWriter w(ss);
  net.save(w);
  TextReader r(ss);
  nn::Mlp back = nn::Mlp::load(r);
  EXPECT_EQ(back.sizes(), net.sizes());
  linalg::Vector x = {0.1, -0.7, 2.0, 0.4};
  EXPECT_EQ(net.forward(x), back.forward(x));
}

TEST(SerializeTest, MlpLoadValidatesShapes) {
  Rng rng(2);
  nn::Mlp net({2, 3, 1}, nn::Activation::kRelu, rng);
  std::stringstream ss;
  TextWriter w(ss);
  net.save(w);
  std::string data = ss.str();
  // Corrupt the declared layer sizes.
  data.replace(data.find("mlp 0 3 2 3 1"), 13, "mlp 0 3 2 9 1");
  std::stringstream bad(data);
  TextReader r(bad);
  EXPECT_THROW(nn::Mlp::load(r), CheckError);
}

TEST(SerializeTest, PcaRoundTripPreservesTransforms) {
  Rng rng(3);
  std::vector<linalg::Vector> rows;
  for (int i = 0; i < 30; ++i)
    rows.push_back({rng.normal(), rng.normal(), rng.normal(), rng.normal()});
  ml::Pca pca;
  pca.fit(linalg::Matrix::from_rows(rows), 2);

  std::stringstream ss;
  TextWriter w(ss);
  pca.save(w);
  TextReader r(ss);
  ml::Pca back = ml::Pca::load(r);
  linalg::Vector x = rows[5];
  EXPECT_EQ(pca.transform(x), back.transform(x));
  EXPECT_EQ(pca.inverse_transform(pca.transform(x)),
            back.inverse_transform(back.transform(x)));
}

// ---------- full Glimpse artifact round trip ----------

TEST(SerializeTest, ArtifactsRoundTripIsBehaviorally_Identical) {
  const auto& artifacts = glimpse::testing::tiny_artifacts();
  std::string path = ::testing::TempDir() + "/glimpse_artifacts_test.txt";
  core::save_artifacts(artifacts, path);
  core::GlimpseArtifacts loaded = core::load_artifacts(path);

  const auto& task = glimpse::testing::small_conv_task();
  const auto& gpu = glimpse::testing::titan_xp();

  // Blueprint identical.
  EXPECT_EQ(artifacts.encoder->encode(gpu), loaded.encoder->encode(gpu));
  EXPECT_EQ(artifacts.encoder->dim(), loaded.encoder->dim());

  // Prior scores identical on every knob.
  auto bp = artifacts.encoder->encode(gpu);
  auto p1 = artifacts.prior->generate(task, bp);
  auto p2 = loaded.prior->generate(task, bp);
  ASSERT_EQ(p1.knob_scores().size(), p2.knob_scores().size());
  for (std::size_t k = 0; k < p1.knob_scores().size(); ++k)
    EXPECT_EQ(p1.knob_scores()[k], p2.knob_scores()[k]);

  // Meta scores identical.
  Rng rng(4);
  auto c = task.space().random_config(rng);
  core::MetaFeatures f{.surrogate_mean = 0.4, .surrogate_std = 0.2, .prior_z = -0.3,
                       .progress = 0.6};
  auto derived = searchspace::derived_config_features(task, c);
  EXPECT_EQ(artifacts.meta->score(f, bp, derived), loaded.meta->score(f, bp, derived));

  // Validity thresholds identical.
  auto t1 = artifacts.validity->thresholds_for(bp);
  auto t2 = loaded.validity->thresholds_for(bp);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t m = 0; m < t1.size(); ++m)
    for (std::size_t d = 0; d < core::kNumResourceDims; ++d)
      EXPECT_EQ(t1[m][d], t2[m][d]);
  EXPECT_EQ(artifacts.validity->tau(), loaded.validity->tau());
}

TEST(SerializeTest, LoadedArtifactsDriveATuner) {
  const auto& artifacts = glimpse::testing::tiny_artifacts();
  std::string path = ::testing::TempDir() + "/glimpse_artifacts_tuner.txt";
  core::save_artifacts(artifacts, path);
  core::GlimpseArtifacts loaded = core::load_artifacts(path);

  core::GlimpseTuner tuner(glimpse::testing::small_dense_task(),
                           glimpse::testing::titan_xp(), 5, loaded);
  auto batch = tuner.propose(8);
  EXPECT_EQ(batch.size(), 8u);
}

TEST(SerializeTest, LoadArtifactsRejectsMissingFile) {
  EXPECT_THROW(core::load_artifacts("/nonexistent/path/a.txt"), CheckError);
}

TEST(SerializeTest, LoadArtifactsRejectsWrongHeader) {
  std::string path = ::testing::TempDir() + "/glimpse_bad_header.txt";
  {
    std::ofstream os(path);
    os << "not_an_artifact_file 1 2 3\n";
  }
  EXPECT_THROW(core::load_artifacts(path), std::runtime_error);
}

}  // namespace
}  // namespace glimpse
