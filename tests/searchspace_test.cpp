#include "common/logging.hpp"
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hpp"
#include "searchspace/models.hpp"
#include "test_util.hpp"

namespace glimpse::searchspace {
namespace {

// ---------- split enumeration ----------

TEST(SplitTest, EnumeratesAllOrderedFactorizations) {
  // 12 into 2 parts: (1,12),(2,6),(3,4),(4,3),(6,2),(12,1).
  auto s = enumerate_splits(12, 2);
  EXPECT_EQ(s.size(), 6u);
  for (const auto& t : s) EXPECT_EQ(t[0] * t[1], 12);
}

TEST(SplitTest, FourWayCountForPowerOfTwo) {
  // Ordered 4-factorizations of 2^6: C(6+3,3) = 84.
  auto s = enumerate_splits(64, 4);
  EXPECT_EQ(s.size(), 84u);
  for (const auto& t : s) EXPECT_EQ(t[0] * t[1] * t[2] * t[3], 64);
}

TEST(SplitTest, ExtentOneHasSingleOption) {
  auto s = enumerate_splits(1, 4);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], (std::vector<int>{1, 1, 1, 1}));
}

TEST(SplitTest, PrimeExtentTwoParts) {
  auto s = enumerate_splits(7, 2);
  EXPECT_EQ(s.size(), 2u);  // (1,7),(7,1)
}

TEST(KnobTest, SplitKnobProperties) {
  Knob k = Knob::split("tile", 8, 2);
  EXPECT_EQ(k.kind(), Knob::Kind::kSplit);
  EXPECT_EQ(k.num_options(), 4u);  // (1,8),(2,4),(4,2),(8,1)
  EXPECT_EQ(k.option_width(), 2u);
  EXPECT_EQ(k.extent(), 8);
}

TEST(KnobTest, CategoricalKnobProperties) {
  Knob k = Knob::categorical("unroll", {0, 512, 1500});
  EXPECT_EQ(k.num_options(), 3u);
  EXPECT_EQ(k.option(1)[0], 512);
  EXPECT_EQ(k.option_width(), 1u);
}

// ---------- config space ----------

class ConfigSpaceTest : public ::testing::Test {
 protected:
  ConfigSpace space_{std::vector<Knob>{Knob::split("a", 8, 2),
                                       Knob::categorical("b", {0, 1, 2})}};
};

TEST_F(ConfigSpaceTest, SizeIsProductOfOptionCounts) {
  EXPECT_DOUBLE_EQ(space_.size(), 4.0 * 3.0);
}

TEST_F(ConfigSpaceTest, KnobIndexByName) {
  EXPECT_EQ(space_.knob_index("b"), 1u);
  EXPECT_TRUE(space_.has_knob("a"));
  EXPECT_FALSE(space_.has_knob("zz"));
  EXPECT_THROW(space_.knob_index("zz"), std::out_of_range);
}

TEST_F(ConfigSpaceTest, FlatIndexRoundTrip) {
  ASSERT_TRUE(space_.flat_indexable());
  for (std::uint64_t i = 0; i < 12; ++i) {
    Config c = space_.from_flat_index(i);
    EXPECT_EQ(space_.to_flat_index(c), i);
  }
  EXPECT_THROW(space_.from_flat_index(12), CheckError);
}

TEST_F(ConfigSpaceTest, RandomConfigIsContained) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(space_.contains(space_.random_config(rng)));
}

TEST_F(ConfigSpaceTest, NeighborDiffersInExactlyOneKnob) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    Config c = space_.random_config(rng);
    Config n = c;
    const auto move = space_.mutate(n, rng);
    int diffs = 0;
    for (std::size_t k = 0; k < c.size(); ++k)
      if (c[k] != n[k]) ++diffs;
    EXPECT_EQ(diffs, 1);
    ASSERT_LT(move.knob, c.size());
    EXPECT_EQ(move.from, c[move.knob]);
    EXPECT_NE(n[move.knob], c[move.knob]);
    EXPECT_TRUE(space_.contains(n));
  }
}

TEST_F(ConfigSpaceTest, ContainsRejectsMalformed) {
  EXPECT_FALSE(space_.contains({0}));          // wrong length
  EXPECT_FALSE(space_.contains({9, 0}));       // index out of range
  EXPECT_TRUE(space_.contains({3, 2}));
}

TEST_F(ConfigSpaceTest, ToStringRendersKnobs) {
  std::string s = space_.to_string({1, 2});
  EXPECT_NE(s.find("a=[2,4]"), std::string::npos);
  EXPECT_NE(s.find("b=2"), std::string::npos);
}

TEST(ConfigHashTest, EqualConfigsSameHashDistinctLikelyDiffer) {
  ConfigHash h;
  EXPECT_EQ(h({1, 2, 3}), h({1, 2, 3}));
  EXPECT_NE(h({1, 2, 3}), h({3, 2, 1}));
}

// ---------- templates ----------

TEST(TemplateTest, ConvShapeOutputDims) {
  ConvShape s;
  s.c = 3; s.h = 224; s.w = 224; s.k = 64; s.kh = 11; s.kw = 11; s.stride = 4; s.pad = 2;
  EXPECT_EQ(s.oh(), 55);
  EXPECT_EQ(s.ow(), 55);
}

TEST(TemplateTest, ConvFlopsFormula) {
  ConvShape s;
  s.n = 1; s.c = 16; s.h = 8; s.w = 8; s.k = 32; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
  EXPECT_DOUBLE_EQ(s.flops(), 2.0 * 32 * 8 * 8 * 16 * 9);
}

TEST(TemplateTest, WinogradApplicability) {
  ConvShape s;
  s.c = 64; s.h = 56; s.w = 56; s.k = 64; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
  EXPECT_TRUE(s.winograd_applicable());
  s.stride = 2;
  EXPECT_FALSE(s.winograd_applicable());
  s.stride = 1; s.kh = s.kw = 1;
  EXPECT_FALSE(s.winograd_applicable());
  s.kh = s.kw = 5;
  EXPECT_TRUE(s.winograd_applicable());
}

TEST(TemplateTest, WinogradGemmDimensions) {
  ConvShape s;
  s.c = 64; s.h = 56; s.w = 56; s.k = 64; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
  WinogradGemm g = winograd_gemm(s);
  EXPECT_EQ(g.alpha, 4);  // m=2, k=3
  EXPECT_EQ(g.num_tiles, 28 * 28);
  EXPECT_GT(g.gemm_flops, 0.0);
  // Winograd GEMM does fewer multiplies than direct conv.
  EXPECT_LT(g.gemm_flops, s.flops());
}

TEST(TemplateTest, Conv2dSpaceHasExpectedKnobs) {
  ConvShape s;
  s.c = 64; s.h = 56; s.w = 56; s.k = 64; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
  ConfigSpace space = conv2d_direct_space(s);
  EXPECT_EQ(space.num_knobs(), 8u);
  for (const char* name : {"tile_f", "tile_y", "tile_x", "tile_rc", "tile_ry",
                           "tile_rx", "auto_unroll_max_step", "unroll_explicit"})
    EXPECT_TRUE(space.has_knob(name)) << name;
}

TEST(TemplateTest, Vgg16FirstLayerSpaceExceeds200Million) {
  // The paper (§2.1): "the first layer of VGG-16 has over 200 million
  // combinations".
  ConvShape s;
  s.c = 3; s.h = 224; s.w = 224; s.k = 64; s.kh = 3; s.kw = 3; s.stride = 1; s.pad = 1;
  ConfigSpace space = conv2d_direct_space(s);
  EXPECT_GT(space.size(), 2.0e8);
}

TEST(TemplateTest, DenseSpaceKnobs) {
  ConfigSpace space = dense_space(DenseShape{1, 512, 1000});
  EXPECT_EQ(space.num_knobs(), 5u);
  EXPECT_TRUE(space.has_knob("tile_k"));
}

// ---------- task ----------

TEST(TaskTest, LayerFeaturesFixedLength) {
  const auto& conv = glimpse::testing::small_conv_task();
  const auto& dense = glimpse::testing::small_dense_task();
  const auto& wino = glimpse::testing::small_winograd_task();
  EXPECT_EQ(conv.layer_features().size(), Task::layer_feature_dim());
  EXPECT_EQ(dense.layer_features().size(), Task::layer_feature_dim());
  EXPECT_EQ(wino.layer_features().size(), Task::layer_feature_dim());
}

TEST(TaskTest, LayerFeaturesOneHotKind) {
  auto f = glimpse::testing::small_winograd_task().layer_features();
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  EXPECT_DOUBLE_EQ(f[1], 1.0);  // winograd slot
  EXPECT_DOUBLE_EQ(f[2], 0.0);
}

TEST(TaskTest, AccessorsGuardKind) {
  EXPECT_THROW(glimpse::testing::small_dense_task().conv_shape(), CheckError);
  EXPECT_THROW(glimpse::testing::small_conv_task().dense_shape(), CheckError);
  EXPECT_NO_THROW(glimpse::testing::small_conv_task().conv_shape());
}

// ---------- models / task extraction (Table 1) ----------

struct ModelExpectation {
  const char* name;
  std::size_t total, conv, wino, dense;
};

// Without this gtest prints the raw bytes, pointer included, into the
// discovered test name, which then changes from build to build.
void PrintTo(const ModelExpectation& p, std::ostream* os) { *os << p.name; }

class ModelTaskCountTest : public ::testing::TestWithParam<ModelExpectation> {};

TEST_P(ModelTaskCountTest, MatchesPaperTable1) {
  auto p = GetParam();
  Model m = p.name == std::string("AlexNet")   ? alexnet()
            : p.name == std::string("ResNet-18") ? resnet18()
                                                 : vgg16();
  TaskSet ts(m);
  EXPECT_EQ(ts.num_tasks(), p.total);
  EXPECT_EQ(ts.count_kind(TemplateKind::kConv2d), p.conv);
  EXPECT_EQ(ts.count_kind(TemplateKind::kConv2dWinograd), p.wino);
  EXPECT_EQ(ts.count_kind(TemplateKind::kDense), p.dense);
}

INSTANTIATE_TEST_SUITE_P(Table1, ModelTaskCountTest,
                         ::testing::Values(ModelExpectation{"AlexNet", 12, 5, 4, 3},
                                           ModelExpectation{"ResNet-18", 17, 12, 4, 1},
                                           ModelExpectation{"VGG-16", 21, 9, 9, 3}),
                         [](const auto& info) {
                           std::string n = info.param.name;
                           std::erase_if(n, [](char c) { return !std::isalnum(
                                                  static_cast<unsigned char>(c)); });
                           return n;
                         });

TEST(ModelTest, TaskNamesUnique) {
  for (const auto& m : evaluation_models()) {
    TaskSet ts(m);
    std::unordered_set<std::string> names;
    for (const auto& t : ts.tasks()) names.insert(t.name());
    EXPECT_EQ(names.size(), ts.num_tasks());
  }
}

TEST(ModelTest, EveryTaskSpaceIsFlatIndexable) {
  // Simulated annealing keys configs by their flat index, so every task the
  // tuners can be handed must fit one (the largest, VGG-16's first layer,
  // is about 2^29.4).
  std::vector<Model> models = evaluation_models();
  for (auto& m : scenario_models()) models.push_back(std::move(m));
  std::size_t tasks = 0;
  for (const auto& m : models) {
    TaskSet ts(m);
    for (const auto& t : ts.tasks()) {
      EXPECT_TRUE(t.space().flat_indexable()) << t.name();
      EXPECT_LT(t.space().size(), 0x1p40) << t.name();
      ++tasks;
    }
  }
  EXPECT_EQ(tasks, 63u);
}

TEST(ModelTest, ModelByNameResolvesEveryServedModel) {
  const std::pair<const char*, Model> want[] = {
      {"alexnet", alexnet()},
      {"resnet18", resnet18()},
      {"vgg16", vgg16()},
      {"transformer", transformer_block()},
      {"mobilenet_edge", mobilenet_edge()}};
  for (const auto& [name, model] : want)
    EXPECT_EQ(model_by_name(name).name, model.name) << name;
  EXPECT_THROW(model_by_name("AlexNet"), std::invalid_argument);
  EXPECT_THROW(model_by_name("lenet"), std::invalid_argument);
}

TEST(ModelTest, LayersReferenceValidTasks) {
  TaskSet ts(resnet18());
  for (const auto& layer : ts.layers()) {
    EXPECT_FALSE(layer.task_indices.empty());
    EXPECT_GE(layer.count, 1);
    for (std::size_t t : layer.task_indices) EXPECT_LT(t, ts.num_tasks());
  }
}

TEST(ModelTest, WinogradLayersHaveTwoImplementations) {
  TaskSet ts(vgg16());
  std::size_t two_impl = 0;
  for (const auto& layer : ts.layers())
    if (layer.task_indices.size() == 2) ++two_impl;
  EXPECT_EQ(two_impl, 9u);  // all nine VGG conv shapes are winograd-eligible
}

TEST(ModelTest, EndToEndLatencyPicksFasterImplementation) {
  TaskSet ts(resnet18());
  std::vector<double> best(ts.num_tasks(), 1e-3);
  double base = ts.end_to_end_latency(best);
  // Making one winograd variant much faster must reduce the total.
  for (std::size_t i = 0; i < ts.num_tasks(); ++i) {
    if (ts.task(i).kind() == TemplateKind::kConv2dWinograd) {
      best[i] = 1e-5;
      break;
    }
  }
  EXPECT_LT(ts.end_to_end_latency(best), base);
}

TEST(ModelTest, EndToEndLatencyInfiniteWhenLayerUntuned) {
  TaskSet ts(alexnet());
  std::vector<double> best(ts.num_tasks(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(ts.end_to_end_latency(best)));
}

TEST(ModelTest, ResNetLayerCountsSumToNetworkConvs) {
  // The TVM/MXNet ResNet-18 variant (whose task extraction yields Table 1's
  // 12 unique conv shapes) has 21 convolutions: 1 stem + 16 block convs +
  // 4 projections (one per stage, including stage 1).
  Model m = resnet18();
  int total = 0;
  for (const auto& c : m.convs) total += c.count;
  EXPECT_EQ(total, 21);
}

TEST(ModelTest, Vgg16Has13Convs) {
  Model m = vgg16();
  int total = 0;
  for (const auto& c : m.convs) total += c.count;
  EXPECT_EQ(total, 13);
}

}  // namespace
}  // namespace glimpse::searchspace
