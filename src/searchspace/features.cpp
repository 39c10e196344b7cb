#include "searchspace/features.hpp"

#include <array>
#include <cmath>

#include "common/logging.hpp"

namespace glimpse::searchspace {

namespace {

double log2p(double v) { return std::log2(v + 1.0); }

/// std::log2(double(n)) for 1 <= n < kLog2TableSize, each a libm call at
/// run time. Neither constexpr nor a lambda (which is implicitly constexpr):
/// the compiler may evaluate a constant initializer itself, with its own
/// arbitrary-precision arithmetic, which can differ from libm in the last
/// place. The volatile argument keeps the optimizer from folding a call.
std::array<double, kLog2TableSize> libm_log2_table() {
  std::array<double, kLog2TableSize> t{};
  for (int n = 1; n < kLog2TableSize; ++n) {
    volatile double arg = n;
    t[n] = std::log2(arg);
  }
  return t;
}

/// The process-wide table, built on first use.
const double* log2_table() {
  static const std::array<double, kLog2TableSize> table = libm_log2_table();
  return table.data();
}

/// std::log2(double(n)), from the table `lg` when n is in it.
double table_log2(const double* lg, long long n) {
  return (n >= 1 && n < kLog2TableSize) ? lg[n] : std::log2(static_cast<double>(n));
}

/// log2p(double(v)) of an integer v, from the table `lg` when v + 1 is in it.
double table_log2p(const double* lg, long long v) {
  return (v >= 0 && v < kLog2TableSize - 1) ? lg[v + 1] : log2p(static_cast<double>(v));
}

struct Split4 {
  int b, v, t, i;       // block, vthread, thread, inner
  int span() const { return v * t * i; }  // extent covered per block
};

Split4 split4(const ConfigSpace& space, const Config& c, std::size_t knob) {
  auto o = space.option_of(c, knob);
  GLIMPSE_CHECK(o.size() == 4);
  return {o[0], o[1], o[2], o[3]};
}

struct Split2 {
  int outer, inner;
};

Split2 split2(const ConfigSpace& space, const Config& c, std::size_t knob) {
  auto o = space.option_of(c, knob);
  GLIMPSE_CHECK(o.size() == 2);
  return {o[0], o[1]};
}

DerivedConfig derive_conv2d(const Task& task, const Config& c) {
  const ConfigSpace& s = task.space();
  const KnobSlots& slot = task.knob_slots();
  const ConvShape& shape = task.conv_shape();
  Split4 f = split4(s, c, slot.split4[0]);  // tile_f
  Split4 y = split4(s, c, slot.split4[1]);  // tile_y
  Split4 x = split4(s, c, slot.split4[2]);  // tile_x
  Split2 rc = split2(s, c, slot.split2[0]);  // tile_rc
  Split2 ry = split2(s, c, slot.split2[1]);  // tile_ry
  Split2 rx = split2(s, c, slot.split2[2]);  // tile_rx
  int unroll = s.option_of(c, slot.unroll_step)[0];
  bool uexp = s.option_of(c, slot.unroll_explicit)[0] != 0;

  DerivedConfig d;
  d.threads_per_block = static_cast<long long>(f.t) * y.t * x.t;
  d.num_blocks = static_cast<long long>(f.b) * y.b * x.b * shape.n;
  d.vthreads = static_cast<long long>(f.v) * y.v * x.v;
  d.work_per_thread = static_cast<long long>(f.i) * y.i * x.i *
                      static_cast<long long>(f.v) * y.v * x.v;
  d.inner_x = x.i;
  d.thread_x = x.t;
  d.tile_rows = f.span();
  d.tile_cols = static_cast<long long>(y.span()) * x.span();

  // Staging buffers per reduction step (rci channels, ryi x rxi kernel rows).
  double y_span = (static_cast<double>(y.span()) - 1.0) * shape.stride + ry.inner;
  double x_span = (static_cast<double>(x.span()) - 1.0) * shape.stride + rx.inner;
  double smem_input = y_span * x_span * rc.inner * 4.0;
  double smem_weight = static_cast<double>(f.span()) * rc.inner * ry.inner * rx.inner * 4.0;
  d.shared_bytes = smem_input + smem_weight;

  d.reduce_steps = static_cast<long long>(rc.outer) * ry.outer * rx.outer;
  d.global_bytes = (smem_input + smem_weight) * static_cast<double>(d.reduce_steps) *
                       static_cast<double>(d.num_blocks) +
                   task.conv_shape().flops() / (2.0 * shape.c * shape.kh * shape.kw) * 4.0;

  // Accumulators for every output element a thread owns, plus staging and
  // address registers; deep unrolled bodies inflate register pressure.
  long long accum = static_cast<long long>(f.i) * y.i * x.i;
  d.unrolled_body = accum * rc.inner * ry.inner * rx.inner;
  d.unroll_step = unroll;
  d.unroll_explicit = uexp;
  double unroll_pressure =
      (unroll > 0) ? std::min<double>(static_cast<double>(d.unrolled_body), unroll) * 0.08
                   : 0.0;
  d.regs_per_thread = 24.0 + 1.6 * static_cast<double>(accum) + 0.35 * rc.inner +
                      unroll_pressure + (uexp ? 4.0 : 0.0);
  return d;
}

DerivedConfig derive_winograd(const Task& task, const Config& c) {
  const ConfigSpace& s = task.space();
  const KnobSlots& slot = task.knob_slots();
  const ConvShape& shape = task.conv_shape();
  WinogradGemm g = winograd_gemm(shape);
  Split4 b = split4(s, c, slot.split4[0]);  // tile_b
  Split4 y = split4(s, c, slot.split4[1]);  // tile_y
  Split4 x = split4(s, c, slot.split4[2]);  // tile_x
  Split2 rc = split2(s, c, slot.split2[0]);  // tile_rc
  int unroll = s.option_of(c, slot.unroll_step)[0];
  bool uexp = s.option_of(c, slot.unroll_explicit)[0] != 0;

  DerivedConfig d;
  d.threads_per_block = static_cast<long long>(b.t) * y.t * x.t;
  d.num_blocks = static_cast<long long>(b.b) * y.b * x.b;
  d.vthreads = static_cast<long long>(b.v) * y.v * x.v;
  d.work_per_thread = static_cast<long long>(b.i) * y.i * x.i *
                      static_cast<long long>(b.v) * y.v * x.v;
  d.inner_x = x.i;
  d.thread_x = x.t;
  d.tile_rows = y.span();
  d.tile_cols = x.span();

  // GEMM staging: an A tile (y_span x rci) and a B tile (rci x x_span) per
  // batch element handled by the block.
  double smem = (static_cast<double>(y.span()) + x.span()) * rc.inner * 4.0 *
                static_cast<double>(b.span());
  d.shared_bytes = smem;
  d.reduce_steps = rc.outer;
  d.global_bytes =
      smem * rc.outer * static_cast<double>(d.num_blocks) +
      static_cast<double>(g.alpha) * g.alpha * g.num_tiles * 4.0 * 2.0;  // transforms

  long long accum = static_cast<long long>(b.i) * y.i * x.i;
  d.unrolled_body = accum * rc.inner;
  d.unroll_step = unroll;
  d.unroll_explicit = uexp;
  double unroll_pressure =
      (unroll > 0) ? std::min<double>(static_cast<double>(d.unrolled_body), unroll) * 0.08
                   : 0.0;
  d.regs_per_thread =
      26.0 + 1.5 * static_cast<double>(accum) + 0.3 * rc.inner + unroll_pressure +
      (uexp ? 4.0 : 0.0);
  return d;
}

DerivedConfig derive_attention(const Task& task, const Config& c) {
  const ConfigSpace& s = task.space();
  const KnobSlots& slot = task.knob_slots();
  const AttentionShape& shape = task.attention_shape();
  Split4 b = split4(s, c, slot.split4[0]);  // tile_b
  Split4 y = split4(s, c, slot.split4[1]);  // tile_y
  Split4 x = split4(s, c, slot.split4[2]);  // tile_x
  Split2 k = split2(s, c, slot.split2[0]);  // tile_k
  int unroll = s.option_of(c, slot.unroll_step)[0];
  bool uexp = s.option_of(c, slot.unroll_explicit)[0] != 0;
  bool tc = s.option_of(c, slot.tensor_core)[0] != 0;

  DerivedConfig d;
  d.threads_per_block = static_cast<long long>(b.t) * y.t * x.t;
  d.num_blocks = static_cast<long long>(b.b) * y.b * x.b;
  d.vthreads = static_cast<long long>(b.v) * y.v * x.v;
  d.work_per_thread = static_cast<long long>(b.i) * y.i * x.i *
                      static_cast<long long>(b.v) * y.v * x.v;
  d.inner_x = x.i;
  d.thread_x = x.t;
  d.use_tensor_core = tc;
  d.tile_rows = y.span();
  d.tile_cols = x.span();

  // Fused-attention staging per (batch,head) element the block owns: a Q
  // tile (y_span x ki), a K tile (ki x x_span) and the score tile
  // (y_span x x_span) held for the softmax + AV stage.
  double score_tile = static_cast<double>(y.span()) * x.span();
  double smem = ((static_cast<double>(y.span()) + x.span()) * k.inner + score_tile) *
                4.0 * static_cast<double>(b.span());
  // The tensor-core variant stages operands in FP16: half the bytes.
  if (tc) smem = 0.5 * smem + score_tile * 4.0 * b.span() * 0.5;
  d.shared_bytes = smem;

  // Two chained GEMMs share the staged score tile; reduction loops run once
  // over head_dim (QK^T) and once over seq_len (AV) in x-sized steps.
  d.reduce_steps =
      k.outer + (shape.seq_len + std::max(1, x.span()) - 1) / std::max(1, x.span());
  double elem_bytes = tc ? 2.0 : 4.0;
  double qkv_bytes = 3.0 * shape.batch * shape.heads *
                     static_cast<double>(shape.seq_len) * shape.head_dim * elem_bytes;
  d.global_bytes = qkv_bytes +
                   smem * static_cast<double>(d.reduce_steps) *
                       static_cast<double>(d.num_blocks) * 0.1 +
                   static_cast<double>(shape.batch) * shape.heads * shape.seq_len *
                       shape.head_dim * 4.0;  // output, FP32 accumulated

  long long accum = static_cast<long long>(b.i) * y.i * x.i;
  d.unrolled_body = accum * k.inner;
  d.unroll_step = unroll;
  d.unroll_explicit = uexp;
  double unroll_pressure =
      (unroll > 0) ? std::min<double>(static_cast<double>(d.unrolled_body), unroll) * 0.08
                   : 0.0;
  // MMA fragments live in registers: the tensor path carries the score tile
  // per warp on top of the usual accumulators.
  d.regs_per_thread = (tc ? 34.0 : 26.0) + 1.5 * static_cast<double>(accum) +
                      0.3 * k.inner + unroll_pressure + (uexp ? 4.0 : 0.0);
  return d;
}

DerivedConfig derive_depthwise(const Task& task, const Config& c) {
  const ConfigSpace& s = task.space();
  const KnobSlots& slot = task.knob_slots();
  const DepthwiseShape& shape = task.depthwise_shape();
  Split4 ch = split4(s, c, slot.split4[0]);  // tile_c
  Split4 y = split4(s, c, slot.split4[1]);  // tile_y
  Split4 x = split4(s, c, slot.split4[2]);  // tile_x
  Split2 ry = split2(s, c, slot.split2[0]);  // tile_ry
  Split2 rx = split2(s, c, slot.split2[1]);  // tile_rx
  int unroll = s.option_of(c, slot.unroll_step)[0];
  bool uexp = s.option_of(c, slot.unroll_explicit)[0] != 0;

  DerivedConfig d;
  d.threads_per_block = static_cast<long long>(ch.t) * y.t * x.t;
  d.num_blocks = static_cast<long long>(ch.b) * y.b * x.b * shape.n;
  d.vthreads = static_cast<long long>(ch.v) * y.v * x.v;
  d.work_per_thread = static_cast<long long>(ch.i) * y.i * x.i *
                      static_cast<long long>(ch.v) * y.v * x.v;
  d.inner_x = x.i;
  d.thread_x = x.t;
  d.tile_rows = y.span();
  d.tile_cols = x.span();

  // Input halo tile per channel the block covers; weights are tiny (one
  // kh x kw filter per channel) but staged alongside.
  double y_span = (static_cast<double>(y.span()) - 1.0) * shape.stride + ry.inner;
  double x_span = (static_cast<double>(x.span()) - 1.0) * shape.stride + rx.inner;
  double smem_input = y_span * x_span * static_cast<double>(ch.span()) * 4.0;
  double smem_weight = static_cast<double>(ch.span()) * ry.inner * rx.inner * 4.0;
  d.shared_bytes = smem_input + smem_weight;

  d.reduce_steps = static_cast<long long>(ry.outer) * rx.outer;
  d.global_bytes = (smem_input + smem_weight) * static_cast<double>(d.reduce_steps) *
                       static_cast<double>(d.num_blocks) +
                   static_cast<double>(shape.n) * shape.c * shape.oh() * shape.ow() *
                       4.0;  // output writes

  long long accum = static_cast<long long>(ch.i) * y.i * x.i;
  d.unrolled_body = accum * ry.inner * rx.inner;
  d.unroll_step = unroll;
  d.unroll_explicit = uexp;
  double unroll_pressure =
      (unroll > 0) ? std::min<double>(static_cast<double>(d.unrolled_body), unroll) * 0.08
                   : 0.0;
  d.regs_per_thread = 20.0 + 1.5 * static_cast<double>(accum) +
                      0.3 * ry.inner * rx.inner + unroll_pressure + (uexp ? 4.0 : 0.0);
  return d;
}

DerivedConfig derive_reduction(const Task& task, const Config& c) {
  const ConfigSpace& s = task.space();
  const KnobSlots& slot = task.knob_slots();
  const ReductionShape& shape = task.reduction_shape();
  Split4 y = split4(s, c, slot.split4[0]);  // tile_y
  Split4 x = split4(s, c, slot.split4[1]);  // tile_x
  int unroll = s.option_of(c, slot.unroll_step)[0];
  bool uexp = s.option_of(c, slot.unroll_explicit)[0] != 0;

  DerivedConfig d;
  d.threads_per_block = static_cast<long long>(y.t) * x.t;
  // The "block" part of tile_x is split-K: partial sums per column chunk,
  // combined by a second lightweight pass.
  d.num_blocks = static_cast<long long>(y.b) * x.b;
  d.vthreads = static_cast<long long>(y.v) * x.v;
  d.work_per_thread = static_cast<long long>(y.i) * x.i *
                      static_cast<long long>(y.v) * x.v;
  d.inner_x = x.i;
  d.thread_x = x.t;
  d.tile_rows = y.span();
  d.tile_cols = x.span();

  // Tree-reduction scratch: one partial per thread, plus the per-row result
  // slots of the block.
  d.shared_bytes = static_cast<double>(d.threads_per_block) * 4.0 +
                   static_cast<double>(y.span()) * 4.0;

  // Barriers: log2 of the cooperating threads along x, plus the split-K
  // combine pass when tile_x is block-split.
  long long tree_steps = 1;
  for (long long t = x.t; t > 1; t /= 2) ++tree_steps;
  d.reduce_steps = tree_steps + (x.b > 1 ? 1 : 0);

  d.global_bytes = static_cast<double>(shape.rows) * shape.cols * 4.0 +
                   static_cast<double>(shape.rows) * x.b * 4.0 * 2.0;  // partials

  long long accum = static_cast<long long>(y.i) * x.i;
  d.unrolled_body = accum;
  d.unroll_step = unroll;
  d.unroll_explicit = uexp;
  double unroll_pressure =
      (unroll > 0) ? std::min<double>(static_cast<double>(d.unrolled_body), unroll) * 0.08
                   : 0.0;
  d.regs_per_thread = 16.0 + 1.2 * static_cast<double>(accum) + unroll_pressure +
                      (uexp ? 4.0 : 0.0);
  return d;
}

DerivedConfig derive_dense(const Task& task, const Config& c) {
  const ConfigSpace& s = task.space();
  const KnobSlots& slot = task.knob_slots();
  const DenseShape& shape = task.dense_shape();
  Split4 y = split4(s, c, slot.split4[0]);  // tile_y
  Split4 x = split4(s, c, slot.split4[1]);  // tile_x
  Split2 k = split2(s, c, slot.split2[0]);  // tile_k
  int unroll = s.option_of(c, slot.unroll_step)[0];
  bool uexp = s.option_of(c, slot.unroll_explicit)[0] != 0;

  DerivedConfig d;
  d.threads_per_block = static_cast<long long>(y.t) * x.t;
  d.num_blocks = static_cast<long long>(y.b) * x.b;
  d.vthreads = static_cast<long long>(y.v) * x.v;
  d.work_per_thread = static_cast<long long>(y.i) * x.i *
                      static_cast<long long>(y.v) * x.v;
  d.inner_x = x.i;
  d.thread_x = x.t;
  d.tile_rows = y.span();
  d.tile_cols = x.span();

  double smem = (static_cast<double>(y.span()) + x.span()) * k.inner * 4.0;
  d.shared_bytes = smem;
  d.reduce_steps = k.outer;
  // Weight matrix dominates traffic for small batch.
  d.global_bytes = static_cast<double>(shape.in_dim) * shape.out_dim * 4.0 /
                       std::max(1, x.b) * static_cast<double>(x.b) +
                   smem * k.outer * static_cast<double>(d.num_blocks) * 0.1;

  long long accum = static_cast<long long>(y.i) * x.i;
  d.unrolled_body = accum * k.inner;
  d.unroll_step = unroll;
  d.unroll_explicit = uexp;
  double unroll_pressure =
      (unroll > 0) ? std::min<double>(static_cast<double>(d.unrolled_body), unroll) * 0.08
                   : 0.0;
  d.regs_per_thread = 22.0 + 1.5 * static_cast<double>(accum) + 0.3 * k.inner +
                      unroll_pressure + (uexp ? 4.0 : 0.0);
  return d;
}

}  // namespace

double log2_int(long long n) { return table_log2(log2_table(), n); }

DerivedConfig derive(const Task& task, const Config& config) {
  GLIMPSE_CHECK(task.space().contains(config)) << "config not in task space";
  switch (task.kind()) {
    case TemplateKind::kConv2d: return derive_conv2d(task, config);
    case TemplateKind::kConv2dWinograd: return derive_winograd(task, config);
    case TemplateKind::kDense: return derive_dense(task, config);
    case TemplateKind::kAttention: return derive_attention(task, config);
    case TemplateKind::kDepthwiseConv2d: return derive_depthwise(task, config);
    case TemplateKind::kReduction: return derive_reduction(task, config);
  }
  throw std::logic_error("unreachable template kind");
}

namespace {

/// Log-scaled derived quantities: the tail of config_features and the head
/// of derived_config_features.
constexpr std::size_t kDerivedLogDim = 11;

void write_derived_logs(const DerivedConfig& d, double* out) {
  const double* lg = log2_table();
  out[0] = table_log2p(lg, d.threads_per_block);
  out[1] = table_log2p(lg, d.num_blocks);
  out[2] = table_log2p(lg, d.vthreads);
  out[3] = table_log2p(lg, d.work_per_thread);
  out[4] = log2p(d.shared_bytes);
  out[5] = log2p(d.regs_per_thread);
  out[6] = log2p(d.global_bytes);
  out[7] = table_log2p(lg, d.inner_x);
  out[8] = table_log2p(lg, d.thread_x);
  out[9] = table_log2p(lg, d.reduce_steps);
  out[10] = table_log2p(lg, d.unrolled_body);
}

void write_config_features(const Task& task, const Config& config,
                           const DerivedConfig& d, std::span<double> out) {
  const ConfigSpace& s = task.space();
  GLIMPSE_CHECK(out.size() == config_feature_dim(task));
  double* f = out.data();
  const double* lg = log2_table();
  for (std::size_t i = 0; i < s.num_knobs(); ++i) {
    auto o = s.option_of(config, i);
    if (s.knob(i).kind() == Knob::Kind::kSplit) {
      for (int part : o) *f++ = table_log2(lg, part);
    } else {
      *f++ = table_log2p(lg, o[0]);
    }
  }
  write_derived_logs(d, f);
}

void write_derived_config_features(const DerivedConfig& d, std::span<double> out) {
  GLIMPSE_CHECK(out.size() == kDerivedFeatureDim);
  write_derived_logs(d, out.data());
  out[kDerivedLogDim] = d.unroll_step > 0 ? 1.0 : 0.0;
  out[kDerivedLogDim + 1] = d.unroll_explicit ? 1.0 : 0.0;
  out[kDerivedLogDim + 2] = d.use_tensor_core ? 1.0 : 0.0;
}

}  // namespace

linalg::Vector config_features(const Task& task, const Config& config) {
  linalg::Vector f(config_feature_dim(task));
  config_features_into(task, config, f);
  return f;
}

void config_features_into(const Task& task, const Config& config, std::span<double> out) {
  write_config_features(task, config, derive(task, config), out);
}

void featurize_into(const Task& task, const Config& config, std::span<double> features,
                    std::span<double> derived) {
  DerivedConfig d = derive(task, config);
  write_config_features(task, config, d, features);
  write_derived_config_features(d, derived);
}

linalg::Vector transfer_features(const Task& task, const Config& config) {
  linalg::Vector f = task.layer_features();
  linalg::Vector d = derived_config_features(task, config);
  f.insert(f.end(), d.begin(), d.end());
  return f;
}

std::size_t transfer_feature_dim() {
  return Task::layer_feature_dim() + kDerivedFeatureDim;
}

linalg::Vector derived_config_features(const Task& task, const Config& config) {
  linalg::Vector f(kDerivedFeatureDim);
  write_derived_config_features(derive(task, config), f);
  return f;
}

std::size_t config_feature_dim(const Task& task) {
  const ConfigSpace& s = task.space();
  std::size_t n = 0;
  for (std::size_t i = 0; i < s.num_knobs(); ++i)
    n += (s.knob(i).kind() == Knob::Kind::kSplit) ? s.knob(i).option_width() : 1;
  return n + kDerivedLogDim;  // derived features appended by config_features()
}

}  // namespace glimpse::searchspace
