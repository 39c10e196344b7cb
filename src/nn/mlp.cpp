#include "nn/mlp.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "linalg/simd.hpp"

namespace glimpse::nn {

void MlpParams::axpy(double s, const MlpParams& o) {
  GLIMPSE_CHECK(w.size() == o.w.size() && b.size() == o.b.size());
  for (std::size_t l = 0; l < w.size(); ++l) {
    auto dst = w[l].data();
    auto src = o.w[l].data();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] += s * src[i];
    for (std::size_t i = 0; i < b[l].size(); ++i) b[l][i] += s * o.b[l][i];
  }
}

void MlpParams::scale(double s) {
  for (auto& m : w)
    for (double& v : m.data()) v *= s;
  for (auto& v : b)
    for (double& x : v) x *= s;
}

void MlpParams::fill(double val) {
  for (auto& m : w)
    for (double& v : m.data()) v = val;
  for (auto& v : b)
    for (double& x : v) x = val;
}

std::size_t MlpParams::num_params() const {
  std::size_t n = 0;
  for (const auto& m : w) n += m.rows() * m.cols();
  for (const auto& v : b) n += v.size();
  return n;
}

Mlp::Mlp(std::vector<std::size_t> sizes, Activation activation, Rng& rng)
    : sizes_(std::move(sizes)), activation_(activation) {
  GLIMPSE_CHECK(sizes_.size() >= 2) << "Mlp needs at least input and output sizes";
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    std::size_t in = sizes_[l], out = sizes_[l + 1];
    linalg::Matrix w(out, in);
    // He init for ReLU, Xavier for tanh.
    double s = (activation_ == Activation::kRelu) ? std::sqrt(2.0 / in)
                                                  : std::sqrt(1.0 / in);
    for (double& v : w.data()) v = rng.normal(0.0, s);
    p_.w.push_back(std::move(w));
    p_.b.emplace_back(out, 0.0);
  }
}

namespace {
double act(double x, Activation a) {
  return a == Activation::kRelu ? (x > 0 ? x : 0.0) : std::tanh(x);
}
double act_grad(double pre, Activation a) {
  if (a == Activation::kRelu) return pre > 0 ? 1.0 : 0.0;
  double t = std::tanh(pre);
  return 1.0 - t * t;
}
}  // namespace

linalg::Vector Mlp::forward(std::span<const double> x) const {
  Cache scratch;
  return forward(x, scratch);
}

linalg::Vector Mlp::forward(std::span<const double> x, Cache& cache) const {
  GLIMPSE_CHECK(x.size() == sizes_.front())
      << "Mlp::forward: got " << x.size() << " inputs, want " << sizes_.front();
  // A cache reused across samples keeps its per-layer vectors; only the
  // layer products allocate.
  const std::size_t layers = p_.w.size();
  cache.pre.resize(layers);
  cache.post.resize(layers);
  std::span<const double> in = x;
  for (std::size_t l = 0; l < layers; ++l) {
    linalg::Vector& pre = cache.pre[l];
    pre = linalg::matvec(p_.w[l], in);
    for (std::size_t i = 0; i < pre.size(); ++i) pre[i] += p_.b[l][i];
    linalg::Vector& post = cache.post[l];
    if (l + 1 == layers) {
      post = pre;  // linear output
    } else {
      post.resize(pre.size());
      for (std::size_t i = 0; i < pre.size(); ++i) post[i] = act(pre[i], activation_);
    }
    in = post;
  }
  return cache.post.back();
}

linalg::Matrix Mlp::forward_batch(const linalg::Matrix& x, BatchCache* cache) const {
  GLIMPSE_CHECK(x.cols() == sizes_.front())
      << "Mlp::forward_batch: got " << x.cols() << " inputs, want " << sizes_.front();
  if (cache) cache->post.clear();
  const std::size_t last = p_.w.size() - 1;
  const linalg::Matrix* in = &x;
  linalg::Matrix cur;
  for (std::size_t l = 0; l < p_.w.size(); ++l) {
    linalg::Matrix pre = linalg::matmul_nt(*in, p_.w[l]);
    const linalg::Vector& bias = p_.b[l];
    for (std::size_t r = 0; r < pre.rows(); ++r) {
      double* row = pre.row(r).data();
      for (std::size_t i = 0; i < bias.size(); ++i) row[i] += bias[i];
      if (l != last)
        for (std::size_t i = 0; i < bias.size(); ++i) row[i] = act(row[i], activation_);
    }
    if (cache) cache->post.push_back(pre);
    cur = std::move(pre);
    in = &cur;
  }
  return cur;
}

void Mlp::backward(std::span<const double> x, const Cache& cache,
                   std::span<const double> dout, double scale, MlpParams& acc,
                   linalg::Vector* dx) const {
  GLIMPSE_CHECK(cache.pre.size() == p_.w.size()) << "backward without forward cache";
  GLIMPSE_CHECK(dout.size() == sizes_.back());
  GLIMPSE_CHECK(acc.w.size() == p_.w.size() && acc.b.size() == p_.b.size());
  linalg::Vector delta(dout.begin(), dout.end());
  const linalg::kernels::Isa isa = linalg::kernels::select(linalg::simd_enabled());
  for (std::size_t li = p_.w.size(); li-- > 0;) {
    // delta is dL/d(pre-activation of layer li)'s *output side*; convert
    // through the activation derivative except at the linear output layer.
    if (li + 1 != p_.w.size()) {
      for (std::size_t i = 0; i < delta.size(); ++i)
        delta[i] *= act_grad(cache.pre[li][i], activation_);
    }
    std::span<const double> input =
        (li == 0) ? x : std::span<const double>(cache.post[li - 1]);
    // dW = delta * input^T ; db = delta ; dInput = W^T delta. Each gradient
    // element is formed as it would be in a zeroed buffer (0.0 + d * in, or
    // 0.0 on a dead-ReLU row) and then scaled into acc, so acc's signed
    // zeros match accumulating a separately computed gradient.
    linalg::Matrix& gw = acc.w[li];
    GLIMPSE_CHECK(gw.rows() == delta.size() && gw.cols() == input.size());
    for (std::size_t r = 0; r < gw.rows(); ++r) {
      const double d = delta[r];
      auto row = gw.row(r);
      if (d == 0.0) {
        for (double& a : row) a += scale * 0.0;
        continue;
      }
      linalg::kernels::axpy_outer(row.data(), input.data(), d, scale, row.size(), isa);
    }
    linalg::Vector& gb = acc.b[li];
    for (std::size_t i = 0; i < delta.size(); ++i) gb[i] += scale * (0.0 + delta[i]);
    if (li > 0 || dx != nullptr) {
      linalg::Vector dprev = linalg::matvec_t(p_.w[li], delta);
      if (li == 0) {
        if (dx) {
          if (dx->empty()) dx->assign(dprev.begin(), dprev.end());
          else
            for (std::size_t i = 0; i < dprev.size(); ++i) (*dx)[i] += dprev[i];
        }
      } else {
        delta = std::move(dprev);
      }
    }
  }
}

void Mlp::save(TextWriter& w) const {
  w.tag("mlp");
  w.scalar_u(static_cast<std::size_t>(activation_));
  linalg::Vector sizes(sizes_.begin(), sizes_.end());
  w.vector(sizes);
  for (std::size_t l = 0; l < p_.w.size(); ++l) {
    w.matrix(p_.w[l]);
    w.vector(p_.b[l]);
  }
}

Mlp Mlp::load(TextReader& r) {
  r.expect("mlp");
  Mlp net;
  net.activation_ = static_cast<Activation>(r.scalar_u());
  for (double s : r.vector()) net.sizes_.push_back(static_cast<std::size_t>(s));
  GLIMPSE_CHECK(net.sizes_.size() >= 2);
  for (std::size_t l = 0; l + 1 < net.sizes_.size(); ++l) {
    net.p_.w.push_back(r.matrix());
    net.p_.b.push_back(r.vector());
    GLIMPSE_CHECK(net.p_.w[l].rows() == net.sizes_[l + 1] &&
                  net.p_.w[l].cols() == net.sizes_[l]);
    GLIMPSE_CHECK(net.p_.b[l].size() == net.sizes_[l + 1]);
  }
  return net;
}

MlpParams Mlp::zero_like() const {
  MlpParams g;
  for (std::size_t l = 0; l < p_.w.size(); ++l) {
    g.w.emplace_back(p_.w[l].rows(), p_.w[l].cols());
    g.b.emplace_back(p_.b[l].size(), 0.0);
  }
  return g;
}

}  // namespace glimpse::nn
