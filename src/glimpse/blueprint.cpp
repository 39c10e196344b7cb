#include "glimpse/blueprint.hpp"

#include "common/logging.hpp"

namespace glimpse::core {

BlueprintEncoder::BlueprintEncoder(std::size_t dim, const linalg::Matrix& features) {
  GLIMPSE_CHECK(dim >= 1 && dim <= features.cols());
  pca_.fit(features, dim);
  information_loss_ = pca_.reconstruction_rmse(features);
}

linalg::Vector BlueprintEncoder::encode(const hwspec::GpuSpec& gpu) const {
  return pca_.transform(gpu.to_features());
}

linalg::Vector BlueprintEncoder::decode(std::span<const double> blueprint) const {
  return pca_.inverse_transform(blueprint);
}

std::vector<BlueprintDsePoint> BlueprintEncoder::design_space_exploration(
    const linalg::Matrix& features) {
  std::vector<BlueprintDsePoint> points;
  for (std::size_t k = 1; k <= features.cols(); ++k) {
    ml::Pca pca;
    pca.fit(features, k);
    BlueprintDsePoint p;
    p.dim = k;
    p.size_fraction = static_cast<double>(k) / static_cast<double>(features.cols());
    p.information_loss = pca.reconstruction_rmse(features);
    p.explained_variance = pca.explained_variance_ratio();
    points.push_back(p);
  }
  return points;
}

std::size_t BlueprintEncoder::choose_dim(double max_loss, const linalg::Matrix& features) {
  for (std::size_t k = 1; k <= features.cols(); ++k) {
    ml::Pca pca;
    pca.fit(features, k);
    if (1.0 - pca.explained_variance_ratio() < max_loss) return k;
  }
  return features.cols();
}

void BlueprintEncoder::save(TextWriter& w) const {
  w.tag("blueprint");
  pca_.save(w);
  w.scalar(information_loss_);
}

BlueprintEncoder BlueprintEncoder::load(TextReader& r) {
  r.expect("blueprint");
  BlueprintEncoder enc;
  enc.pca_ = ml::Pca::load(r);
  enc.information_loss_ = r.scalar();
  return enc;
}

std::size_t default_blueprint_dim() {
  static const std::size_t dim = BlueprintEncoder::choose_dim();
  return dim;
}

}  // namespace glimpse::core
