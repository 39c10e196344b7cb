// Blueprint: the mathematical embedding of a GPU's datasheet specification
// (paper §3.1).
//
// Raw datasheet features (hwspec::GpuSpec::to_features) are standardized and
// compressed with PCA. PCA is chosen over a neural autoencoder exactly as
// the paper argues: the component count is an intuitive knob trading
// embedding size against information loss, and fitting is cheap. The
// design-space exploration of Fig. 8 sweeps that knob and reports
// reconstruction RMSE (in standardized units, where dropping everything
// gives RMSE 1.0 — so the value doubles as a relative "information loss").
#pragma once

#include <memory>
#include <vector>

#include "hwspec/database.hpp"
#include "ml/pca.hpp"

namespace glimpse::core {

/// One point of the Fig. 8 design-space exploration.
struct BlueprintDsePoint {
  std::size_t dim = 0;
  double size_fraction = 0.0;   ///< dim / full feature count
  double information_loss = 0.0;///< reconstruction RMSE (standardized units)
  double explained_variance = 0.0;
};

class BlueprintEncoder {
 public:
  /// Fit on the rows of `features` (defaults to the full GPU database),
  /// keeping `dim` principal components.
  explicit BlueprintEncoder(std::size_t dim,
                            const linalg::Matrix& features = hwspec::feature_matrix());

  /// Embedding of one GPU's datasheet.
  linalg::Vector encode(const hwspec::GpuSpec& gpu) const;

  /// Approximate datasheet reconstructed from an embedding (original units).
  linalg::Vector decode(std::span<const double> blueprint) const;

  std::size_t dim() const { return pca_.num_components(); }
  /// Reconstruction RMSE on the fit population (the Fig. 8 y-axis).
  double information_loss() const { return information_loss_; }

  void save(TextWriter& w) const;
  static BlueprintEncoder load(TextReader& r);

  /// Sweep embedding dimension 1..d over the GPU population (Fig. 8).
  static std::vector<BlueprintDsePoint> design_space_exploration(
      const linalg::Matrix& features = hwspec::feature_matrix());

  /// Smallest dimension whose *variance loss* (1 - explained variance) is
  /// below `max_loss` — the paper targets < 0.5 % information loss at the
  /// Fig. 8 knee (red star).
  static std::size_t choose_dim(double max_loss = 0.005,
                                const linalg::Matrix& features = hwspec::feature_matrix());

 private:
  BlueprintEncoder() = default;  // for load()

  ml::Pca pca_;
  double information_loss_ = 0.0;
};

/// The embedding dimension used by default throughout the library
/// (the Fig. 8 knee point for the bundled GPU database).
std::size_t default_blueprint_dim();

}  // namespace glimpse::core
