#include "hdc/core/adaptive.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

namespace {

// Tie-breaker salts, disjoint from the trainable models' 0xC1A55 / 0x4E64 so
// an overlay never correlates with its base's training-time tie vector.
constexpr std::uint64_t kAdaptiveClassifierSalt = 0xADC1A55ULL;
constexpr std::uint64_t kAdaptiveRegressorSalt = 0xAD4E64ULL;

}  // namespace

std::size_t checked_class_label(double target, std::size_t num_classes) {
  // `target == floor(target)` also rejects nan; the >= 0 comparison is
  // written to reject -0.5 without tripping on -0.0.
  if (!(target >= 0.0) || target != std::floor(target) ||
      target >= static_cast<double>(num_classes)) {
    throw std::invalid_argument(
        "adapt: classifier target must be an integral class label in [0, " +
        std::to_string(num_classes) + ")");
  }
  return static_cast<std::size_t>(target);
}

AdaptiveClassifier::AdaptiveClassifier(
    std::shared_ptr<const CentroidClassifier> base, std::uint64_t seed)
    : base_(std::move(base)) {
  require(base_ != nullptr, "AdaptiveClassifier", "base model must not be null");
  if (!base_->finalized()) {
    throw std::logic_error(
        "AdaptiveClassifier: base model must be finalized before overlaying");
  }
  Rng rng(derive_seed(seed, kAdaptiveClassifierSalt));
  tie_breaker_ = Hypervector::random(base_->dimension(), rng);
}

BundleAccumulator& AdaptiveClassifier::touch(std::size_t label) {
  const auto it = touched_.find(label);
  if (it != touched_.end()) {
    return it->second;
  }
  // One majority vote for the snapshot state: counter = bit ? +1 : -1.  The
  // original training counters are not serialized, so the overlay treats the
  // finalized row itself as the prior each feedback sample then shifts.
  BundleAccumulator acc(dimension());
  acc.add(base_->class_vector(label));
  return touched_.emplace(label, std::move(acc)).first->second;
}

std::size_t AdaptiveClassifier::adapt(std::size_t label,
                                      HypervectorView encoded) {
  require(label < num_classes(), "AdaptiveClassifier::adapt",
          "label out of range");
  require(encoded.dimension() == dimension(), "AdaptiveClassifier::adapt",
          "sample dimension mismatch");
  const std::size_t predicted = predict(encoded);
  ++seen_;
  if (predicted != label) {
    if (!adapted_) {
      adapted_ = base_->detach();
    }
    BundleAccumulator& truth = touch(label);
    BundleAccumulator& missed = touch(predicted);  // std::map: stable refs.
    truth.add(encoded);
    missed.subtract(encoded);
    adapted_->store_class(label, truth.finalize(tie_breaker_));
    adapted_->store_class(predicted, missed.finalize(tie_breaker_));
    ++updates_;
  }
  return predicted;
}

std::map<std::size_t, std::vector<std::uint64_t>>
AdaptiveClassifier::changed_rows() const {
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  for (const auto& entry : touched_) {
    const auto words = current().class_vector(entry.first).words();
    rows.emplace(entry.first,
                 std::vector<std::uint64_t>(words.begin(), words.end()));
  }
  return rows;
}

void AdaptiveClassifier::reset() noexcept {
  adapted_.reset();
  touched_.clear();
  seen_ = 0;
  updates_ = 0;
}

AdaptiveRegressor::AdaptiveRegressor(std::shared_ptr<const HDRegressor> base,
                                     std::uint64_t seed)
    : base_(std::move(base)) {
  require(base_ != nullptr, "AdaptiveRegressor", "base model must not be null");
  if (!base_->finalized()) {
    throw std::logic_error(
        "AdaptiveRegressor: base model must be finalized before overlaying");
  }
  Rng rng(derive_seed(seed, kAdaptiveRegressorSalt));
  tie_breaker_ = Hypervector::random(base_->dimension(), rng);
}

double AdaptiveRegressor::adapt(HypervectorView encoded_input, double target) {
  require(encoded_input.dimension() == dimension(), "AdaptiveRegressor::adapt",
          "input dimension mismatch");
  const double predicted = predict(encoded_input);
  ++seen_;
  const ScalarEncoder& labels = base_->labels();
  // Compare on the label grid: predicted is already a grid value, and any
  // target is first quantized by phi_l anyway.
  if (labels.index_of(target) != labels.index_of(predicted)) {
    if (overlay_ == nullptr) {
      auto model = HDRegressor::from_model(base_->labels_ptr(), base_->model());
      overlay_ = std::make_unique<Overlay>(
          Overlay{BundleAccumulator(dimension()), std::move(model)});
      overlay_->acc.add(base_->model());  // Majority-vote prior, as above.
    }
    overlay_->acc.add(encoded_input ^ labels.encode(target));
    overlay_->acc.subtract(encoded_input ^ labels.encode(predicted));
    overlay_->model = HDRegressor::from_model(
        base_->labels_ptr(), overlay_->acc.finalize(tie_breaker_));
    ++updates_;
  }
  return predicted;
}

std::map<std::size_t, std::vector<std::uint64_t>>
AdaptiveRegressor::changed_rows() const {
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  if (overlay_ != nullptr) {
    const auto words = overlay_->model.model().words();
    rows.emplace(0, std::vector<std::uint64_t>(words.begin(), words.end()));
  }
  return rows;
}

HDRegressor AdaptiveRegressor::materialize() const {
  return HDRegressor::from_model(base_->labels_ptr(), current().model());
}

void AdaptiveRegressor::reset() noexcept {
  overlay_.reset();
  seen_ = 0;
  updates_ = 0;
}

}  // namespace hdc
