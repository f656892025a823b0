#include "hdc/core/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"
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

std::size_t AdaptiveClassifier::predict(HypervectorView query) const {
  return nearest_in_slice(query, 0, num_classes()).second;
}

std::pair<std::uint64_t, std::size_t> AdaptiveClassifier::nearest_in_slice(
    HypervectorView query, std::size_t begin, std::size_t end) const {
  require(query.dimension() == dimension(),
          "AdaptiveClassifier::nearest_in_slice", "query dimension mismatch");
  require(begin < end && end <= num_classes(),
          "AdaptiveClassifier::nearest_in_slice", "slice out of range");
  const std::size_t stride = base_->words_per_class();
  std::vector<std::size_t> distances(end - begin);
  bits::hamming_many(query.words(),
                     base_->packed_class_words().subspan(begin * stride),
                     stride, end - begin, distances);
  // Substitute overlay rows after the fused base scan: cheaper than a
  // per-class branch, and the map walk touches only the overlaid slice.
  for (auto it = overlay_.lower_bound(begin);
       it != overlay_.end() && it->first < end; ++it) {
    distances[it->first - begin] = bits::hamming(
        query.words(), std::span<const std::uint64_t>(it->second.row));
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < distances.size(); ++i) {
    if (distances[i] < distances[best]) {
      best = i;
    }
  }
  return {static_cast<std::uint64_t>(distances[best]), begin + best};
}

Top2 AdaptiveClassifier::top2_in_slice(HypervectorView query,
                                       std::size_t begin,
                                       std::size_t end) const {
  require(query.dimension() == dimension(), "AdaptiveClassifier::top2_in_slice",
          "query dimension mismatch");
  require(begin < end && end <= num_classes(),
          "AdaptiveClassifier::top2_in_slice", "slice out of range");
  const std::size_t stride = base_->words_per_class();
  std::vector<std::size_t> distances(end - begin);
  bits::hamming_many(query.words(),
                     base_->packed_class_words().subspan(begin * stride),
                     stride, end - begin, distances);
  for (auto it = overlay_.lower_bound(begin);
       it != overlay_.end() && it->first < end; ++it) {
    distances[it->first - begin] = bits::hamming(
        query.words(), std::span<const std::uint64_t>(it->second.row));
  }
  Top2 top{};
  for (std::size_t i = 0; i < distances.size(); ++i) {
    top2_offer(top, Candidate{static_cast<std::uint64_t>(distances[i]),
                              static_cast<std::uint64_t>(begin + i)});
  }
  return top;
}

Top2 AdaptiveClassifier::predict_top2(HypervectorView query) const {
  return top2_in_slice(query, 0, num_classes());
}

AdaptiveClassifier::Overlay& AdaptiveClassifier::touch(std::size_t label) {
  const auto it = overlay_.find(label);
  if (it != overlay_.end()) {
    return it->second;
  }
  const HypervectorView base_row = row_view(
      base_->packed_class_words(), dimension(), base_->words_per_class(), label);
  Overlay overlay{BundleAccumulator(dimension()),
                  std::vector<std::uint64_t>(base_row.words().begin(),
                                             base_row.words().end())};
  // One majority vote for the snapshot state: counter = bit ? +1 : -1.  The
  // original training counters are not serialized, so the overlay treats the
  // finalized row itself as the prior each feedback sample then shifts.
  overlay.acc.add(base_row);
  return overlay_.emplace(label, std::move(overlay)).first->second;
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
    Overlay& truth = touch(label);
    Overlay& missed = touch(predicted);  // std::map: no reference invalidation.
    truth.acc.add(encoded);
    missed.acc.subtract(encoded);
    pack_row(truth.acc.finalize(tie_breaker_), truth.row,
             base_->words_per_class(), 0);
    pack_row(missed.acc.finalize(tie_breaker_), missed.row,
             base_->words_per_class(), 0);
    ++updates_;
  }
  return predicted;
}

std::span<const std::uint64_t> AdaptiveClassifier::class_row(
    std::size_t label) const {
  require(label < num_classes(), "AdaptiveClassifier::class_row",
          "label out of range");
  const auto it = overlay_.find(label);
  if (it != overlay_.end()) {
    return it->second.row;
  }
  const std::size_t stride = base_->words_per_class();
  return base_->packed_class_words().subspan(label * stride, stride);
}

std::map<std::size_t, std::vector<std::uint64_t>>
AdaptiveClassifier::changed_rows() const {
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  for (const auto& [label, overlay] : overlay_) {
    rows.emplace(label, overlay.row);
  }
  return rows;
}

CentroidClassifier AdaptiveClassifier::materialize() const {
  const auto base_words = base_->packed_class_words();
  std::vector<std::uint64_t> arena(base_words.begin(), base_words.end());
  const std::size_t stride = base_->words_per_class();
  for (const auto& [label, overlay] : overlay_) {
    std::copy(overlay.row.begin(), overlay.row.end(),
              arena.begin() + static_cast<std::ptrdiff_t>(label * stride));
  }
  // Overlay rows come from pack_row(finalize(...)) so the tail invariant
  // holds by construction; skip the re-scan.
  return CentroidClassifier::from_packed_class_words(
      num_classes(), dimension(), WordStorage(std::move(arena)), unchecked);
}

void AdaptiveClassifier::reset() noexcept {
  overlay_.clear();
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
