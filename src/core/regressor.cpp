#include "hdc/core/regressor.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

namespace {

std::size_t checked_dimension(const ScalarEncoderPtr& labels) {
  require(labels != nullptr, "HDRegressor", "labels encoder must not be null");
  return labels->dimension();
}

}  // namespace

HDRegressor::HDRegressor(ScalarEncoderPtr labels, std::uint64_t seed)
    : labels_(labels), accumulator_(checked_dimension(labels)) {
  Rng rng(derive_seed(seed, 0x4E64ULL));
  tie_breaker_ = Hypervector::random(dimension(), rng);
}

HDRegressor::HDRegressor(ScalarEncoderPtr labels, restore_t)
    : labels_(std::move(labels)), accumulator_(1) {}

HDRegressor HDRegressor::from_model(ScalarEncoderPtr labels,
                                    Hypervector model) {
  require(labels != nullptr, "HDRegressor::from_model",
          "labels encoder must not be null");
  HDRegressor restored(std::move(labels), restore_t{});
  require(model.dimension() == restored.dimension(), "HDRegressor::from_model",
          "model dimension must match the label encoder");
  restored.inference_only_ = true;
  restored.set_model(std::move(model));
  return restored;
}

void HDRegressor::require_trainable(const char* where) const {
  if (inference_only_) {
    throw std::logic_error(
        std::string(where) +
        ": model restored from its quantized hypervector is inference-only "
        "(trainable() == false)");
  }
}

void HDRegressor::require_finalized(const char* where) const {
  if (!finalized_) {
    throw std::logic_error(std::string(where) + ": call finalize() first");
  }
}

void HDRegressor::set_model(Hypervector model) {
  model_ = std::move(model);
  const std::size_t stride = bits::words_for(dimension());
  const auto grid = labels_->grid_words();
  keyed_.resize(labels_->size() * stride);
  for (std::size_t l = 0; l < labels_->size(); ++l) {
    bits::xor_rows(std::span(keyed_).subspan(l * stride, stride),
                   model_.words(), grid.subspan(l * stride, stride));
  }
  finalized_ = true;
}

void HDRegressor::add_sample(HypervectorView encoded_input, double label) {
  require_trainable("HDRegressor::add_sample");
  require(encoded_input.dimension() == dimension(), "HDRegressor::add_sample",
          "input dimension mismatch");
  accumulator_.add(encoded_input ^ labels_->encode(label));
  finalized_ = false;
}

void HDRegressor::absorb(const BundleAccumulator& partial) {
  require_trainable("HDRegressor::absorb");
  accumulator_.merge(partial);
  finalized_ = false;
}

void HDRegressor::finalize() {
  require_trainable("HDRegressor::finalize");
  set_model(accumulator_.finalize(tie_breaker_));
}

double HDRegressor::adapt(HypervectorView encoded_input, double target) {
  require_trainable("HDRegressor::adapt");
  require_finalized("HDRegressor::adapt");
  require(encoded_input.dimension() == dimension(), "HDRegressor::adapt",
          "input dimension mismatch");
  const double predicted = predict(encoded_input);
  // Mistakes are judged on the label grid: predicted is already a grid value
  // and any target is quantized by phi_l before it can influence the model.
  if (labels_->index_of(target) != labels_->index_of(predicted)) {
    accumulator_.add(encoded_input ^ labels_->encode(target));
    accumulator_.subtract(encoded_input ^ labels_->encode(predicted));
    set_model(accumulator_.finalize(tie_breaker_));
  }
  return predicted;
}

double HDRegressor::predict(HypervectorView encoded_input) const {
  require_finalized("HDRegressor::predict");
  require(encoded_input.dimension() == dimension(), "HDRegressor::predict",
          "input dimension mismatch");
  // d(q, M ⊗ L_l) = d(M ⊗ q, L_l): the nearest keyed row is the label
  // decode() would clean M ⊗ phi(x̂) up to, found without binding q.
  const std::size_t stride = bits::words_for(dimension());
  const bits::NearestMatch nearest = bits::nearest_hamming(
      encoded_input.words(), keyed_, stride, labels_->size());
  return labels_->value_of(nearest.index);
}

void HDRegressor::label_distances(HypervectorView encoded_input,
                                  std::span<std::size_t> out) const {
  require_finalized("HDRegressor::label_distances");
  require(encoded_input.dimension() == dimension(),
          "HDRegressor::label_distances", "input dimension mismatch");
  require(out.size() >= labels_->size(), "HDRegressor::label_distances",
          "out must hold one distance per label grid point");
  const auto query = encoded_input.words();
  const std::size_t stride = bits::words_for(dimension());
  bits::hamming_many(query, keyed_, stride, labels_->size(), out);
}

Band HDRegressor::predict_band(HypervectorView encoded_input) const {
  std::vector<std::size_t> distances(labels_->size());
  label_distances(encoded_input, distances);
  return band_from_distances(distances, *labels_, dimension());
}

double HDRegressor::predict_integer(HypervectorView encoded_input) const {
  require_trainable("HDRegressor::predict_integer");
  require(encoded_input.dimension() == dimension(),
          "HDRegressor::predict_integer", "input dimension mismatch");
  const Basis& basis = labels_->basis();
  std::size_t best_index = 0;
  std::int64_t best_score = std::numeric_limits<std::int64_t>::min();
  // phi(x̂) ⊗ L_l is XORed into one scratch row per label, so the scoring
  // loop never allocates.
  std::vector<std::uint64_t> scratch(bits::words_for(dimension()));
  const auto input = encoded_input.words();
  for (std::size_t l = 0; l < basis.size(); ++l) {
    bits::xor_rows(scratch, input, basis[l].words());
    const std::int64_t score = accumulator_.signed_projection(
        HypervectorView(dimension(), scratch));
    if (score > best_score) {
      best_score = score;
      best_index = l;
    }
  }
  return labels_->value_of(best_index);
}

const Hypervector& HDRegressor::model() const {
  require_finalized("HDRegressor::model");
  return model_;
}

std::span<const std::uint64_t> HDRegressor::keyed_label_words() const {
  require_finalized("HDRegressor::keyed_label_words");
  return keyed_;
}

}  // namespace hdc
