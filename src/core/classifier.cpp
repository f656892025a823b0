#include "hdc/core/classifier.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "hdc/base/require.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/core/ops.hpp"

namespace hdc {

CentroidClassifier::CentroidClassifier(std::size_t num_classes,
                                       std::size_t dimension,
                                       std::uint64_t seed)
    : dimension_(dimension), num_classes_(num_classes) {
  require_positive(num_classes, "CentroidClassifier", "num_classes");
  require_positive(dimension, "CentroidClassifier", "dimension");
  accumulators_.reserve(num_classes);
  for (std::size_t i = 0; i < num_classes; ++i) {
    accumulators_.emplace_back(dimension);
  }
  words_per_class_ = bits::words_for(dimension);
  class_arena_ =
      std::vector<std::uint64_t>(num_classes * words_per_class_, 0ULL);
  Rng rng(derive_seed(seed, 0xC1A55ULL));
  tie_breaker_ = Hypervector::random(dimension, rng);
}

CentroidClassifier CentroidClassifier::from_class_vectors(
    std::vector<Hypervector> vectors) {
  require(!vectors.empty(), "CentroidClassifier::from_class_vectors",
          "need at least one class-vector");
  const std::size_t dimension = vectors.front().dimension();
  require(dimension > 0, "CentroidClassifier::from_class_vectors",
          "class-vectors must be non-empty");
  for (const Hypervector& hv : vectors) {
    require(hv.dimension() == dimension,
            "CentroidClassifier::from_class_vectors",
            "class-vectors must share one dimension");
  }
  return from_packed_class_words(vectors.size(), dimension,
                                 WordStorage(pack_words(vectors)), unchecked);
}

CentroidClassifier CentroidClassifier::from_packed_class_words(
    std::size_t num_classes, std::size_t dimension, WordStorage arena) {
  require(num_classes > 0, "CentroidClassifier::from_packed_class_words",
          "num_classes must be positive");
  require_positive(dimension, "CentroidClassifier::from_packed_class_words",
                   "dimension");
  const std::size_t words_per_class = bits::words_for(dimension);
  const auto words = arena.words();
  // Division form so a crafted num_classes cannot overflow the multiply and
  // slip an undersized arena past validation.
  require(words.size() % words_per_class == 0 &&
              words.size() / words_per_class == num_classes,
          "CentroidClassifier::from_packed_class_words",
          "arena word count must be num_classes * words_for(dimension)");
  const std::uint64_t tail = bits::tail_mask(dimension);
  for (std::size_t c = 0; c < num_classes; ++c) {
    require((words[(c + 1) * words_per_class - 1] & ~tail) == 0,
            "CentroidClassifier::from_packed_class_words",
            "arena row has set bits beyond the dimension");
  }
  return from_packed_class_words(num_classes, dimension, std::move(arena),
                                 unchecked);
}

CentroidClassifier CentroidClassifier::from_packed_class_words(
    std::size_t num_classes, std::size_t dimension, WordStorage arena,
    unchecked_t) {
  CentroidClassifier model;
  model.dimension_ = dimension;
  model.num_classes_ = num_classes;
  model.words_per_class_ = bits::words_for(dimension);
  model.class_arena_ = std::move(arena);
  model.class_arena_.shrink_to_fit();
  model.finalized_ = true;
  model.inference_only_ = true;
  return model;
}

CentroidClassifier CentroidClassifier::detach() const {
  require_finalized("CentroidClassifier::detach");
  return from_packed_class_words(num_classes_, dimension_,
                                 class_arena_.to_owned(), unchecked);
}

void CentroidClassifier::require_trainable(const char* where) const {
  if (inference_only_) {
    throw std::logic_error(
        std::string(where) +
        ": model restored from class-vectors is inference-only "
        "(trainable() == false)");
  }
}

void CentroidClassifier::add_sample(std::size_t label, HypervectorView encoded) {
  require_trainable("CentroidClassifier::add_sample");
  require(label < num_classes_, "CentroidClassifier::add_sample",
          "label out of range");
  accumulators_[label].add(encoded);
  finalized_ = false;
}

void CentroidClassifier::absorb(std::size_t label,
                                const BundleAccumulator& partial) {
  require_trainable("CentroidClassifier::absorb");
  require(label < num_classes_, "CentroidClassifier::absorb",
          "label out of range");
  accumulators_[label].merge(partial);
  finalized_ = false;
}

void CentroidClassifier::store_class(std::size_t label, HypervectorView vector) {
  require(label < num_classes_, "CentroidClassifier::store_class",
          "label out of range");
  require(vector.dimension() == dimension_, "CentroidClassifier::store_class",
          "vector dimension mismatch");
  pack_row(vector, class_arena_.mutable_words(), words_per_class_, label);
}

void CentroidClassifier::finalize() {
  require_trainable("CentroidClassifier::finalize");
  for (std::size_t i = 0; i < accumulators_.size(); ++i) {
    store_class(i, accumulators_[i].finalize(tie_breaker_));
  }
  finalized_ = true;
}

void CentroidClassifier::require_finalized(const char* where) const {
  if (!finalized_) {
    throw std::logic_error(std::string(where) +
                           ": call finalize() before inference");
  }
}

std::size_t CentroidClassifier::predict(HypervectorView query) const {
  require_finalized("CentroidClassifier::predict");
  require(query.dimension() == dimension_, "CentroidClassifier::predict",
          "query dimension mismatch");
  return predict_words(query.words());
}

std::size_t CentroidClassifier::predict_words(
    std::span<const std::uint64_t> query_words) const {
  // The finalized gate must hold here too, not just in predict(): this is the
  // batch runtime's entry point, and skipping the check let a model
  // invalidated by add_sample()/absorb() silently serve the stale arena.
  require_finalized("CentroidClassifier::predict_words");
  require(query_words.size() == words_per_class_,
          "CentroidClassifier::predict_words",
          "query word count must equal words_per_class()");
  return bits::nearest_hamming(query_words, class_arena_.words(),
                               words_per_class_, num_classes_)
      .index;
}

Top2 CentroidClassifier::predict_top2(HypervectorView query) const {
  require_finalized("CentroidClassifier::predict_top2");
  require(query.dimension() == dimension_, "CentroidClassifier::predict_top2",
          "query dimension mismatch");
  return predict_top2_words(query.words());
}

Top2 CentroidClassifier::predict_top2_words(
    std::span<const std::uint64_t> query_words) const {
  require_finalized("CentroidClassifier::predict_top2_words");
  require(query_words.size() == words_per_class_,
          "CentroidClassifier::predict_top2_words",
          "query word count must equal words_per_class()");
  return top2_hamming(query_words, class_arena_.words(), words_per_class_,
                      num_classes_);
}

double CentroidClassifier::class_similarity(std::size_t label,
                                            HypervectorView query) const {
  require_finalized("CentroidClassifier::class_similarity");
  require(label < num_classes_,
          "CentroidClassifier::class_similarity", "label out of range");
  return similarity(query, class_vector(label));
}

std::vector<double> CentroidClassifier::similarities(
    HypervectorView query) const {
  require_finalized("CentroidClassifier::similarities");
  require(query.dimension() == dimension_, "CentroidClassifier::similarities",
          "query dimension mismatch");
  std::vector<std::size_t> distances(num_classes_);
  bits::hamming_many(query.words(), class_arena_.words(), words_per_class_,
                     num_classes_, distances);
  std::vector<double> out;
  out.reserve(distances.size());
  for (const std::size_t dist : distances) {
    out.push_back(1.0 -
                  static_cast<double>(dist) / static_cast<double>(dimension_));
  }
  return out;
}

std::size_t CentroidClassifier::adapt(std::size_t label,
                                      HypervectorView encoded) {
  require_trainable("CentroidClassifier::adapt");
  require(label < num_classes_, "CentroidClassifier::adapt",
          "label out of range");
  require_finalized("CentroidClassifier::adapt");
  const std::size_t predicted = predict(encoded);
  if (predicted != label) {
    accumulators_[label].add(encoded);
    accumulators_[predicted].subtract(encoded);
    store_class(label, accumulators_[label].finalize(tie_breaker_));
    store_class(predicted, accumulators_[predicted].finalize(tie_breaker_));
  }
  return predicted;
}

HypervectorView CentroidClassifier::class_vector(std::size_t label) const {
  require_finalized("CentroidClassifier::class_vector");
  require(label < num_classes_, "CentroidClassifier::class_vector",
          "label out of range");
  return row_view(class_arena_.words(), dimension_, words_per_class_, label);
}

std::size_t CentroidClassifier::class_count(std::size_t label) const {
  require(label < num_classes_, "CentroidClassifier::class_count",
          "label out of range");
  return inference_only_ ? 0 : accumulators_[label].count();
}

}  // namespace hdc
