#ifndef HDC_CORE_CLASSIFIER_HPP
#define HDC_CORE_CLASSIFIER_HPP

/// \file classifier.hpp
/// \brief The standard HDC classification framework (Section 2.2, Figure 2).
///
/// Training bundles the encoded samples of each class i into a class-vector
/// M_i (the class "prototype"); inference returns the class whose vector is
/// nearest (argmin of the normalized Hamming distance) to the encoded query.
///
/// Beyond the paper's single-pass trainer, `adapt()` implements the common
/// mistake-driven refinement (add the sample to the true class accumulator,
/// subtract it from the wrongly predicted one) as a documented extension.

#include <cstdint>
#include <span>
#include <vector>

#include "hdc/core/accumulator.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/hypervector.hpp"
#include "hdc/core/word_storage.hpp"

namespace hdc {

/// Centroid (class-vector) classifier.
class CentroidClassifier {
 public:
  /// \throws std::invalid_argument if num_classes == 0 or dimension == 0.
  CentroidClassifier(std::size_t num_classes, std::size_t dimension,
                     std::uint64_t seed);

  /// Restores an inference-only model from finalized class-vectors (the
  /// serialization path).  The returned model predicts immediately; training
  /// updates (add_sample/absorb/adapt/finalize) throw std::logic_error
  /// because the integer accumulators are not part of the serialized state —
  /// query `trainable()` first instead of relying on the throw.
  /// \throws std::invalid_argument if vectors is empty or dimensions differ.
  [[nodiscard]] static CentroidClassifier from_class_vectors(
      std::vector<Hypervector> vectors);

  /// Restores an inference-only model straight from a packed class-vector
  /// arena (num_classes rows of bits::words_for(dimension) words each).
  /// Owning storage is adopted without copying; borrowed storage
  /// (WordStorage(span, borrowed)) serves predictions directly over an
  /// external mapping — the hdc::io::MappedSnapshot path.  Validates the
  /// word count and per-row tail invariants.
  /// \throws std::invalid_argument on any inconsistency.
  [[nodiscard]] static CentroidClassifier from_packed_class_words(
      std::size_t num_classes, std::size_t dimension, WordStorage arena);

  /// Trusted variant of from_packed_class_words() that skips the per-row
  /// invariant scan; only for arenas whose invariants are already proven
  /// (e.g. a checksum-verified snapshot section).  \pre same invariants as
  /// the validating overload.
  [[nodiscard]] static CentroidClassifier from_packed_class_words(
      std::size_t num_classes, std::size_t dimension, WordStorage arena,
      unchecked_t);

  /// True for models restored by from_class_vectors() /
  /// from_packed_class_words().
  [[nodiscard]] bool inference_only() const noexcept { return inference_only_; }

  /// False for restored inference-only models: every training-state mutator
  /// (add_sample, absorb, adapt, finalize) would throw std::logic_error.
  /// Callers holding deserialized models should branch on this instead of
  /// catching the throw.
  [[nodiscard]] bool trainable() const noexcept { return !inference_only_; }

  /// True when the class arena lives on this object's heap; false for
  /// borrowed (snapshot-backed) models.
  [[nodiscard]] bool owns_storage() const noexcept {
    return class_arena_.owning();
  }

  /// An owning deep copy of this finalized model (the crossover from
  /// snapshot-backed storage back to heap storage).  The copy is
  /// inference-only, like every restored model.
  /// \throws std::logic_error if the model is not finalized.
  [[nodiscard]] CentroidClassifier detach() const;

  [[nodiscard]] std::size_t num_classes() const noexcept {
    return num_classes_;
  }
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// Accumulates one encoded training sample into class \p label.
  /// \throws std::invalid_argument on bad label or dimension mismatch.
  void add_sample(std::size_t label, HypervectorView encoded);

  /// Merges a partial accumulation (e.g. one worker's share of a batch) into
  /// class \p label.  Counter addition commutes, so absorbing per-worker
  /// accumulators in any order equals the sequential add_sample stream.
  /// \throws std::invalid_argument on bad label or dimension mismatch;
  /// std::logic_error on inference-only models.
  void absorb(std::size_t label, const BundleAccumulator& partial);

  /// Thresholds all accumulators into class-vectors.  Must be called after
  /// training (add_sample/absorb) before predict(); adapt() refreshes the
  /// touched class-vectors itself and never invalidates the model.
  /// \throws std::logic_error on inference-only models (no accumulators).
  void finalize();

  /// True once finalize() has been called and no update invalidated it.
  [[nodiscard]] bool finalized() const noexcept { return finalized_; }

  /// argmin_i delta(query, M_i); ties keep the lowest class index.  Runs on
  /// the fused XOR+popcount kernel over the packed class-vector arena.
  /// \throws std::logic_error if the model is not finalized.
  /// \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] std::size_t predict(HypervectorView query) const;

  /// predict() on a raw word span; the allocation-free entry point shared
  /// with the batch runtime.  The span must carry exactly
  /// words_per_class() words with tail bits zero.
  /// \throws std::logic_error if the model is not finalized (same gate as
  /// predict(); this path used to skip it and silently serve the stale
  /// arena after add_sample()/absorb()).
  /// \throws std::invalid_argument if query_words.size() !=
  /// words_per_class().
  [[nodiscard]] std::size_t predict_words(
      std::span<const std::uint64_t> query_words) const;

  /// The finalized class-vectors bit-packed into one contiguous arena
  /// (class i at words [i * words_per_class(), ...)); the *only* class-vector
  /// storage, rewritten by finalize() and adapt().  All-zero rows until the
  /// first finalize().
  [[nodiscard]] std::span<const std::uint64_t> packed_class_words()
      const noexcept {
    return class_arena_.words();
  }

  /// Arena stride in 64-bit words.
  [[nodiscard]] std::size_t words_per_class() const noexcept {
    return words_per_class_;
  }

  /// The two nearest class-vectors as lexicographic (distance, index)
  /// candidates: `best` is exactly predict()'s argmin with lowest-index
  /// ties, `second` is absent for single-class models.  Feeds
  /// margin_confidence() — the classifier's confidence head.
  /// \throws std::logic_error / std::invalid_argument as for predict().
  [[nodiscard]] Top2 predict_top2(HypervectorView query) const;

  /// predict_top2() on a raw word span (the batch-runtime entry point);
  /// same contract as predict_words().
  [[nodiscard]] Top2 predict_top2_words(
      std::span<const std::uint64_t> query_words) const;

  /// Similarity (1 - delta) between the query and one class-vector.
  /// \throws std::logic_error / std::invalid_argument as for predict().
  [[nodiscard]] double class_similarity(std::size_t label,
                                        HypervectorView query) const;

  /// Similarities to every class-vector, index == label.
  [[nodiscard]] std::vector<double> similarities(HypervectorView query) const;

  /// Extension: one mistake-driven update.  Predicts \p encoded with the
  /// current class-vectors; on a miss, adds the sample to the true class and
  /// subtracts it from the predicted class, then refreshes the two affected
  /// class-vectors.  The model stays finalized and queryable-consistent
  /// after every call — no finalize() pass is needed between adapt() and
  /// predict().  Returns the (pre-update) prediction.
  /// \throws std::logic_error if the model is not finalized.
  std::size_t adapt(std::size_t label, HypervectorView encoded);

  /// The finalized class-vector M_label: a zero-copy view into the packed
  /// class arena, valid until the next finalize()/adapt().
  /// \throws std::logic_error / std::invalid_argument as for predict().
  [[nodiscard]] HypervectorView class_vector(std::size_t label) const;

  /// Number of training samples accumulated into a class so far; always 0
  /// for inference-only models (the accumulators are not serialized).
  [[nodiscard]] std::size_t class_count(std::size_t label) const;

  /// Overwrites class-vector \p label in the packed arena, leaving every
  /// other row as it is: how an adaptation overlay (hdc::AdaptiveClassifier)
  /// re-packs the rows feedback touched in its owning copy of a restored
  /// model.  \throws std::invalid_argument on a bad label or dimension;
  /// std::logic_error when the arena is borrowed (read-only).
  void store_class(std::size_t label, HypervectorView vector);

 private:
  /// Uninitialized shell for the inference-only restore paths, which skip
  /// the accumulator and tie-breaker allocation entirely (restoring a model
  /// must not cost O(num_classes * dimension) heap it can never use).
  CentroidClassifier() = default;

  void require_finalized(const char* where) const;
  void require_trainable(const char* where) const;

  std::size_t dimension_ = 0;
  std::size_t num_classes_ = 0;
  std::vector<BundleAccumulator> accumulators_;  ///< Empty when inference-only.
  WordStorage class_arena_;
  std::size_t words_per_class_ = 0;
  Hypervector tie_breaker_;
  bool finalized_ = false;
  bool inference_only_ = false;
};

}  // namespace hdc

#endif  // HDC_CORE_CLASSIFIER_HPP
