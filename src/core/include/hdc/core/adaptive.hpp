#ifndef HDC_CORE_ADAPTIVE_HPP
#define HDC_CORE_ADAPTIVE_HPP

/// \file adaptive.hpp
/// \brief Copy-on-write online adaptation over restored (borrowed) models.
///
/// Restored models are inference-only by design: their integer accumulators
/// are not part of the serialized state, and a snapshot-backed arena is a
/// read-only mapping that must never be written.  Production models drift
/// anyway, so serving needs the OnlineHD-style mistake-driven refinement
/// *without* giving up the zero-copy base.  The overlay classes here provide
/// exactly that:
///
///  * the base model (typically borrowed straight off an
///    `hdc::io::MappedSnapshot`) stays untouched and keeps serving;
///  * the first `adapt()` that changes a classifier copies the base class
///    arena once (C × d/8 bytes) into an owning inference-only model, and
///    later updates re-pack only the touched rows of that copy, in place; a
///    regressor's overlay is its one model row, rebuilt with its keyed
///    label rows by every update;
///  * each touched row gets an accumulator seeded from the row's bits
///    (counter = bit ? +1 : -1 — one majority vote for the snapshot state);
///  * `current()` is the model every readout sweeps: the base until the
///    first update, the copy after it.  An overlay with no update is
///    therefore bit-identical to the base, and `materialize()` is an owning
///    copy of `current()`.
///
/// The touched rows are exactly the payload of an HDCS v4 delta section
/// (`hdc::io::SnapshotWriter::add_delta`): an adapted model ships as base +
/// small patch instead of a full snapshot.
///
/// Determinism: two overlays built with the same seed over the same base and
/// fed the same feedback stream are bit-identical — the property the cluster
/// layer relies on when broadcasting `!adapt` feedback to every rank.
///
/// Thread safety: const members are safe to call concurrently; `adapt()`
/// re-packs rows in place, so it must run alone — no other adapt() and no
/// reader of `current()` beside it (callers serialize, e.g.
/// `hdc::serve::AdaptiveState`).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hdc/core/accumulator.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/hypervector.hpp"
#include "hdc/core/regressor.hpp"

namespace hdc {

/// Default overlay seed shared by every serving layer.  Replicas fed the
/// same feedback stream must build bit-identical overlays (the cluster
/// broadcast correctness condition), so they must also agree on the
/// tie-breaker derivation — one well-known seed, overridable only when a
/// caller owns determinism end to end.
inline constexpr std::uint64_t kDefaultAdaptSeed = 0xADA57A7EULL;

/// Validates a feedback target for an N-class classifier: must be an
/// integral value in [0, num_classes).  Returns it as a class label.
/// \throws std::invalid_argument otherwise (the wire carries targets as
/// doubles, so "2.5" or "-1" must fail here, not truncate silently).
[[nodiscard]] std::size_t checked_class_label(double target,
                                              std::size_t num_classes);

/// Mistake-driven classifier overlay: a copy-on-write class arena over a
/// shared, finalized (usually snapshot-backed) `CentroidClassifier`.
class AdaptiveClassifier {
 public:
  /// \param base  Finalized base model; shared so the overlay keeps the
  /// snapshot mapping alive through whatever owns it.
  /// \param seed  Derives the deterministic majority tie-breaker.
  /// \throws std::invalid_argument if base is null;
  /// std::logic_error if base is not finalized.
  AdaptiveClassifier(std::shared_ptr<const CentroidClassifier> base,
                     std::uint64_t seed);

  [[nodiscard]] std::size_t num_classes() const noexcept {
    return base_->num_classes();
  }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return base_->dimension();
  }
  [[nodiscard]] const CentroidClassifier& base() const noexcept {
    return *base_;
  }

  /// The current model: the adapted copy once adapt() changed a row, else
  /// the base.  Every readout is this model's; a reference stays valid
  /// (rows re-packed in place) until the next reset().
  [[nodiscard]] const CentroidClassifier& current() const noexcept {
    return adapted_ ? *adapted_ : *base_;
  }

  /// current().predict(query).  \throws std::invalid_argument on dimension
  /// mismatch.
  [[nodiscard]] std::size_t predict(HypervectorView query) const {
    return current().predict(query);
  }

  /// One mistake-driven update: predicts \p encoded; on a miss copies the
  /// base class arena (first update only), adds the sample to the true
  /// class's accumulator, subtracts it from the predicted one's (each seeded
  /// on first touch), and re-packs both rows in place.  The model stays
  /// queryable-consistent after every call — there is no finalize() step to
  /// forget.  Returns the pre-update prediction.
  /// \throws std::invalid_argument on bad label or dimension mismatch.
  std::size_t adapt(std::size_t label, HypervectorView encoded);

  /// The touched rows, keyed by class index in ascending order — exactly
  /// the per-class changed-row patches of an HDCS delta section.
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// Number of classes an update has touched.
  [[nodiscard]] std::size_t touched_classes() const noexcept {
    return touched_.size();
  }
  /// Feedback rows seen / rows that actually updated the model.
  [[nodiscard]] std::uint64_t feedback_rows() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

  /// An owning, inference-only copy of current().
  [[nodiscard]] CentroidClassifier materialize() const {
    return current().detach();
  }

  /// Drops the adapted copy and every accumulator: the model is the base
  /// again.
  void reset() noexcept;

 private:
  BundleAccumulator& touch(std::size_t label);

  std::shared_ptr<const CentroidClassifier> base_;
  /// The adapted copy of the base arena, made by the first update.
  std::optional<CentroidClassifier> adapted_;
  /// Touched class -> its accumulator.
  std::map<std::size_t, BundleAccumulator> touched_;
  Hypervector tie_breaker_;
  std::uint64_t seen_ = 0;
  std::uint64_t updates_ = 0;
};

/// Mistake-driven regressor overlay: a copy-on-write model hypervector over
/// a shared, finalized (usually snapshot-backed) `HDRegressor`.
class AdaptiveRegressor {
 public:
  /// \throws std::invalid_argument if base is null; std::logic_error if
  /// base is not finalized.
  AdaptiveRegressor(std::shared_ptr<const HDRegressor> base,
                    std::uint64_t seed);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return base_->dimension();
  }
  [[nodiscard]] const HDRegressor& base() const noexcept { return *base_; }

  /// The current model: the overlay regressor once adapt() touched the
  /// model row, else the base.  Every readout below is this model's, keyed
  /// label rows included.
  [[nodiscard]] const HDRegressor& current() const noexcept {
    return overlay_ != nullptr ? overlay_->model : *base_;
  }

  /// decode(M ⊗ phi(x̂)) over the current model (HDRegressor::predict).
  /// \throws std::invalid_argument on dimension mismatch.
  [[nodiscard]] double predict(HypervectorView encoded_input) const {
    return current().predict(encoded_input);
  }

  /// The label-grid distance profile of the current model
  /// (HDRegressor::label_distances).  \p out must hold
  /// base().labels().size() entries.
  /// \throws std::invalid_argument on dimension or size mismatch.
  void label_distances(HypervectorView encoded_input,
                       std::span<std::size_t> out) const {
    current().label_distances(encoded_input, out);
  }

  /// p10/p50/p90 band over the current model (HDRegressor::predict_band).
  [[nodiscard]] Band predict_band(HypervectorView encoded_input) const {
    return current().predict_band(encoded_input);
  }

  /// One mistake-driven update, mirroring `HDRegressor::adapt`: on a decoded
  /// value that differs from \p target, adds phi(x̂) ⊗ phi_l(target),
  /// subtracts phi(x̂) ⊗ phi_l(predicted), and re-thresholds the model row
  /// (cloned from the base on first touch) into a fresh inference-only
  /// overlay regressor, keyed label rows included.  Returns the pre-update
  /// prediction.  \throws std::invalid_argument on dimension mismatch.
  double adapt(HypervectorView encoded_input, double target);

  /// The current model row's packed words (overlay if touched, else base).
  [[nodiscard]] std::span<const std::uint64_t> model_words() const {
    return current().model().words();
  }

  /// True once adapt() has cloned the model row.
  [[nodiscard]] bool touched() const noexcept { return overlay_ != nullptr; }
  [[nodiscard]] std::uint64_t feedback_rows() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t updates() const noexcept { return updates_; }

  /// The changed rows in delta-patch form: empty when untouched, else the
  /// single model row at index 0.
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// An owning, inference-only `HDRegressor` over the current model;
  /// predicts bit-identically to this overlay.
  [[nodiscard]] HDRegressor materialize() const;

  /// Drops the overlay: the model is the base again.
  void reset() noexcept;

 private:
  struct Overlay {
    BundleAccumulator acc;
    HDRegressor model;  ///< Inference-only, rebuilt by every update.
  };

  std::shared_ptr<const HDRegressor> base_;
  std::unique_ptr<Overlay> overlay_;
  Hypervector tie_breaker_;
  std::uint64_t seen_ = 0;
  std::uint64_t updates_ = 0;
};

}  // namespace hdc

#endif  // HDC_CORE_ADAPTIVE_HPP
