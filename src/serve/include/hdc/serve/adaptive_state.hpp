#ifndef HDC_SERVE_ADAPTIVE_STATE_HPP
#define HDC_SERVE_ADAPTIVE_STATE_HPP

/// \file adaptive_state.hpp
/// \brief The serving-side online-adaptation overlay behind `!adapt`.
///
/// A `ServingState` is immutable by design — that is what makes the RCU
/// hot swap safe.  Online feedback therefore cannot touch it; instead an
/// `AdaptiveState` pins one serving generation and grows a copy-on-write
/// overlay (hdc/core/adaptive.hpp) next to it:
///
///  * `adapt()` takes one `(sample, target)` feedback row, encodes it
///    over the pinned pipeline and applies the mistake-driven update: the
///    first update copies the model's arena once, later ones re-pack the
///    touched rows in place; the mmapped base keeps serving untouched, so
///    base and adapted generations are A/B-servable from one process
///    (`!use base|adapted`);
///  * `predict()` answers over the overlay's current model (the "adapted"
///    side of the A/B) through `predict_rows()` — the per-row step the base
///    path runs — in one call per batch under the mutex, so a batch never
///    sees half an update;
///  * `export_delta()` writes the adapted-vs-base difference as an HDCS v4
///    delta file — every row is compared against the pinned generation's
///    base snapshot *file*, so rows inherited from an earlier delta reload
///    stay in the patch and overlay rows that drifted back to the base drop
///    out.
///
/// All methods serialize on one internal mutex: feedback is a low-rate
/// control-plane stream, and the overlay's `adapt` re-packs rows that a
/// concurrent readout would be sweeping.  The pinned `ServingStatePtr`
/// keeps the snapshot mapping alive even after a hot swap replaces the
/// active state; the server drops the whole `AdaptiveState` when its
/// generation is no longer the active one (feedback against a retired
/// model is meaningless).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hdc/core/adaptive.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/serve/predictor.hpp"
#include "hdc/serve/swap_state.hpp"

namespace hdc::serve {

/// Mutex-guarded adaptation overlay over one pinned serving generation.
class AdaptiveState final : public Predictor {
 public:
  /// Pins \p base (which must hold a finalized model) and starts with an
  /// empty overlay: predictions are bit-identical to the base until the
  /// first effective adapt().  \throws std::invalid_argument if base is
  /// null.
  explicit AdaptiveState(ServingStatePtr base,
                         std::uint64_t seed = kDefaultAdaptSeed);

  /// The pinned generation (compare against SwapState::load() to detect
  /// that a reload retired this overlay).
  [[nodiscard]] const ServingStatePtr& base_state() const noexcept {
    return base_;
  }

  [[nodiscard]] io::PipelineKind kind() const override;
  [[nodiscard]] io::PipelineInput input() const override;
  [[nodiscard]] std::size_t num_features() const override;

  /// Every row through the overlay's current model, heads included, with
  /// the base path's predict_rows().
  [[nodiscard]] Predictions predict(const SampleBatch& batch,
                                    HeadMode head) override;

  /// One feedback row: encodes \p sample over the pinned pipeline and
  /// applies the mistake-driven update.  Classifier targets must be
  /// integral labels in range (hdc::checked_class_label).
  /// \throws std::invalid_argument on mode, arity, dimension or target
  /// errors.
  AdaptOutcome adapt(const Sample& sample, double target) override;

  /// An overlay pins one generation: reload the serving state instead.
  /// \throws std::logic_error always.
  std::uint64_t reload(const std::string& path) override;

  /// Writes the adapted-vs-base difference as a standalone HDCS delta file
  /// at \p out_path and returns the changed-row count.  The patch pins the
  /// content hash of the pinned generation's base snapshot, so
  /// `!reload out_path` on any replica of that base restores a model
  /// bit-identical to this overlay.  \throws io::SnapshotError on shape
  /// disagreement or write failure; std::runtime_error when nothing differs
  /// from the base.
  std::uint64_t export_delta(const std::string& out_path) override;

  [[nodiscard]] std::uint64_t generation() const override {
    return base_->generation();
  }
  [[nodiscard]] std::string source() const override {
    return base_->source_path();
  }

  /// Single-row readouts over the overlay (class index as double for
  /// classifiers); predict_band \throws std::logic_error on classifier
  /// overlays.
  [[nodiscard]] double predict(const Sample& sample) const;
  [[nodiscard]] Band predict_band(const Sample& sample) const;

  /// Counters, as in the overlay classes.
  [[nodiscard]] std::uint64_t overlay_rows() const;
  [[nodiscard]] std::uint64_t feedback_rows() const;
  [[nodiscard]] std::uint64_t updates() const;

  /// The adapted model's rows that differ from the pinned generation's
  /// base snapshot *file* (row index -> packed words): the payload
  /// export_delta() writes.  \throws io::SnapshotError when the base file
  /// cannot be opened or its model shape disagrees with the serving model.
  [[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
  changed_rows() const;

  /// Read-only views of the overlay — exactly one is non-null, per the
  /// pipeline kind — for callers that sweep its current() model themselves
  /// (a cluster rank's Classes-scheme slice).  Not synchronized with
  /// adapt(): the caller must not run both at once.
  [[nodiscard]] const AdaptiveClassifier* classifier() const noexcept {
    return classifier_.get();
  }
  [[nodiscard]] const AdaptiveRegressor* regressor() const noexcept {
    return regressor_.get();
  }

  /// Drops the overlay; the adapted side is the base again.
  void reset();

 private:
  mutable std::mutex mutex_;
  ServingStatePtr base_;
  std::unique_ptr<AdaptiveClassifier> classifier_;
  std::unique_ptr<AdaptiveRegressor> regressor_;
};

using AdaptiveStatePtr = std::shared_ptr<AdaptiveState>;

}  // namespace hdc::serve

#endif  // HDC_SERVE_ADAPTIVE_STATE_HPP
