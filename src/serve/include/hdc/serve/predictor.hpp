#ifndef HDC_SERVE_PREDICTOR_HPP
#define HDC_SERVE_PREDICTOR_HPP

/// \file predictor.hpp
/// \brief The one prediction interface every serving front end drives.
///
/// A serving front end (the stdin `Server`, every `NetServer` connection)
/// does not care where a micro-batch is predicted: in this process over the
/// hot-swappable model (`LocalPredictor`), over an online-adaptation
/// overlay (`AdaptiveState`, the `!use adapted` side), or scattered across
/// worker ranks (`hdc::cluster::ShardedServer`).  All three implement
/// `Predictor`, and the front ends hand it their pending batch through
/// `MicroBatcher` — so raw text vs numeric rows, with or without a
/// prediction head, local or clustered, is one code path.
///
/// The per-row step under the first two, and so under each cluster rank's
/// Rows-scheme batch, is one function, `predict_rows()`: encode a row into
/// a scratch row, then read the prediction and head off one model.
///
/// Samples are views: the caller owns the rows for the duration of a call.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hdc/core/confidence.hpp"
#include "hdc/io/pipeline.hpp"
#include "hdc/serve/prediction_writer.hpp"

namespace hdc::serve {

/// One sample: a numeric feature row, or one raw-text line.
using Sample = io::Sample;

/// One micro-batch: numeric feature rows, or raw-text lines.
using SampleBatch = std::variant<std::span<const std::vector<double>>,
                                 std::span<const std::string>>;

[[nodiscard]] inline bool is_text(const Sample& sample) noexcept {
  return std::holds_alternative<std::string_view>(sample);
}
[[nodiscard]] inline bool is_text(const SampleBatch& batch) noexcept {
  return std::holds_alternative<std::span<const std::string>>(batch);
}
[[nodiscard]] inline std::size_t batch_size(const SampleBatch& batch) noexcept {
  return std::visit([](const auto& rows) { return rows.size(); }, batch);
}
/// Row \p i of \p batch.
[[nodiscard]] inline Sample sample_at(const SampleBatch& batch,
                                      std::size_t i) {
  return std::visit([i](const auto& rows) { return Sample(rows[i]); }, batch);
}

/// A predicted batch.  predictions[i] answers row i (classifier labels as
/// doubles); with a head requested, confidences (classifiers) or bands
/// (regressors) run parallel to it and the other stays empty.
struct Predictions {
  std::vector<double> predictions;
  std::vector<double> confidences;
  std::vector<Band> bands;
  /// The model generation that answered every row of the batch.
  std::uint64_t generation = 0;
};

/// A batch of \p count rows of a \p kind model, every column sized: the
/// predictions, plus the kind's head (confidences or bands) unless \p head
/// is None.  predict_rows() fills it in place.
[[nodiscard]] Predictions sized_predictions(io::PipelineKind kind,
                                            std::size_t count, HeadMode head,
                                            std::uint64_t generation);

/// The one per-row serving step: encodes each row i in [begin, end) of
/// \p batch into \p scratch with \p pipeline's encoder and writes
/// out.predictions[i] — and the head, unless \p head is None — read off
/// \p model: the class sweep (margin confidence) or the keyed label
/// readout (p10/p50/p90 band).  Bit-identical to `Pipeline::classify`/
/// `regress` per row.  Rows of disjoint ranges may run concurrently.
/// \throws std::invalid_argument on a row of the wrong mode or arity.
void predict_rows(const io::Pipeline& pipeline,
                  const CentroidClassifier& model, const SampleBatch& batch,
                  std::size_t begin, std::size_t end, HeadMode head,
                  std::span<std::uint64_t> scratch, Predictions& out);
void predict_rows(const io::Pipeline& pipeline, const HDRegressor& model,
                  const SampleBatch& batch, std::size_t begin, std::size_t end,
                  HeadMode head, std::span<std::uint64_t> scratch,
                  Predictions& out);

/// What one feedback row did — the `!adapt` reply fields.
struct AdaptOutcome {
  double predicted = 0.0;  ///< Pre-update prediction for the feedback row.
  bool updated = false;    ///< Whether the row actually changed the model.
  std::uint64_t feedback_rows = 0;  ///< Feedback rows seen on this overlay.
  std::uint64_t updates = 0;        ///< Rows that changed the model.
  std::uint64_t overlay_rows = 0;   ///< Distinct model rows now overlaid.
};

/// A model that answers micro-batches and the `!`-control plane.  Every
/// method is thread-safe: socket connections share one predictor.
class Predictor {
 public:
  Predictor() = default;
  Predictor(const Predictor&) = delete;
  Predictor& operator=(const Predictor&) = delete;
  virtual ~Predictor() = default;

  /// The wire shape, fixed for the predictor's lifetime (a reload must keep
  /// the kind and the arity).
  [[nodiscard]] virtual io::PipelineKind kind() const = 0;
  [[nodiscard]] virtual io::PipelineInput input() const = 0;
  [[nodiscard]] virtual std::size_t num_features() const = 0;

  /// One generation-atomic batch.  Any \p head other than None asks for the
  /// kind's head: confidences for classifiers, bands for regressors.
  /// \throws std::invalid_argument on a batch of the wrong input mode or
  /// arity.
  [[nodiscard]] virtual Predictions predict(const SampleBatch& batch,
                                            HeadMode head) = 0;

  /// One online-feedback row (`!adapt`).  Classifier targets must be
  /// integral labels in range.  \throws std::invalid_argument on a bad
  /// sample or target.
  virtual AdaptOutcome adapt(const Sample& sample, double target) = 0;

  /// Hot-swaps to the snapshot (or HDCS delta) at \p path; "" re-reads the
  /// active source.  Returns the new generation.  On throw the incumbent
  /// keeps serving.
  virtual std::uint64_t reload(const std::string& path) = 0;

  /// Writes the adapted-vs-base difference as an HDCS delta file at
  /// \p out_path (`!delta`); returns the changed-row count.
  /// \throws std::runtime_error when nothing differs from the base.
  virtual std::uint64_t export_delta(const std::string& out_path) = 0;

  /// The serving generation and the path it was loaded from.
  [[nodiscard]] virtual std::uint64_t generation() const = 0;
  [[nodiscard]] virtual std::string source() const = 0;

  /// Extra ` key=value` fields appended to the `!stats` reply ("" for none).
  [[nodiscard]] virtual std::string stats() { return {}; }

  /// The `!use adapted` side of the A/B switch: the adaptation overlay over
  /// the current generation, or null when this predictor applies feedback
  /// to the model it serves (cluster ranks).
  [[nodiscard]] virtual std::shared_ptr<Predictor> adapted() {
    return nullptr;
  }
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_PREDICTOR_HPP
