#ifndef HDC_SERVE_PREDICTOR_HPP
#define HDC_SERVE_PREDICTOR_HPP

/// \file predictor.hpp
/// \brief The one prediction interface every serving front end drives.
///
/// A serving front end (the stdin `Server`, every `NetServer` connection)
/// does not care where a micro-batch is predicted: in this process over the
/// hot-swappable batch engines (`LocalPredictor`), row by row over an
/// online-adaptation overlay (`AdaptiveState`, the `!use adapted` side), or
/// scattered across worker ranks (`hdc::cluster::ShardedServer`).  All three
/// implement `Predictor`, and the front ends hand it their pending batch
/// through `MicroBatcher` — so raw text vs numeric rows, with or without a
/// prediction head, local or clustered, is one code path.
///
/// Samples are views: the caller owns the rows for the duration of a call.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "hdc/core/confidence.hpp"
#include "hdc/io/pipeline.hpp"
#include "hdc/serve/prediction_writer.hpp"

namespace hdc::serve {

/// One sample: a numeric feature row, or one raw-text line for text
/// pipelines.
using Sample = std::variant<std::span<const double>, std::string_view>;

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

/// Encodes \p sample with \p pipeline (encode() or encode_text()).
/// \throws std::invalid_argument when the sample's mode disagrees with the
/// pipeline's input, or on a wrong arity.
[[nodiscard]] inline Hypervector encode_sample(const io::Pipeline& pipeline,
                                               const Sample& sample) {
  if (is_text(sample) != (pipeline.input() == io::PipelineInput::Text)) {
    throw std::invalid_argument(
        std::string("the pipeline takes ") + io::to_string(pipeline.input()) +
        " rows, not " + (is_text(sample) ? "text" : "numeric") + " rows");
  }
  if (const auto* text = std::get_if<std::string_view>(&sample)) {
    return pipeline.encode_text(*text);
  }
  return pipeline.encode(std::get<std::span<const double>>(sample));
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
