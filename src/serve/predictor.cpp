#include "hdc/serve/predictor.hpp"

#include <algorithm>

namespace hdc::serve {

Predictions sized_predictions(io::PipelineKind kind, std::size_t count,
                              HeadMode head, std::uint64_t generation) {
  Predictions out;
  out.generation = generation;
  out.predictions.resize(count);
  if (head != HeadMode::None && kind == io::PipelineKind::Classifier) {
    out.confidences.resize(count);
  } else if (head != HeadMode::None) {
    out.bands.resize(count);
  }
  return out;
}

void predict_rows(const io::Pipeline& pipeline,
                  const CentroidClassifier& model, const SampleBatch& batch,
                  std::size_t begin, std::size_t end, HeadMode head,
                  std::span<std::uint64_t> scratch, Predictions& out) {
  for (std::size_t i = begin; i < end; ++i) {
    pipeline.encode_into(sample_at(batch, i), scratch);
    if (head == HeadMode::None) {
      out.predictions[i] = static_cast<double>(model.predict_words(scratch));
      continue;
    }
    const Top2 top2 = model.predict_top2_words(scratch);
    out.predictions[i] = static_cast<double>(top2.best.index);
    out.confidences[i] = margin_confidence(top2);
  }
}

void predict_rows(const io::Pipeline& pipeline, const HDRegressor& model,
                  const SampleBatch& batch, std::size_t begin, std::size_t end,
                  HeadMode head, std::span<std::uint64_t> scratch,
                  Predictions& out) {
  const ScalarEncoder& labels = model.labels();
  std::vector<std::size_t> distances(head == HeadMode::None ? 0
                                                            : labels.size());
  for (std::size_t i = begin; i < end; ++i) {
    pipeline.encode_into(sample_at(batch, i), scratch);
    const HypervectorView query(model.dimension(), scratch);
    if (head == HeadMode::None) {
      out.predictions[i] = model.predict(query);
      continue;
    }
    // One keyed sweep serves both: the profile's first minimum is exactly
    // predict()'s grid point.
    model.label_distances(query, distances);
    const auto nearest = std::ranges::min_element(distances);
    out.predictions[i] =
        labels.value_of(static_cast<std::size_t>(nearest - distances.begin()));
    out.bands[i] = band_from_distances(distances, labels, model.dimension());
  }
}

}  // namespace hdc::serve
