#include "hdc/serve/local_predictor.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "hdc/core/bitops.hpp"
#include "hdc/core/word_storage.hpp"
#include "hdc/io/delta.hpp"
#include "hdc/runtime/batch_text_encoder.hpp"

namespace hdc::serve {

/// Everything one model generation determines.  `state` is declared first:
/// members are destroyed in reverse order, so the encoders borrowing the
/// mapping die before the bundle that may hold its last reference.  The
/// models are read straight off the state's pipeline.
struct LocalPredictor::Engines {
  ServingStatePtr state;
  runtime::ThreadPoolPtr pool;
  /// Exactly one encoder is engaged, per the pipeline's input mode.
  std::optional<runtime::BatchEncoder> encoder;
  std::optional<runtime::BatchTextEncoder> text_encoder;
};

LocalPredictor::LocalPredictor(io::LoadedPipeline loaded,
                               std::string source_path,
                               runtime::ThreadPoolPtr pool,
                               std::size_t num_threads,
                               io::MappingOptions mapping)
    : swap_(std::make_shared<const ServingState>(std::move(loaded), 0,
                                                 std::move(source_path))),
      mapping_(mapping),
      num_threads_(num_threads),
      pool_(std::move(pool)) {}

LocalPredictor::LocalPredictor(io::Pipeline pipeline,
                               runtime::ThreadPoolPtr pool,
                               std::size_t num_threads)
    : swap_(std::make_shared<const ServingState>(std::move(pipeline))),
      num_threads_(num_threads),
      pool_(std::move(pool)) {}

LocalPredictor::~LocalPredictor() = default;

namespace {

void check_input(const io::Pipeline& pipeline, const SampleBatch& batch) {
  if (is_text(batch) != (pipeline.input() == io::PipelineInput::Text)) {
    throw std::invalid_argument(
        std::string("LocalPredictor: the pipeline takes ") +
        io::to_string(pipeline.input()) + " rows but the batch disagrees");
  }
}

}  // namespace

void LocalPredictor::encode_row(const Engines& engines,
                                const SampleBatch& batch, std::size_t i,
                                std::span<std::uint64_t> row) {
  if (engines.text_encoder) {
    engines.text_encoder->encode_into(
        std::get<std::span<const std::string>>(batch)[i], row);
  } else {
    engines.encoder->encode_into(
        std::get<std::span<const std::vector<double>>>(batch)[i], row);
  }
}

io::PipelineKind LocalPredictor::kind() const {
  return swap_.load()->pipeline().kind();
}

io::PipelineInput LocalPredictor::input() const {
  return swap_.load()->pipeline().input();
}

std::size_t LocalPredictor::num_features() const {
  return swap_.load()->pipeline().num_features();
}

std::shared_ptr<const LocalPredictor::Engines> LocalPredictor::engines_for(
    const ServingStatePtr& state) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (engines_ != nullptr && engines_->state == state) {
    return engines_;
  }
  if (!pool_) {
    pool_ = std::make_shared<runtime::ThreadPool>(num_threads_);
  }
  auto engines = std::make_shared<Engines>();
  engines->state = state;
  engines->pool = pool_;
  const io::Pipeline& pipeline = state->pipeline();
  if (pipeline.input() == io::PipelineInput::Text) {
    engines->text_encoder.emplace(pipeline.batch_text_encoder(pool_));
  } else {
    engines->encoder.emplace(pipeline.batch_encoder(pool_));
  }
  engines_ = std::move(engines);
  return engines_;
}

Predictions LocalPredictor::predict(const SampleBatch& batch, HeadMode head) {
  // One load per batch: a reload takes effect at the next batch boundary,
  // and this batch finishes on the generation it started with.
  const ServingStatePtr state = swap_.load();
  Predictions out;
  out.generation = state->generation();
  check_input(state->pipeline(), batch);
  if (batch_size(batch) == 0) {
    return out;
  }
  const std::shared_ptr<const Engines> engines = engines_for(state);
  const io::Pipeline& pipeline = state->pipeline();
  const std::size_t count = batch_size(batch);
  const std::size_t dimension = pipeline.dimension();
  const bool with_head = head != HeadMode::None;
  const bool classifies = pipeline.kind() == io::PipelineKind::Classifier;
  out.predictions.resize(count);
  if (with_head && classifies) {
    out.confidences.resize(count);
  } else if (with_head) {
    out.bands.resize(count);
  }
  // One pool round per batch: each chunk encodes its rows one at a time
  // into a chunk-local scratch row and reads the prediction straight off
  // it, so no batch arena is allocated, zero-filled or read back.
  engines->pool->for_chunks(count, [&](std::size_t begin, std::size_t end,
                                       std::size_t /*chunk*/) {
    AlignedWords row(bits::words_for(dimension));
    std::vector<std::size_t> distances;
    for (std::size_t i = begin; i < end; ++i) {
      encode_row(*engines, batch, i, row);
      if (classifies) {
        const CentroidClassifier& model = pipeline.classifier();
        if (with_head) {
          const Top2 top2 = model.predict_top2_words(row);
          out.predictions[i] = static_cast<double>(top2.best.index);
          out.confidences[i] = margin_confidence(top2);
        } else {
          out.predictions[i] = static_cast<double>(model.predict_words(row));
        }
        continue;
      }
      const HDRegressor& model = pipeline.regressor();
      const ScalarEncoder& labels = model.labels();
      const HypervectorView query(dimension, row);
      if (!with_head) {
        out.predictions[i] = model.predict(query);
        continue;
      }
      // One keyed sweep serves both: the profile's first minimum is
      // exactly predict()'s grid point.
      distances.resize(labels.size());
      model.label_distances(query, distances);
      const auto nearest = std::ranges::min_element(distances);
      const auto index = static_cast<std::size_t>(nearest - distances.begin());
      out.predictions[i] = labels.value_of(index);
      out.bands[i] = band_from_distances(distances, labels, dimension);
    }
  });
  return out;
}

void LocalPredictor::for_each_encoded(
    const ServingStatePtr& state, const SampleBatch& batch,
    const std::function<void(std::size_t, HypervectorView)>& visit) {
  check_input(state->pipeline(), batch);
  if (batch_size(batch) == 0) {
    return;
  }
  const std::shared_ptr<const Engines> engines = engines_for(state);
  const std::size_t dimension = state->pipeline().dimension();
  AlignedWords row(bits::words_for(dimension));
  for (std::size_t i = 0; i < batch_size(batch); ++i) {
    encode_row(*engines, batch, i, row);
    visit(i, HypervectorView(dimension, row));
  }
}

AdaptiveStatePtr LocalPredictor::overlay() {
  const ServingStatePtr active = swap_.load();
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!adaptive_ || adaptive_->base_state() != active) {
    adaptive_ = std::make_shared<AdaptiveState>(active);
  }
  return adaptive_;
}

AdaptOutcome LocalPredictor::adapt(const Sample& sample, double target) {
  return overlay()->adapt(sample, target);
}

std::uint64_t LocalPredictor::export_delta(const std::string& out_path) {
  return overlay()->export_delta(out_path);
}

std::shared_ptr<Predictor> LocalPredictor::adapted() { return overlay(); }

std::uint64_t LocalPredictor::reload(const std::string& path) {
  const ServingStatePtr incumbent = swap_.load();
  const std::string resolved = path.empty() ? incumbent->source_path() : path;
  // The delta check runs before the load so base tracking and loading agree
  // on what the file was even if it changes on disk mid-reload (the loaded
  // bytes are authoritative either way: validation rejects torn files).
  const bool is_delta = io::snapshot_is_delta(resolved);
  io::LoadedPipeline fresh = io::load_pipeline_or_delta(
      resolved, incumbent->base_path(), io::SnapshotIntegrity::Checksum,
      mapping_);
  return swap_
      .swap_to(std::move(fresh), resolved,
               is_delta ? incumbent->base_path() : resolved)
      ->generation();
}

std::uint64_t LocalPredictor::generation() const {
  return swap_.generation();
}

std::string LocalPredictor::source() const {
  return swap_.load()->source_path();
}

}  // namespace hdc::serve
