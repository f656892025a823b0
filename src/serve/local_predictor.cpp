#include "hdc/serve/local_predictor.hpp"

#include <utility>

#include "hdc/core/bitops.hpp"
#include "hdc/core/word_storage.hpp"
#include "hdc/io/delta.hpp"

namespace hdc::serve {

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

io::PipelineKind LocalPredictor::kind() const {
  return swap_.load()->pipeline().kind();
}

io::PipelineInput LocalPredictor::input() const {
  return swap_.load()->pipeline().input();
}

std::size_t LocalPredictor::num_features() const {
  return swap_.load()->pipeline().num_features();
}

runtime::ThreadPool& LocalPredictor::pool() {
  std::call_once(pool_once_, [this] {
    if (!pool_) {
      pool_ = std::make_shared<runtime::ThreadPool>(num_threads_);
    }
  });
  return *pool_;
}

Predictions LocalPredictor::predict(const SampleBatch& batch, HeadMode head) {
  // One load per batch: a reload takes effect at the next batch boundary,
  // and this batch finishes on the generation it started with.
  const ServingStatePtr state = swap_.load();
  const io::Pipeline& pipeline = state->pipeline();
  const std::size_t count = batch_size(batch);
  Predictions out =
      sized_predictions(pipeline.kind(), count, head, state->generation());
  if (count == 0) {
    return out;
  }
  // One pool round per batch: each chunk encodes its rows one at a time
  // into a chunk-local scratch row and reads the prediction straight off
  // it, so no batch arena is allocated, zero-filled or read back.
  pool().for_chunks(count, [&](std::size_t begin, std::size_t end,
                               std::size_t /*chunk*/) {
    AlignedWords row(bits::words_for(pipeline.dimension()));
    if (pipeline.kind() == io::PipelineKind::Classifier) {
      predict_rows(pipeline, pipeline.classifier(), batch, begin, end, head,
                   row, out);
    } else {
      predict_rows(pipeline, pipeline.regressor(), batch, begin, end, head,
                   row, out);
    }
  });
  return out;
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
