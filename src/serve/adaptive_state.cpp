#include "hdc/serve/adaptive_state.hpp"

#include <stdexcept>
#include <utility>

#include "hdc/core/bitops.hpp"
#include "hdc/core/word_storage.hpp"
#include "hdc/io/delta.hpp"

namespace hdc::serve {

namespace {

Hypervector encode(const io::Pipeline& pipeline, const Sample& sample) {
  Hypervector encoded(pipeline.dimension());
  pipeline.encode_into(sample, encoded.words());
  return encoded;
}

}  // namespace

AdaptiveState::AdaptiveState(ServingStatePtr base, std::uint64_t seed)
    : base_(std::move(base)) {
  if (base_ == nullptr) {
    throw std::invalid_argument("AdaptiveState: base state must not be null");
  }
  if (base_->pipeline().kind() == io::PipelineKind::Classifier) {
    classifier_ = std::make_unique<AdaptiveClassifier>(
        base_->pipeline().classifier_ptr(), seed);
  } else {
    regressor_ = std::make_unique<AdaptiveRegressor>(
        base_->pipeline().regressor_ptr(), seed);
  }
}

io::PipelineKind AdaptiveState::kind() const {
  return base_->pipeline().kind();
}

io::PipelineInput AdaptiveState::input() const {
  return base_->pipeline().input();
}

std::size_t AdaptiveState::num_features() const {
  return base_->pipeline().num_features();
}

AdaptOutcome AdaptiveState::adapt(const Sample& sample, double target) {
  // Encoding is const over shared encoder state; only the overlay update
  // itself needs the lock.
  const Hypervector encoded = encode(base_->pipeline(), sample);
  AdaptOutcome out;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (classifier_ != nullptr) {
    const std::size_t label =
        checked_class_label(target, classifier_->num_classes());
    const std::uint64_t before = classifier_->updates();
    out.predicted =
        static_cast<double>(classifier_->adapt(label, encoded));
    out.feedback_rows = classifier_->feedback_rows();
    out.updates = classifier_->updates();
    out.updated = out.updates != before;
    out.overlay_rows = classifier_->touched_classes();
  } else {
    const std::uint64_t before = regressor_->updates();
    out.predicted = regressor_->adapt(encoded, target);
    out.feedback_rows = regressor_->feedback_rows();
    out.updates = regressor_->updates();
    out.updated = out.updates != before;
    out.overlay_rows = regressor_->touched() ? 1 : 0;
  }
  return out;
}

Predictions AdaptiveState::predict(const SampleBatch& batch, HeadMode head) {
  const io::Pipeline& pipeline = base_->pipeline();
  const std::size_t count = batch_size(batch);
  Predictions out =
      sized_predictions(pipeline.kind(), count, head, base_->generation());
  AlignedWords row(bits::words_for(pipeline.dimension()));
  // The whole batch reads one model: feedback lands between batches.
  const std::lock_guard<std::mutex> lock(mutex_);
  if (classifier_ != nullptr) {
    predict_rows(pipeline, classifier_->current(), batch, 0, count, head, row,
                 out);
  } else {
    predict_rows(pipeline, regressor_->current(), batch, 0, count, head, row,
                 out);
  }
  return out;
}

double AdaptiveState::predict(const Sample& sample) const {
  const Hypervector encoded = encode(base_->pipeline(), sample);
  const std::lock_guard<std::mutex> lock(mutex_);
  return classifier_ != nullptr
             ? static_cast<double>(classifier_->current().predict(encoded))
             : regressor_->current().predict(encoded);
}

Band AdaptiveState::predict_band(const Sample& sample) const {
  if (regressor_ == nullptr) {
    throw std::logic_error(
        "AdaptiveState: band heads come from regressor overlays");
  }
  const Hypervector encoded = encode(base_->pipeline(), sample);
  const std::lock_guard<std::mutex> lock(mutex_);
  return regressor_->current().predict_band(encoded);
}

std::uint64_t AdaptiveState::reload(const std::string& /*path*/) {
  throw std::logic_error(
      "AdaptiveState: an overlay pins one generation; reload the serving "
      "state instead");
}

std::uint64_t AdaptiveState::overlay_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return classifier_ != nullptr ? classifier_->touched_classes()
                                : (regressor_->touched() ? 1 : 0);
}

std::uint64_t AdaptiveState::feedback_rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return classifier_ != nullptr ? classifier_->feedback_rows()
                                : regressor_->feedback_rows();
}

std::uint64_t AdaptiveState::updates() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return classifier_ != nullptr ? classifier_->updates()
                                : regressor_->updates();
}

std::map<std::size_t, std::vector<std::uint64_t>> AdaptiveState::changed_rows()
    const {
  const std::string& base_path = base_->base_path();
  const io::MappedSnapshot base = io::MappedSnapshot::open(base_path);
  const std::size_t section = io::find_model_section(base);
  const io::SectionRecord& record = base.section(section);
  const std::size_t model_rows =
      classifier_ != nullptr ? classifier_->num_classes() : 1;
  const std::size_t dimension = classifier_ != nullptr
                                    ? classifier_->dimension()
                                    : regressor_->dimension();
  if (record.count != model_rows || record.dimension != dimension) {
    throw io::SnapshotError(
        "delta export: the base snapshot's model shape disagrees with the "
        "serving model (" +
        base_path + ")");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  return io::diff_rows(base, section, [this](std::size_t i) {
    return classifier_ != nullptr
               ? classifier_->current().class_vector(i).words()
               : regressor_->model_words();
  });
}

std::uint64_t AdaptiveState::export_delta(const std::string& out_path) {
  const std::string& base_path = base_->base_path();
  const auto rows = changed_rows();
  if (rows.empty()) {
    throw std::runtime_error(
        "delta export: the adapted model does not differ from " + base_path);
  }
  const io::MappedSnapshot base = io::MappedSnapshot::open(base_path);
  io::write_delta_file(
      io::make_delta(base, io::snapshot_file_hash(base_path),
                     io::find_model_section(base), rows),
      out_path);
  return rows.size();
}

void AdaptiveState::reset() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (classifier_ != nullptr) {
    classifier_->reset();
  } else {
    regressor_->reset();
  }
}

}  // namespace hdc::serve
