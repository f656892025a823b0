#include "hdc/serve/adaptive_state.hpp"

#include <stdexcept>
#include <utility>
#include <variant>

#include "hdc/io/delta.hpp"

namespace hdc::serve {

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
  const Hypervector encoded = encode_sample(base_->pipeline(), sample);
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
  Predictions out;
  out.generation = base_->generation();
  const std::size_t count = batch_size(batch);
  out.predictions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Hypervector encoded = encode_sample(
        base_->pipeline(),
        std::visit([i](const auto& rows) { return Sample(rows[i]); }, batch));
    if (head != HeadMode::None && classifier_ != nullptr) {
      Top2 top2;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        top2 = classifier_->predict_top2(encoded);
      }
      out.predictions.push_back(static_cast<double>(top2.best.index));
      out.confidences.push_back(margin_confidence(top2));
      continue;
    }
    out.predictions.push_back(predict_encoded(encoded));
    if (head != HeadMode::None) {
      out.bands.push_back(band_encoded(encoded));
    }
  }
  return out;
}

double AdaptiveState::predict_encoded(const Hypervector& encoded) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (classifier_ != nullptr) {
    return static_cast<double>(classifier_->predict(encoded));
  }
  return regressor_->predict(encoded);
}

double AdaptiveState::predict(const Sample& sample) const {
  return predict_encoded(encode_sample(base_->pipeline(), sample));
}

Band AdaptiveState::band_encoded(const Hypervector& encoded) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (regressor_ == nullptr) {
    throw std::logic_error(
        "AdaptiveState: band heads come from regressor overlays");
  }
  return regressor_->predict_band(encoded);
}

Band AdaptiveState::predict_band(const Sample& sample) const {
  return band_encoded(encode_sample(base_->pipeline(), sample));
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
    return classifier_ != nullptr ? classifier_->class_row(i)
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
