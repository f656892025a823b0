#include "hdc/io/pipeline.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/core/bitops.hpp"

namespace hdc::io {

const char* to_string(PipelineKind kind) noexcept {
  return kind == PipelineKind::Classifier ? "classifier" : "regressor";
}

const char* to_string(PipelineInput input) noexcept {
  return input == PipelineInput::Text ? "text" : "numeric";
}

Pipeline Pipeline::restore(const MappedSnapshot& snapshot) {
  std::size_t head_index = 0;
  std::size_t heads = 0;
  for (std::size_t i = 0; i < snapshot.section_count(); ++i) {
    if (snapshot.section(i).type == SectionType::PipelineHead) {
      head_index = i;
      ++heads;
    }
  }
  if (heads == 0) {
    throw SnapshotError(
        "Pipeline::restore: snapshot carries no pipeline head section");
  }
  if (heads > 1) {
    throw SnapshotError(
        "Pipeline::restore: snapshot carries " + std::to_string(heads) +
        " pipeline heads; pass an explicit head section index");
  }
  return restore(snapshot, head_index);
}

Pipeline Pipeline::restore(const MappedSnapshot& snapshot,
                           std::size_t head_index) {
  const SectionRecord& head = snapshot.section(head_index);
  if (head.type != SectionType::PipelineHead) {
    throw SnapshotError("Pipeline::restore: section " +
                        std::to_string(head_index) +
                        " is not a pipeline head");
  }
  Pipeline pipeline;
  pipeline.dimension_ = static_cast<std::size_t>(head.dimension);

  const auto encoder_index = static_cast<std::size_t>(head.aux_section);
  switch (snapshot.section(encoder_index).type) {
    case SectionType::FeatureEncoderConfig:
      pipeline.features_ = std::make_shared<KeyValueEncoder>(
          snapshot.feature_encoder(encoder_index));
      break;
    case SectionType::ComposedEncoderConfig:
      pipeline.composed_ = std::make_shared<ComposedEncoder>(
          snapshot.composed_encoder(encoder_index));
      break;
    case SectionType::SequenceEncoderConfig:
      // Warm every single-byte symbol *before* freezing the encoder const:
      // serving shares one encoder across threads, and the const encode
      // path only reads already-materialized symbols.
      if (snapshot.section(encoder_index).kind == 0) {
        auto sequence = std::make_shared<SequenceEncoder>(
            snapshot.sequence_encoder(encoder_index));
        sequence->warm_bytes();
        pipeline.sequence_ = std::move(sequence);
      } else {
        auto ngram = std::make_shared<NGramEncoder>(
            snapshot.ngram_encoder(encoder_index));
        ngram->warm_bytes();
        pipeline.ngram_ = std::move(ngram);
      }
      break;
    default:
      pipeline.scalar_ = snapshot.scalar_encoder(encoder_index);
      break;
  }

  const auto model_index = static_cast<std::size_t>(head.aux_section_b);
  if (snapshot.section(model_index).type ==
      SectionType::ClassifierClassVectors) {
    pipeline.kind_ = PipelineKind::Classifier;
    pipeline.classifier_ = std::make_shared<CentroidClassifier>(
        snapshot.classifier(model_index));
  } else {
    pipeline.kind_ = PipelineKind::Regressor;
    pipeline.regressor_ =
        std::make_shared<HDRegressor>(snapshot.regressor(model_index));
  }
  return pipeline;
}

std::size_t Pipeline::num_features() const noexcept {
  if (features_) {
    return features_->num_features();
  }
  if (sequence_ || ngram_) {
    return 0;
  }
  return composed_ ? composed_->num_features() : 1;
}

namespace {

/// Copies an encoder's result into the caller's row.
void store(HypervectorView encoded, std::span<std::uint64_t> out) {
  if (encoded.words().size() != out.size()) {
    throw std::invalid_argument(
        "Pipeline::encode_into: the encoder disagrees with the pipeline "
        "dimension");
  }
  std::ranges::copy(encoded.words(), out.begin());
}

}  // namespace

void Pipeline::encode_into(const Sample& sample,
                           std::span<std::uint64_t> out) const {
  const auto* text = std::get_if<std::string_view>(&sample);
  if ((text != nullptr) != (input() == PipelineInput::Text)) {
    throw std::invalid_argument(
        std::string("Pipeline: the pipeline takes ") + to_string(input()) +
        " rows, not " + (text != nullptr ? "text" : "numeric") + " rows");
  }
  if (out.size() != bits::words_for(dimension_)) {
    throw std::invalid_argument(
        "Pipeline::encode_into: out must hold words_for(dimension) words");
  }
  if (text != nullptr) {
    store(sequence_ ? sequence_->encode_word(*text) : ngram_->encode(*text),
          out);
    return;
  }
  const auto features = std::get<std::span<const double>>(sample);
  if (composed_) {
    composed_->encode_into(features, out);
  } else if (features_) {
    store(features_->encode(features), out);
  } else if (features.size() != 1) {
    throw std::invalid_argument(
        "Pipeline::encode: scalar-encoder pipelines take exactly one "
        "feature");
  } else {
    store(scalar_->encode(features[0]), out);
  }
}

Hypervector Pipeline::encode(std::span<const double> features) const {
  Hypervector out(dimension_);
  encode_into(features, out.words());
  return out;
}

std::size_t Pipeline::classify(std::span<const double> features) const {
  return classifier().predict(encode(features));
}

double Pipeline::regress(std::span<const double> features) const {
  return regressor().predict(encode(features));
}

Hypervector Pipeline::encode_text(std::string_view text) const {
  Hypervector out(dimension_);
  encode_into(text, out.words());
  return out;
}

std::size_t Pipeline::classify_text(std::string_view text) const {
  return classifier().predict(encode_text(text));
}

double Pipeline::regress_text(std::string_view text) const {
  return regressor().predict(encode_text(text));
}

const CentroidClassifier& Pipeline::classifier() const {
  if (!classifier_) {
    throw std::logic_error(
        "Pipeline::classifier: this is a regressor pipeline");
  }
  return *classifier_;
}

const HDRegressor& Pipeline::regressor() const {
  if (!regressor_) {
    throw std::logic_error(
        "Pipeline::regressor: this is a classifier pipeline");
  }
  return *regressor_;
}

std::shared_ptr<const CentroidClassifier> Pipeline::classifier_ptr() const {
  if (!classifier_) {
    throw std::logic_error(
        "Pipeline::classifier_ptr: this is a regressor pipeline");
  }
  return classifier_;
}

std::shared_ptr<const HDRegressor> Pipeline::regressor_ptr() const {
  if (!regressor_) {
    throw std::logic_error(
        "Pipeline::regressor_ptr: this is a classifier pipeline");
  }
  return regressor_;
}

runtime::BatchEncoder Pipeline::batch_encoder(
    runtime::ThreadPoolPtr pool) const {
  if (input() == PipelineInput::Text) {
    throw std::logic_error(
        "Pipeline::batch_encoder: text pipelines batch via "
        "batch_text_encoder()");
  }
  return runtime::BatchEncoder(
      dimension_,
      [pipeline = *this](std::span<const double> row,
                         std::span<std::uint64_t> out) {
        pipeline.encode_into(row, out);
      },
      std::move(pool));
}

runtime::BatchTextEncoder Pipeline::batch_text_encoder(
    runtime::ThreadPoolPtr pool) const {
  if (input() != PipelineInput::Text) {
    throw std::logic_error(
        "Pipeline::batch_text_encoder: this is a numeric pipeline; use "
        "batch_encoder()");
  }
  return runtime::BatchTextEncoder(
      dimension_,
      [pipeline = *this](std::string_view text) {
        return pipeline.encode_text(text);
      },
      std::move(pool));
}

runtime::BatchClassifier Pipeline::batch_classifier(
    runtime::ThreadPoolPtr pool) const {
  return {CentroidClassifier(classifier()), std::move(pool)};
}

runtime::BatchRegressor Pipeline::batch_regressor(
    runtime::ThreadPoolPtr pool) const {
  return {HDRegressor(regressor()), std::move(pool)};
}

}  // namespace hdc::io
