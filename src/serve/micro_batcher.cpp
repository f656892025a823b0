#include "hdc/serve/micro_batcher.hpp"

#include <exception>
#include <span>
#include <stdexcept>

namespace hdc::serve {

namespace {

double microseconds(MicroBatcher::clock::duration elapsed) {
  return std::chrono::duration<double, std::micro>(elapsed).count();
}

}  // namespace

void MicroBatcher::check(const Predictor& predictor, RowFormat format,
                         HeadMode head) {
  if ((predictor.input() == io::PipelineInput::Text) !=
      (format == RowFormat::Text)) {
    throw std::invalid_argument(
        std::string("serve: the pipeline takes ") +
        io::to_string(predictor.input()) +
        " rows but the configured input format disagrees");
  }
  const bool classifies = predictor.kind() == io::PipelineKind::Classifier;
  if (head == HeadMode::Confidence && !classifies) {
    throw std::invalid_argument(
        "serve: confidence heads come from classifiers; regressor pipelines "
        "emit bands");
  }
  if (head == HeadMode::Band && classifies) {
    throw std::invalid_argument(
        "serve: band heads come from regressors; classifier pipelines emit "
        "confidences");
  }
}

MicroBatcher::MicroBatcher(const Predictor& predictor, RowReader& reader,
                           PredictionWriter& writer, std::size_t batch_size)
    : reader_(&reader),
      writer_(&writer),
      batch_size_(batch_size),
      text_(predictor.input() == io::PipelineInput::Text),
      classifies_(predictor.kind() == io::PipelineKind::Classifier),
      timed_rows_(writer.writes_latency()) {
  if (batch_size_ == 0) {
    throw std::invalid_argument("serve: batch_size must be > 0");
  }
  check(predictor, reader.format(), writer.head());
  if (!text_ && reader.num_features() != predictor.num_features()) {
    throw std::invalid_argument(
        "serve: reader arity " + std::to_string(reader.num_features()) +
        " disagrees with the pipeline's " +
        std::to_string(predictor.num_features()) + " features");
  }
}

void MicroBatcher::push() {
  // Swap the parsed row into its slot: the slot's old buffer becomes the
  // next parse target, so after the first full batch no row allocates.
  if (text_) {
    if (pending_ == texts_.size()) {
      texts_.emplace_back();
    }
    texts_[pending_].swap(text_row_);
  } else {
    if (pending_ == rows_.size()) {
      rows_.emplace_back();
    }
    rows_[pending_].swap(row_);
  }
  // A clock read costs about as much as parsing a short row: take one per
  // row only when the writer prints it.
  if (pending_ == 0 || timed_rows_) {
    admitted_.push_back(clock::now());
  }
  ++pending_;
}

bool MicroBatcher::read() {
  const bool more =
      text_ ? reader_->next_text(text_row_) : reader_->next(row_);
  if (more) {
    push();
  }
  return more;
}

void MicroBatcher::admit(const std::string& line) {
  if (text_ ? reader_->parse_text_line(line, text_row_)
            : reader_->parse_line(line, row_)) {
    push();
  }
}

std::size_t MicroBatcher::flush(Predictor& predictor) {
  const std::size_t count = pending_;
  if (count == 0) {
    return 0;
  }
  const HeadMode head = writer_->head();
  // Only the first `count` slots hold this batch; later ones are stale.
  const auto rows = std::span<const std::vector<double>>(rows_).first(count);
  const auto texts = std::span<const std::string>(texts_).first(count);
  const SampleBatch batch = text_ ? SampleBatch(texts) : SampleBatch(rows);
  Predictions answers;
  try {
    answers = predictor.predict(batch, head);
  } catch (const std::exception& e) {
    clear();
    // Drain what earlier batches wrote, then name the stream position: the
    // consumer knows exactly which rows were answered.
    try {
      writer_->flush();
    } catch (...) {  // NOLINT(bugprone-empty-catch)
    }
    throw PredictError(std::string(e.what()) + " (at input line " +
                       std::to_string(reader_->line_number()) + "; " +
                       std::to_string(next_row_) + " rows already answered)");
  }
  // One clock read per batch: the rows are written microseconds apart.
  const clock::time_point answered = clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t row = next_row_ + i;
    const double prediction = answers.predictions[i];
    const double latency_us =
        timed_rows_ ? microseconds(answered - admitted_[i]) : 0.0;
    if (classifies_) {
      const auto label = static_cast<std::size_t>(prediction);
      if (head == HeadMode::Confidence) {
        writer_->write_class(row, label, answers.confidences[i], latency_us);
      } else {
        writer_->write_class(row, label, latency_us);
      }
    } else if (head == HeadMode::Band) {
      writer_->write_band(row, prediction, answers.bands[i], latency_us);
    } else {
      writer_->write(row, prediction, latency_us);
    }
  }
  writer_->flush();
  next_row_ += count;
  ++batches_;
  clear();
  return count;
}

void MicroBatcher::clear() {
  // The row slots stay allocated for the next batch; pending_ bounds them.
  admitted_.clear();
  pending_ = 0;
}

}  // namespace hdc::serve
