#ifndef HDC_SERVE_MICRO_BATCHER_HPP
#define HDC_SERVE_MICRO_BATCHER_HPP

/// \file micro_batcher.hpp
/// \brief The one micro-batch loop body shared by every serving front end.
///
/// A `MicroBatcher` owns one response stream's pending batch: it admits
/// rows (pulled from a stream `RowReader`, or parsed from lines a socket
/// loop already read), records each row's admission time, numbers the rows
/// in admission order, and — in `flush()` — hands the batch to a
/// `Predictor` and writes every answer to the `PredictionWriter`.  That
/// flush is the only place a predicted batch reaches a writer, whether the
/// predictor is local, an adaptation overlay or a cluster.
///
/// *When* to flush is the front end's policy: `Server::run` flushes on a
/// full batch, a passed deadline or a read that may block; a `NetServer`
/// connection turns the deadline into its poll timeout.

#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "hdc/serve/prediction_writer.hpp"
#include "hdc/serve/predictor.hpp"
#include "hdc/serve/row_reader.hpp"

namespace hdc::serve {

/// Raised by MicroBatcher::flush when the predictor failed.  The message is
/// the predictor's, followed by the stream position — `(at input line N;
/// M rows already answered)` — and every row answered before it has
/// already been flushed downstream.
class PredictError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class MicroBatcher {
 public:
  using clock = std::chrono::steady_clock;

  /// Longest flush interval a front end accepts (one year): deadlines are
  /// `oldest() + interval` in clock nanoseconds, which must not overflow.
  [[nodiscard]] static constexpr std::chrono::microseconds
  max_flush_interval() noexcept {
    return std::chrono::hours(24 * 365);
  }

  /// Checks that rows in \p format with \p head fit \p predictor: the input
  /// mode must match (Text readers for text pipelines) and the head the
  /// kind (Confidence for classifiers, Band for regressors).
  /// \throws std::invalid_argument naming the mismatch.
  static void check(const Predictor& predictor, RowFormat format,
                    HeadMode head);

  /// \p reader and \p writer must outlive the batcher; \p predictor only
  /// lends its shape (flush() takes the predictor that answers).
  /// \throws std::invalid_argument on batch_size == 0, on a check() failure
  /// or a reader arity that disagrees with the predictor's.
  MicroBatcher(const Predictor& predictor, RowReader& reader,
               PredictionWriter& writer, std::size_t batch_size);

  /// Reads the next row off the reader's stream and admits it; false at end
  /// of stream.  \throws RowError on a malformed row.
  bool read();

  /// Parses one line a socket loop has read and admits it; blank lines are
  /// skipped.  \throws RowError on a malformed row.
  void admit(const std::string& line);

  [[nodiscard]] bool empty() const noexcept { return pending_ == 0; }
  [[nodiscard]] bool full() const noexcept { return pending_ >= batch_size_; }
  /// Admission time of the oldest pending row (requires !empty()).
  [[nodiscard]] clock::time_point oldest() const { return admitted_.front(); }

  /// Predicts the pending rows on \p predictor and writes every answer, with
  /// its admission-to-write latency, in admission order; returns the number
  /// of rows written (0 when nothing was pending).  The writer is flushed.
  /// \throws PredictError when the predictor fails (the pending rows are
  /// dropped); WriteError from the writer.
  std::size_t flush(Predictor& predictor);

  /// Rows answered and batches flushed so far.
  [[nodiscard]] std::size_t rows() const noexcept { return next_row_; }
  [[nodiscard]] std::size_t batches() const noexcept { return batches_; }

 private:
  /// Admits the row just parsed into row_ / text_row_ by swapping it into
  /// slot pending_.
  void push();
  /// Drops the pending batch (the slots keep their buffers).
  void clear();

  RowReader* reader_;
  PredictionWriter* writer_;
  std::size_t batch_size_;
  bool text_;
  bool classifies_;
  /// Whether every row's admission time is kept (the writer prints
  /// latency); otherwise only the oldest pending row's, for the deadline.
  bool timed_rows_;
  /// Row slots, kept across batches (only the first pending_ are live);
  /// one of the two stays empty, per the input mode.
  std::vector<std::vector<double>> rows_;
  std::vector<std::string> texts_;
  std::vector<clock::time_point> admitted_;
  std::size_t pending_ = 0;
  std::vector<double> row_;
  std::string text_row_;
  std::size_t next_row_ = 0;
  std::size_t batches_ = 0;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_MICRO_BATCHER_HPP
