#ifndef HDC_SERVE_SERVER_HPP
#define HDC_SERVE_SERVER_HPP

/// \file server.hpp
/// \brief Micro-batching prediction loop over one blocking row stream.
///
/// The serving shape the ROADMAP asks for: a replica cold-starts from one
/// mmapped snapshot (`hdc::io::Pipeline::restore`), then streams rows
/// through a `Predictor` in micro-batches — rows are admitted until the
/// batch is full *or* the configured flush interval has elapsed since the
/// batch opened, then predicted batch-at-a-time and written out in
/// admission order.  The predictor is in-process (`LocalPredictor`, built
/// here from a pipeline) or a `hdc::cluster::ShardedServer`: the loop is
/// the same.
///
/// Predictions are bit-identical to calling `Pipeline::classify`/`regress`
/// per row, for any batch size, thread count or replica count; the
/// serve-e2e and cluster-e2e CI suites diff the CLI output against
/// committed goldens to pin exactly that.

#include <chrono>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "hdc/io/pipeline.hpp"
#include "hdc/serve/local_predictor.hpp"
#include "hdc/serve/prediction_writer.hpp"
#include "hdc/serve/predictor.hpp"
#include "hdc/serve/row_reader.hpp"

namespace hdc::serve {

/// Micro-batching policy.
struct ServerOptions {
  /// Rows per micro-batch (> 0).  Small batches bound per-row latency,
  /// large batches amortize the fork-join fan-out.
  std::size_t batch_size = 64;
  /// Flush a partial batch once this much time has passed since its first
  /// row was admitted; zero disables the timer (flush on full/EOF only).
  /// Rows are read with blocking stream I/O, so the interval is enforced
  /// as a *bounded-staleness* guarantee: the deadline is checked before
  /// every read, and a partial batch is additionally flushed whenever the
  /// stream has nothing buffered and the next read could therefore stall —
  /// admitted rows never wait on a paused producer.  (`NetServer` goes
  /// further and turns the deadline into a poll timeout.)
  std::chrono::microseconds flush_interval{0};
  /// Worker threads for the internally created pool when none is passed
  /// (0 = hardware concurrency).
  std::size_t num_threads = 0;
};

/// A ready-to-serve prediction loop around one predictor.
///
/// A Server built from a pipeline may borrow a snapshot mapping: it must
/// not outlive the `MappedSnapshot` the pipeline was restored from.
/// `predict()` and `run()` are not re-entrant on one Server, but distinct
/// Servers may share one thread pool.
class Server {
 public:
  /// Serves \p pipeline through an owned LocalPredictor over \p pool (or
  /// over options.num_threads workers, created on the first batch).
  /// \throws std::invalid_argument if options.batch_size == 0 or
  /// options.flush_interval is outside 0..MicroBatcher::max_flush_interval().
  explicit Server(io::Pipeline pipeline, ServerOptions options = {},
                  runtime::ThreadPoolPtr pool = nullptr);

  /// Serves through \p predictor (e.g. a cluster::ShardedServer), which
  /// must outlive the Server; no thread pool is built.
  /// \throws std::invalid_argument on options as the constructor above.
  explicit Server(Predictor& predictor, ServerOptions options = {});

  [[nodiscard]] Predictor& predictor() const noexcept { return *predictor_; }
  [[nodiscard]] const ServerOptions& options() const noexcept {
    return options_;
  }

  /// One micro-batch of numeric rows: predictions in row order (classifier
  /// labels as doubles).  Text rows go through predictor().predict().
  /// \throws std::invalid_argument on a row of the wrong arity or a text
  /// pipeline.
  [[nodiscard]] std::vector<double> predict(
      std::span<const std::vector<double>> rows) const;

  /// Serving-loop outcome.
  struct Stats {
    std::size_t rows = 0;
    std::size_t batches = 0;
    double seconds = 0.0;
  };

  /// Reads rows until end of stream, predicting in micro-batches and
  /// writing every prediction (with its admission-to-write latency) in
  /// input order.  The reader's format must match the pipeline's input
  /// mode (Text readers for text pipelines) and the writer's head mode its
  /// kind (Confidence heads come from classifiers, Band heads from
  /// regressors).  \throws RowError on malformed input — every row that
  /// parsed before the bad one is predicted, written and flushed first;
  /// PredictError when the predictor fails, after flushing every row
  /// answered before; std::invalid_argument if the reader's format/arity or
  /// the writer's head disagrees with the pipeline.
  Stats run(RowReader& reader, PredictionWriter& writer) const;

 private:
  std::unique_ptr<LocalPredictor> owned_;
  Predictor* predictor_;
  ServerOptions options_;
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_SERVER_HPP
