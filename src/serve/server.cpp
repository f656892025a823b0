#include "hdc/serve/server.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "hdc/serve/micro_batcher.hpp"

namespace hdc::serve {

namespace {

void check_options(const ServerOptions& options) {
  if (options.batch_size == 0) {
    throw std::invalid_argument("Server: batch_size must be > 0");
  }
  const auto max = MicroBatcher::max_flush_interval();
  if (options.flush_interval.count() < 0 || options.flush_interval > max) {
    throw std::invalid_argument("Server: flush_interval must be within 0.." +
                                std::to_string(max.count()) + " us");
  }
}

}  // namespace

Server::Server(io::Pipeline pipeline, ServerOptions options,
               runtime::ThreadPoolPtr pool)
    : owned_(std::make_unique<LocalPredictor>(
          std::move(pipeline), std::move(pool), options.num_threads)),
      predictor_(owned_.get()),
      options_(options) {
  check_options(options_);
}

Server::Server(Predictor& predictor, ServerOptions options)
    : predictor_(&predictor), options_(options) {
  check_options(options_);
}

std::vector<double> Server::predict(
    std::span<const std::vector<double>> rows) const {
  return predictor_->predict(rows, HeadMode::None).predictions;
}

Server::Stats Server::run(RowReader& reader, PredictionWriter& writer) const {
  MicroBatcher batcher(*predictor_, reader, writer, options_.batch_size);
  const auto start = MicroBatcher::clock::now();
  try {
    while (true) {
      // Bounded-staleness guard: with a flush interval configured, pending
      // rows are flushed *before* a read that may block — either their
      // deadline has already passed, or the stream has nothing buffered
      // and the next read could stall unboundedly.  Rows are read with
      // blocking stream I/O, so this is the best a stream can do (NetServer
      // turns the deadline into a poll timeout instead).
      if (!batcher.empty() && options_.flush_interval.count() > 0 &&
          (MicroBatcher::clock::now() - batcher.oldest() >=
               options_.flush_interval ||
           reader.may_block())) {
        batcher.flush(*predictor_);
      }
      if (!batcher.read()) {
        break;
      }
      if (batcher.full()) {
        batcher.flush(*predictor_);
      }
    }
  } catch (const RowError&) {
    // Serve every row that parsed before the bad one, then surface it.
    batcher.flush(*predictor_);
    throw;
  }
  batcher.flush(*predictor_);
  Stats stats;
  stats.rows = batcher.rows();
  stats.batches = batcher.batches();
  stats.seconds = std::chrono::duration<double>(MicroBatcher::clock::now() -
                                                start)
                      .count();
  return stats;
}

}  // namespace hdc::serve
