#ifndef HDC_SERVE_NET_SERVER_HPP
#define HDC_SERVE_NET_SERVER_HPP

/// \file net_server.hpp
/// \brief Long-lived socket front end over the hdc::serve pipeline stack.
///
/// `Server` serves one blocking byte stream and returns; a replica fleet
/// needs the other shape: a process that listens on a TCP (and/or
/// unix-domain) socket, serves many persistent connections concurrently,
/// and keeps serving while its model is retrained and redeployed.
/// `NetServer` is that front end:
///
///  * every accepted connection gets its own `RowReader`/`PredictionWriter`
///    pair and `MicroBatcher`, driven by a ppoll loop whose flush deadline
///    is a *real* latency bound — the poll timeout is the time left until
///    the oldest admitted row's deadline, so a stalled client can never pin
///    rows in a partial batch (the blocking `Server::run` can only
///    approximate this; see ServerOptions::flush_interval);
///  * batches from all connections go to one shared `Predictor`: the
///    in-process `LocalPredictor` (one thread pool, hot-swappable model)
///    or a `hdc::cluster::ShardedServer` — the socket front end fans in/out
///    of the cluster transparently;
///  * the control plane is the predictor's: `!reload` hot-swaps it with
///    zero downtime (the replacement is fully validated off to the side,
///    batches already in flight finish on the model they started with, and
///    a rejected reload leaves the incumbent serving untouched);
///  * a line longer than kMaxLineBytes is answered `!error line too long`
///    and closes that connection: per-connection input memory is bounded
///    whatever a peer sends.
///
/// ## Wire protocol
///
/// Lines in, lines out — exactly the `hdcgen serve` stdin format, so the
/// same producers work against both front ends.  Data lines are CSV/JSONL
/// feature rows — or, for text pipelines served with `--input text`, raw
/// text samples (one per line; a leading `!` still marks a control line).
/// Responses are emitted in admission order per connection, optionally
/// carrying a prediction head (NetServerOptions::head): a margin
/// confidence per classifier row or a p10/p50/p90 band per regressor row.
/// Lines starting with `!` are control commands:
///
///   * `!ping`          → `!ok pong generation=G`
///   * `!stats`         → `!ok rows=N batches=B generation=G`
///   * `!reload [PATH]` → `!ok reloaded generation=G source=PATH`, or
///                        `!error reload rejected: ...` with the old model
///                        still serving.  Without PATH the snapshot the
///                        server is currently serving from is re-read
///                        (SIGHUP triggers exactly this via
///                        reload_notify_fd()).  PATH may also be an HDCS
///                        delta file: it is applied against the last *full*
///                        snapshot the server loaded (the tracked base) and
///                        the patched model hot-swaps in like any other.
///   * `!adapt T ROW`   → one online-feedback sample: ROW is a data line in
///                        the configured input format, T the true target
///                        (an integral class label for classifiers).
///                        Replies `!ok adapt predicted=P updated=U
///                        feedback=N updates=M overlay_rows=K generation=G`
///                        without touching the serving base model — the
///                        update lands in a copy-on-write overlay pinned to
///                        the current generation (and is dropped when a
///                        reload retires that generation).
///   * `!use base|adapted` → A/B switch for *this connection's* data rows:
///                        `adapted` routes them through the overlay,
///                        `base` (the default) through the predictor.
///   * `!delta PATH`    → exports the overlay-vs-base difference as an HDCS
///                        delta file at PATH (`!ok delta rows=N path=PATH`);
///                        `!reload PATH` on any replica of the same base —
///                        or `hdcgen patch` — restores the adapted model
///                        bit-identically.
///   * `!quit`          → `!ok bye`, then the connection closes.
///
/// In cluster mode (`--replicas`), `!adapt` broadcasts the sample to every
/// rank, which apply it to deterministic rank-local overlays and serve the
/// adapted model immediately; `!use` is rejected and `!delta` gathers the
/// changed rows from rank 0.
///
/// A malformed data line flushes every row admitted before it, answers
/// `!error row N: ...` and closes that one connection; the server and all
/// other connections keep running.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "hdc/serve/prediction_writer.hpp"
#include "hdc/serve/predictor.hpp"
#include "hdc/serve/row_reader.hpp"

namespace hdc::serve {

/// Listener + micro-batching policy for the socket front end.
struct NetServerOptions {
  /// TCP bind address (IPv4 dotted quad); empty disables the TCP listener.
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (query port()).
  std::uint16_t port = 0;
  /// Unix-domain socket path; empty disables the unix listener.  A stale
  /// socket file at the path is unlinked before bind.
  std::string unix_path;
  /// Rows per micro-batch per connection (> 0).
  std::size_t batch_size = 64;
  /// Upper bound on how long an admitted row may wait in a partial batch
  /// (enforced via the ppoll timeout, microsecond granularity).  Zero means
  /// "flush whenever the connection has no more bytes ready" — the lowest
  /// latency, least batching setting.
  std::chrono::microseconds flush_interval{2000};
  /// Wire formats, as in the stdin front end.  `input` must match the
  /// predictor's input mode (Text for text pipelines) and `head` its kind
  /// (Confidence for classifiers, Band for regressors) — both are checked
  /// at construction.
  RowFormat input = RowFormat::Csv;
  OutputFormat output = OutputFormat::Plain;
  bool with_latency = false;
  HeadMode head = HeadMode::None;
  /// Connections beyond this are refused with `!error server full`.
  std::size_t max_connections = 256;
};

/// The persistent socket server.  Construction binds the listeners (so
/// port() is answerable immediately); run() serves until stop().  Not
/// copyable or movable; destroy it only after run() has returned.
class NetServer {
 public:
  /// Longest data or control line a connection may send, newline excluded.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  /// Serves \p predictor, which must outlive the server.
  /// \throws std::invalid_argument on batch_size == 0, a flush_interval
  /// outside 0..MicroBatcher::max_flush_interval(), no listener
  /// configured, or wire formats that disagree with the predictor;
  /// std::runtime_error when a socket cannot be bound.
  NetServer(Predictor& predictor, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// The bound TCP port (resolved when options.port was 0); 0 when the
  /// TCP listener is disabled.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] const NetServerOptions& options() const noexcept {
    return options_;
  }

  /// Accepts and serves connections until stop(); joins every connection
  /// thread before returning.  Call at most once.
  void run();

  /// Asks run() to wind down: stops accepting, wakes every connection,
  /// flushes nothing further.  Safe from any thread; idempotent.
  void stop();

  /// Write end of the self-pipe that requests an asynchronous reload:
  /// writing one byte (async-signal-safe) makes the accept loop re-read the
  /// predictor's active source and log the outcome to stderr — wire a
  /// SIGHUP handler to exactly this.
  [[nodiscard]] int reload_notify_fd() const noexcept {
    return reload_pipe_[1];
  }

  /// Monotonic serving counters (snapshot; concurrently updated).
  struct Stats {
    std::uint64_t connections = 0;
    std::uint64_t rows = 0;
    std::uint64_t batches = 0;
    std::uint64_t reloads = 0;
    std::uint64_t rejected_reloads = 0;
  };
  [[nodiscard]] Stats stats() const noexcept;

 private:
  struct Impl;

  void accept_loop();
  void serve_connection(int fd);
  void serve_connection_body(int fd);
  void handle_async_reload();
  /// predictor_.reload(path), counted in the reload/rejection stats.
  std::uint64_t counted_reload(const std::string& path);

  Predictor& predictor_;
  NetServerOptions options_;
  std::uint16_t port_ = 0;
  int tcp_fd_ = -1;
  int unix_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
  int reload_pipe_[2] = {-1, -1};
  Impl* impl_;  ///< Connection registry + counters (net_server.cpp).
};

}  // namespace hdc::serve

#endif  // HDC_SERVE_NET_SERVER_HPP
