#ifndef HDC_CLUSTER_SHARDED_SERVER_HPP
#define HDC_CLUSTER_SHARDED_SERVER_HPP

/// \file sharded_server.hpp
/// \brief The coordinator: sharded prediction bit-identical to one process.
///
/// `ShardedServer` owns a `Comm` and turns a `serve::SampleBatch` (numeric
/// rows or raw text, one code path) into predictions: it encodes each
/// rank's predict frame with worker.hpp's codec, scatters, and reduces the
/// decoded replies.  Its contract — enforced by the tests/cluster equivalence
/// matrix — is that for any {replicas, scheme, backend, batch size, kernel
/// variant} the prediction stream is **bit-identical** to calling the
/// single-process pipeline row by row:
///
///  * `Rows`    — rank r predicts rows [shard_begin, shard_end) of the
///    batch; slices concatenate in rank order.  Exact because each row is
///    predicted by the same code over the same snapshot bytes.
///  * `Classes` — every rank scans its slice of the class-vector (or
///    label-basis) arena and reports per-row `(distance, global index)`
///    minima; the coordinator takes the lexicographic minimum across ranks.
///    Exact because rank slices are disjoint ascending index ranges, so the
///    lexicographic reduce reproduces argmin-with-lowest-index-tie-break.
///
/// Batches are generation-atomic: `predict()` and `reload()` serialize on
/// one mutex, every predict response carries the worker's generation, and a
/// mismatch inside one batch is a hard `ClusterError` — a batch is computed
/// entirely on one model generation or not answered at all.  The same
/// serialization makes `reload()` a cluster-wide barrier: rank 0 validates
/// the replacement first (load + `ensure_swappable`), so a bad snapshot is
/// rejected before any rank has flipped.
///
/// `ShardedServer` is a `serve::Predictor`, so the stdin `serve::Server`
/// and the socket `serve::NetServer` drive it through the same micro-batch
/// loop as a single process.  Worker failure surfaces as `ClusterError`
/// from the faulting call; the shared loop drains every row answered before
/// the fault and names the input line (`serve::PredictError`), so a stream
/// consumer can tell exactly which rows were answered.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "hdc/cluster/comm.hpp"
#include "hdc/cluster/shard.hpp"
#include "hdc/io/pipeline.hpp"
#include "hdc/io/snapshot.hpp"
#include "hdc/serve/predictor.hpp"

namespace hdc::cluster {

struct ClusterOptions {
  std::size_t replicas = 1;
  ShardScheme scheme = ShardScheme::Rows;
  CommBackend backend = CommBackend::Loopback;
  /// Integrity check of the initial load; reloads always checksum.
  io::SnapshotIntegrity integrity = io::SnapshotIntegrity::Checksum;
  io::MappingOptions mapping{};
};

/// Coordinator over N worker ranks; thread-safe (exchanges serialize).
class ShardedServer final : public serve::Predictor {
 public:
  /// Builds the comm (forking before any thread pool exists — construct
  /// this before `NetServer` or other pool owners) and barriers once so a
  /// worker that failed to initialize fails construction, not traffic.
  /// \throws ClusterError / io::SnapshotError / std::invalid_argument
  /// (replicas above max_replicas() among them).
  ShardedServer(std::string snapshot_path, ClusterOptions options);

  /// Upper bound on `ClusterOptions::replicas`: the fork backend starts a
  /// process per rank, so an absurd count is rejected before any forks.
  [[nodiscard]] static constexpr std::size_t max_replicas() noexcept {
    return 256;
  }

  /// The wire shape, read once at construction: reloads keep it, and
  /// the rank-0 pipeline it comes from is replaced under the exchange lock.
  [[nodiscard]] io::PipelineKind kind() const override { return kind_; }
  [[nodiscard]] io::PipelineInput input() const override { return input_; }
  [[nodiscard]] std::size_t num_features() const override {
    return num_features_;
  }
  [[nodiscard]] std::size_t dimension() const noexcept;
  [[nodiscard]] std::size_t replicas() const noexcept { return comm_->size(); }
  [[nodiscard]] ShardScheme scheme() const noexcept { return options_.scheme; }
  [[nodiscard]] const char* backend() const noexcept {
    return comm_->backend();
  }
  [[nodiscard]] std::vector<pid_t> worker_pids() const {
    return comm_->worker_pids();
  }

  /// One generation-atomic batch: predictions[i] answers row i (labels as
  /// doubles for classifier pipelines).  Heads reduce exactly as
  /// predictions do — classifier ranks report slice top-2 candidates
  /// merged with merge_top2(), regressor ranks report slice distance
  /// profiles that concatenate into the full label grid — so every head is
  /// bit-identical to the single-process batch engines.
  /// \throws ClusterError on worker failure or torn generation;
  /// std::invalid_argument on a batch of the wrong input mode or arity.
  [[nodiscard]] serve::Predictions predict(const serve::SampleBatch& batch,
                                           serve::HeadMode head) override;

  /// predict() of numeric rows without a head.
  [[nodiscard]] serve::Predictions predict(
      std::span<const std::vector<double>> rows) {
    return predict(rows, serve::HeadMode::None);
  }

  /// Hot-swaps every rank to \p path ("" reloads the active source; an
  /// HDCS delta file patches the tracked base).  Validates on rank 0
  /// first, checksum included whatever `ClusterOptions::integrity` says;
  /// on rejection no rank has changed.  Returns the new cluster
  /// generation.
  /// \throws io::SnapshotError on rejection; ClusterError if a rank failed
  /// after validation (the cluster is then inconsistent and unusable).
  std::uint64_t reload(const std::string& path) override;

  /// One `!adapt` feedback sample, broadcast to every rank: each applies
  /// it to its deterministic rank-local overlay and serves the adapted
  /// model from the next batch on.  The full response payload must be
  /// byte-identical on every rank — divergence is a hard ClusterError.
  /// \throws ClusterError on worker failure or divergence;
  /// std::invalid_argument on a mode or arity mismatch (validated rank-side
  /// too).
  serve::AdaptOutcome adapt(const serve::Sample& sample,
                            double target) override;

  /// Writes the cluster's adapted-vs-base difference (gathered as
  /// per-rank changed-row sets, verified byte-identical) as an HDCS delta
  /// file at \p out_path; returns the changed-row count.
  /// \throws ClusterError on divergence; std::runtime_error when nothing
  /// differs from the base; io::SnapshotError on write failure.
  std::uint64_t export_delta(const std::string& out_path) override;

  /// The last *full* snapshot the cluster loaded (delta reloads keep it).
  [[nodiscard]] std::string base_path() const;

  /// The cluster generation, read off rank 0 (every reload and predict
  /// checks that the other ranks agree).
  [[nodiscard]] std::uint64_t generation() const override;

  /// Path serving the current generation.
  [[nodiscard]] std::string source() const override;

  /// Per-rank counters, gathered live.  \throws ClusterError as predict().
  [[nodiscard]] std::vector<RankStats> rank_stats();

  /// rank_stats() as the `!stats` reply fields:
  /// ` rankR=rows:N,batches:B,gen:G` per rank.
  [[nodiscard]] std::string stats() override;

 private:
  [[nodiscard]] std::vector<std::string> checked_exchange(
      std::vector<std::string> requests, const char* what);

  ClusterOptions options_;
  std::unique_ptr<Comm> comm_;
  io::PipelineKind kind_{};
  io::PipelineInput input_{};
  std::size_t num_features_ = 0;
  mutable std::mutex mutex_;
};

}  // namespace hdc::cluster

#endif  // HDC_CLUSTER_SHARDED_SERVER_HPP
