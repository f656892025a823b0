#ifndef HDC_CLUSTER_WORKER_HPP
#define HDC_CLUSTER_WORKER_HPP

/// \file worker.hpp
/// \brief One rank's compute engine and the framed request protocol.
///
/// A `Worker` is the rank-local half of the cluster: it maps the snapshot
/// itself (so N fork workers share one page-cache copy of the model bytes)
/// into a `serve::LocalPredictor` — the single-process serving stack — and
/// answers framed requests by decoding each frame into that predictor's
/// calls.  The same class runs in-process (loopback backend, and rank 0 of
/// the fork backend) and inside forked children — `handle()` is the single
/// entry point either way, so the loopback backend is a true oracle for the
/// fork transport.
///
/// The wire protocol is deliberately minimal: every request and response is
/// one length-prefixed frame (`comm.hpp` owns the framing); the payload
/// starts with a one-byte opcode (requests) or status (responses) followed
/// by fixed-width little-endian fields.  Same-machine processes only, so no
/// cross-endian concerns.  One codec here writes and reads it: an encoder
/// per request over one rows writer (numeric or text), one rows decoder on
/// the rank, and a decoder beside each fixed reply (docs/cluster.md):
///
///   predict request   [op][u8 flags][u64 nrows] then
///                       numeric:     [u64 nfeat][nrows*nfeat f64]
///                       text (bit 0): nrows ([u64 len][len text bytes])
///   predict response  [ok][u64 generation][u64 n] then
///                       flags bit 1 (head) clear:
///                         n f64 predictions         (Rows scheme)
///                         n (u64 dist, u64 index)   (Classes scheme)
///                       Rows + classifier head:  n (f64 label, f64 conf)
///                       Rows + regressor head:   n (f64 value, f64 p10,
///                                                   f64 p50, f64 p90)
///                       Classes + classifier head: n (u64 d1, u64 i1,
///                                                     u64 d2, u64 i2) —
///                         the slice top-2, absent slots all-ones
///                       Classes + regressor head: [u64 slice_len] then
///                         n * slice_len u64 distances — the rank's slice
///                         of the label-grid profile; concatenated in rank
///                         order it is the full profile, so the coordinator
///                         reproduces the argmin and the band
///                         (band_from_distances) bit-identically
///   reload request    [op][u64 len][path bytes]
///   reload response   [ok][u64 generation]
///   adapt request     [op][u8 flags][f64 target] then
///                       numeric:     [u64 nfeat][nfeat f64]
///                       text (bit 0): [u64 len][len text bytes]
///   adapt response    [ok][u64 generation][f64 predicted][u64 updated]
///                       [u64 feedback][u64 updates][u64 overlay_rows]
///   delta-rows req.   [op]
///   delta-rows resp.  [ok][u64 generation][u64 nrows][u64 wpr] then
///                       nrows ([u64 index][wpr u64 row words])
///   stats response    [ok][u64 rank][u64 generation][u64 rows][u64 batches]
///   ping response     [ok][u64 rank] (also a forked rank's ready frame)
///   error response    [err][message bytes]
///
/// Unknown flag bits, a mode that disagrees with the pipeline's input, and
/// any length that does not match the payload are error responses.
///
/// Under the `Classes` scheme a worker never produces final predictions: it
/// returns its slice's best `(distance, global index)` per row — the
/// classifier sweeps class-vectors [shard_begin, shard_end), the regressor
/// the keyed label rows `M ⊗ L_l` of its slice — and the coordinator
/// reduces and maps the winning index back to a label or value.  An empty
/// slice (more ranks than classes) reports the all-ones sentinel, which
/// never wins a reduce.
///
/// ## Online adaptation
///
/// `Adapt` broadcasts one feedback sample to every rank; each rank applies
/// it to its predictor's `serve::AdaptiveState` overlay, seeded with the
/// shared `kDefaultAdaptSeed`, so overlays are bit-identical across ranks
/// by construction.  `Predict2` serves the overlay from the first accepted
/// sample until the next reload retires it.  `DeltaRows` reports the
/// overlay's `changed_rows()` — its diff against the last full snapshot
/// file loaded — which the coordinator verifies are identical on every
/// rank before writing a delta file.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hdc/cluster/shard.hpp"
#include "hdc/io/snapshot.hpp"
#include "hdc/serve/local_predictor.hpp"

namespace hdc::cluster {

/// Request opcodes (first payload byte of a request frame).  Retired
/// opcodes (2: flag-less predict, 9: text adapt) answer "unknown opcode".
enum class WorkerOp : std::uint8_t {
  Ping = 1,
  Reload = 3,
  Stats = 4,
  Shutdown = 5,
  Adapt = 6,
  DeltaRows = 7,
  Predict2 = 8,
};

/// `Predict2` and `Adapt` request flags (second payload byte).
inline constexpr std::uint8_t kPredictFlagText = 1;  ///< Rows are raw text.
inline constexpr std::uint8_t kPredictFlagHead = 2;  ///< Carry head fields
                                                     ///< (Predict2 only).

/// Response status (first payload byte of a response frame).
inline constexpr std::uint8_t kWorkerOk = 0;
inline constexpr std::uint8_t kWorkerErr = 1;

/// Sentinel `(distance, index)` reported for an empty Classes slice; loses
/// every lexicographic reduce against a real candidate.
inline constexpr std::uint64_t kNoCandidate = ~std::uint64_t{0};

/// One rank's counters: the stats reply, as `!stats` and rank_stats()
/// report it.
struct RankStats {
  std::size_t rank = 0;
  std::uint64_t generation = 0;
  std::uint64_t rows = 0;
  std::uint64_t batches = 0;
};

/// A predict reply: its fixed header and the per-row fields after it, in
/// the scheme's layout (file comment).
struct PredictReply {
  std::uint64_t generation = 0;
  std::uint64_t rows = 0;
  std::string_view fields;
};

/// One rank of the cluster: a `serve::LocalPredictor` over the mapped
/// snapshot and the request dispatcher.  Not thread-safe; each rank is
/// single-threaded by construction (parallelism comes from the process
/// fan-out): its predictor's pool has one worker, whose rounds run on the
/// thread that calls `handle()`.
class Worker {
 public:
  struct Config {
    std::string snapshot_path;
    std::size_t rank = 0;
    std::size_t replicas = 1;
    ShardScheme scheme = ShardScheme::Rows;
    /// Integrity check of the initial load; reloads always checksum.
    io::SnapshotIntegrity integrity = io::SnapshotIntegrity::Checksum;
    io::MappingOptions mapping{};
  };

  /// Maps \p cfg.snapshot_path and restores the pipeline.
  /// \throws io::SnapshotError on open/validation failure;
  /// std::invalid_argument on rank >= replicas or replicas == 0.
  explicit Worker(Config cfg);

  /// Dispatches one request payload and returns the response payload.
  /// Never throws: every failure becomes an error response.  After a
  /// Shutdown request, `shutdown_requested()` turns true and the caller's
  /// loop should exit.
  [[nodiscard]] std::string handle(std::string_view request);

  [[nodiscard]] bool shutdown_requested() const noexcept { return shutdown_; }
  [[nodiscard]] std::size_t rank() const noexcept { return cfg_.rank; }

  /// The wire generation: the predictor's, counted from 1.
  [[nodiscard]] std::uint64_t generation() const {
    return predictor_.generation() + 1;
  }
  /// The serving pipeline; the reference lives until the next reload.
  [[nodiscard]] const io::Pipeline& pipeline() const {
    return predictor_.state()->pipeline();
  }
  [[nodiscard]] std::string source_path() const { return predictor_.source(); }
  /// The last *full* snapshot loaded: what delta reloads patch and what
  /// `DeltaRows` diffs against.
  [[nodiscard]] std::string base_path() const {
    return predictor_.state()->base_path();
  }

 private:
  /// The rejection messages of one request kind's rows.
  struct RowErrors;

  [[nodiscard]] std::string handle_predict2(std::string_view body);
  [[nodiscard]] std::string handle_reload(std::string_view body);
  [[nodiscard]] std::string handle_adapt(std::string_view body);
  [[nodiscard]] std::string handle_delta_rows();
  /// The \p nrows rows of the pipeline's mode that fill \p body from \p at
  /// on, read into the reused row slots.  \throws std::invalid_argument,
  /// worded by \p errors, on a wrong arity, truncation or trailing bytes.
  [[nodiscard]] serve::SampleBatch decode_rows(std::string_view body,
                                               std::size_t at,
                                               std::size_t nrows,
                                               const RowErrors& errors);
  /// The Classes-scheme slice sweep over the current model's arena:
  /// \p state's, or \p overlay's once the rank has accepted feedback
  /// (else null).
  void predict_classes(const serve::ServingStatePtr& state,
                       const serve::AdaptiveState* overlay,
                       const serve::SampleBatch& batch, bool head,
                       std::string& out);

  Config cfg_;
  serve::LocalPredictor predictor_;
  /// Row slots reused across frames, as MicroBatcher's are.
  std::vector<std::vector<double>> rows_;
  std::vector<std::string> texts_;
  std::uint64_t rows_served_ = 0;
  std::uint64_t batches_ = 0;
  bool shutdown_ = false;
};

/// Request encoders shared by the coordinator and the tests.
[[nodiscard]] std::string encode_ping_request();
[[nodiscard]] std::string encode_reload_request(const std::string& path);
[[nodiscard]] std::string encode_stats_request();
[[nodiscard]] std::string encode_shutdown_request();
[[nodiscard]] std::string encode_delta_rows_request();
/// A predict frame of \p batch; a numeric frame carries \p nfeat even when
/// it has no rows (a rank's empty slice).
[[nodiscard]] std::string encode_predict_request(
    const serve::SampleBatch& batch, std::size_t nfeat, bool head);
[[nodiscard]] std::string encode_adapt_request(const serve::Sample& sample,
                                               double target);

/// Reply decoders: the fields of an ok reply, read where worker.cpp writes
/// them.  \throws std::out_of_range on a reply too short for its layout.
[[nodiscard]] std::uint64_t decode_ping_reply(std::string_view reply);
[[nodiscard]] std::uint64_t decode_reload_reply(std::string_view reply);
[[nodiscard]] RankStats decode_stats_reply(std::string_view reply);
[[nodiscard]] serve::AdaptOutcome decode_adapt_reply(std::string_view reply);
[[nodiscard]] PredictReply decode_predict_reply(std::string_view reply);
/// The changed rows, index → row words.  \throws ClusterError unless they
/// fill the reply exactly.
[[nodiscard]] std::map<std::size_t, std::vector<std::uint64_t>>
decode_delta_rows_reply(std::string_view reply);

/// Little-endian field helpers for the fixed-width payload layout.
void put_u64(std::string& out, std::uint64_t value);
void put_f64(std::string& out, double value);
[[nodiscard]] std::uint64_t get_u64(std::string_view payload,
                                    std::size_t offset);
[[nodiscard]] double get_f64(std::string_view payload, std::size_t offset);

}  // namespace hdc::cluster

#endif  // HDC_CLUSTER_WORKER_HPP
