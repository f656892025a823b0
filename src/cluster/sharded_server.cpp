#include "hdc/cluster/sharded_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "hdc/io/delta.hpp"
#include "hdc/io/reload.hpp"

namespace hdc::cluster {

namespace {

/// \throws ClusterError(\p message) unless every rank sent the same reply.
void require_agreement(const std::vector<std::string>& responses,
                       const char* message) {
  for (const std::string& response : responses) {
    if (response != responses.front()) {
      throw ClusterError{message};
    }
  }
}

/// Rows scheme: ranks predicted their slices over the full model, so the
/// slices concatenate in rank order, each row as the \p fields f64s the
/// rank wrote for it: the prediction, then a confidence (2) or a
/// p10/p50/p90 band (4).
void gather_rows(const std::vector<PredictReply>& replies, std::size_t fields,
                 serve::Predictions& out) {
  std::size_t i = 0;
  for (const PredictReply& reply : replies) {
    if (reply.rows > out.predictions.size() - i ||
        reply.fields.size() != reply.rows * fields * 8) {
      throw ClusterError{"cluster predict: row count mismatch in gather"};
    }
    for (std::size_t at = 0; at < reply.fields.size(); at += fields * 8) {
      out.predictions[i] = get_f64(reply.fields, at);
      if (fields == 2) {
        out.confidences[i] = get_f64(reply.fields, at + 8);
      } else if (fields == 4) {
        out.bands[i] = Band{get_f64(reply.fields, at + 8),
                            get_f64(reply.fields, at + 16),
                            get_f64(reply.fields, at + 24)};
      }
      ++i;
    }
  }
  if (i != out.predictions.size()) {
    throw ClusterError{"cluster predict: row count mismatch in gather"};
  }
}

/// Classes scheme without a head: the lexicographic reduce of the ranks'
/// per-row `(distance, index)` candidates, mapped to \p pipeline's label or
/// value.
void gather_predictions(const std::vector<PredictReply>& replies,
                        const io::Pipeline& pipeline,
                        serve::Predictions& out) {
  const bool classifier = pipeline.kind() == io::PipelineKind::Classifier;
  for (std::size_t i = 0; i < out.predictions.size(); ++i) {
    std::uint64_t best_distance = kNoCandidate;
    std::uint64_t best_index = kNoCandidate;
    for (const PredictReply& reply : replies) {
      const std::uint64_t distance = get_u64(reply.fields, i * 16);
      const std::uint64_t index = get_u64(reply.fields, i * 16 + 8);
      if (index == kNoCandidate) {
        continue;  // Empty slice (more ranks than candidates).
      }
      // Lexicographic (distance, index) minimum across disjoint ascending
      // slices == global argmin with lowest-index tie-breaking.
      if (distance < best_distance ||
          (distance == best_distance && index < best_index)) {
        best_distance = distance;
        best_index = index;
      }
    }
    if (best_index == kNoCandidate) {
      throw ClusterError{"cluster predict: no candidate from any rank"};
    }
    if (classifier) {
      out.predictions[i] = static_cast<double>(best_index);
    } else {
      out.predictions[i] = pipeline.regressor().labels().value_of(best_index);
    }
  }
}

/// Classes scheme with a head: merge_top2 of the ranks' slice top-2s, or
/// the label-grid profile reassembled from the ranks' slices.
void gather_heads(const std::vector<PredictReply>& replies,
                  const io::Pipeline& pipeline, serve::Predictions& out) {
  const std::size_t nrows = out.predictions.size();
  if (pipeline.kind() == io::PipelineKind::Classifier) {
    // merge_top2 over disjoint ascending slices equals the top-2 of the
    // union, so label and margin reproduce the single-process head.
    for (std::size_t i = 0; i < nrows; ++i) {
      Top2 merged{};
      for (const PredictReply& reply : replies) {
        const std::string_view r = reply.fields;
        const std::size_t base = i * 32;
        const Top2 slice{{get_u64(r, base), get_u64(r, base + 8)},
                         {get_u64(r, base + 16), get_u64(r, base + 24)}};
        merged = merge_top2(merged, slice);
      }
      if (merged.best.absent()) {
        throw ClusterError{"cluster predict: no candidate from any rank"};
      }
      out.predictions[i] = static_cast<double>(merged.best.index);
      out.confidences[i] = margin_confidence(merged);
    }
    return;
  }
  // Each rank sent its slice of the label-grid distance profile; rank
  // slices are disjoint ascending grid ranges, so concatenating them in
  // rank order rebuilds the full profile and both the argmin readout and
  // the band are computed from exactly the single-process integers.
  const ScalarEncoder& labels = pipeline.regressor().labels();
  const std::size_t dim = pipeline.dimension();
  std::vector<std::size_t> widths;
  std::size_t total = 0;
  for (const PredictReply& reply : replies) {
    // Clamped so a forged width cannot wrap the sum past the check below.
    const std::size_t width = get_u64(reply.fields, 0);
    widths.push_back(std::min(width, labels.size() + 1));
    total += widths.back();
  }
  if (total != labels.size()) {
    throw ClusterError{
        "cluster predict: profile slices do not cover the label grid"};
  }
  std::vector<std::size_t> profile(total);
  for (std::size_t i = 0; i < nrows; ++i) {
    std::size_t at = 0;
    for (std::size_t rank = 0; rank < replies.size(); ++rank) {
      const std::size_t base = 8 + i * widths[rank] * 8;
      for (std::size_t j = 0; j < widths[rank]; ++j) {
        profile[at++] = get_u64(replies[rank].fields, base + j * 8);
      }
    }
    std::size_t best = 0;
    for (std::size_t j = 1; j < total; ++j) {
      if (profile[j] < profile[best]) {
        best = j;
      }
    }
    out.predictions[i] = labels.value_of(best);
    out.bands[i] = band_from_distances(profile, labels, dim);
  }
}

}  // namespace

ShardedServer::ShardedServer(std::string snapshot_path,
                             ClusterOptions options)
    : options_(options) {
  if (options_.replicas > max_replicas()) {
    throw std::invalid_argument{
        "cluster: replicas " + std::to_string(options_.replicas) +
        " exceeds the supported maximum of " + std::to_string(max_replicas())};
  }
  Worker::Config base;
  base.snapshot_path = std::move(snapshot_path);
  base.scheme = options_.scheme;
  base.integrity = options_.integrity;
  base.mapping = options_.mapping;
  if (options_.backend == CommBackend::Loopback) {
    comm_ = std::make_unique<LoopbackComm>(base, options_.replicas);
  } else {
    comm_ = std::make_unique<ForkComm>(base, options_.replicas);
  }
  comm_->barrier();
  const io::Pipeline& pipeline = comm_->local_worker().pipeline();
  kind_ = pipeline.kind();
  input_ = pipeline.input();
  num_features_ = pipeline.num_features();
}

std::size_t ShardedServer::dimension() const noexcept {
  return comm_->local_worker().pipeline().dimension();
}

std::vector<std::string> ShardedServer::checked_exchange(
    std::vector<std::string> requests, const char* what) {
  std::vector<std::string> responses = comm_->exchange(requests);
  for (std::size_t rank = 0; rank < responses.size(); ++rank) {
    const std::string& r = responses[rank];
    if (r.empty()) {
      throw ClusterError{"cluster rank " + std::to_string(rank) +
                         " returned an empty frame during " + what};
    }
    if (static_cast<std::uint8_t>(r[0]) != kWorkerOk) {
      throw ClusterError{"cluster rank " + std::to_string(rank) +
                         " rejected " + what + ": " + r.substr(1)};
    }
  }
  return responses;
}

serve::Predictions ShardedServer::predict(const serve::SampleBatch& batch,
                                          serve::HeadMode head) {
  if (serve::is_text(batch) != (input() == io::PipelineInput::Text)) {
    throw std::invalid_argument{
        serve::is_text(batch)
            ? "cluster predict: numeric pipeline takes feature rows, not text"
            : "cluster predict: text pipeline takes raw text rows"};
  }
  if (const auto* rows =
          std::get_if<std::span<const std::vector<double>>>(&batch)) {
    for (const std::vector<double>& row : *rows) {
      if (row.size() != num_features()) {
        throw std::invalid_argument{"cluster predict: row arity mismatch"};
      }
    }
  }
  const bool with_head = head != serve::HeadMode::None;
  const std::size_t replicas = comm_->size();
  const std::size_t nrows = serve::batch_size(batch);
  const std::lock_guard<std::mutex> lock(mutex_);
  // Rows: each rank gets its slice of the batch; Classes: every rank gets
  // the whole batch, encoded once.
  std::vector<std::string> requests;
  if (options_.scheme == ShardScheme::Classes) {
    requests.assign(replicas,
                    encode_predict_request(batch, num_features(), with_head));
  } else {
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      const std::size_t begin = shard_begin(rank, replicas, nrows);
      const std::size_t end = shard_end(rank, replicas, nrows);
      const auto slice = [&](const auto& rows) {
        return serve::SampleBatch(rows.subspan(begin, end - begin));
      };
      requests.push_back(encode_predict_request(std::visit(slice, batch),
                                                num_features(), with_head));
    }
  }
  const std::vector<std::string> responses =
      checked_exchange(std::move(requests), "predict");

  // A batch must be answered by exactly one model generation on every rank;
  // anything else would interleave two models inside one reply stream.
  std::vector<PredictReply> replies;
  replies.reserve(replicas);
  for (const std::string& response : responses) {
    replies.push_back(decode_predict_reply(response));
    if (replies.back().generation != replies.front().generation) {
      throw ClusterError{"cluster predict: torn generation across ranks"};
    }
  }
  serve::Predictions result =
      serve::sized_predictions(kind(), nrows, head, replies.front().generation);
  const io::Pipeline& pipeline = comm_->local_worker().pipeline();
  const bool classifier = kind() == io::PipelineKind::Classifier;
  if (options_.scheme == ShardScheme::Rows) {
    gather_rows(replies, !with_head ? 1 : (classifier ? 2 : 4), result);
  } else if (with_head) {
    gather_heads(replies, pipeline, result);
  } else {
    gather_predictions(replies, pipeline, result);
  }
  return result;
}

std::uint64_t ShardedServer::reload(const std::string& path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Worker& local = comm_->local_worker();
  const std::string resolved = path.empty() ? local.source_path() : path;
  // Validate on rank 0 before any rank flips: a rejected snapshot must
  // leave the whole cluster serving the incumbent generation.  A hot swap
  // never trusts unvetted bytes, so this checksums even under Trust, as
  // every rank's own reload does.
  {
    const io::LoadedPipeline trial = io::load_pipeline_or_delta(
        resolved, local.base_path(), io::SnapshotIntegrity::Checksum,
        options_.mapping);
    io::ensure_swappable(trial.pipeline, local.pipeline());
  }
  const std::vector<std::string> responses = checked_exchange(
      std::vector<std::string>(comm_->size(), encode_reload_request(resolved)),
      "reload");
  require_agreement(responses,
                    "cluster reload: generation diverged across ranks");
  return decode_reload_reply(responses[0]);
}

serve::AdaptOutcome ShardedServer::adapt(const serve::Sample& sample,
                                         double target) {
  if (serve::is_text(sample) != (input() == io::PipelineInput::Text)) {
    throw std::invalid_argument{
        std::string{"cluster adapt: the pipeline takes "} +
        io::to_string(input()) + " rows, not " +
        (serve::is_text(sample) ? "text" : "numeric") + " rows"};
  }
  const auto* features = std::get_if<std::span<const double>>(&sample);
  if (features != nullptr && features->size() != num_features()) {
    throw std::invalid_argument{"cluster adapt: feature arity mismatch"};
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string request = encode_adapt_request(sample, target);
  const std::vector<std::string> responses = checked_exchange(
      std::vector<std::string>(comm_->size(), request), "adapt");
  // Every rank applied the same sample to a deterministically-seeded
  // overlay: the *entire* response payload must agree byte for byte, or
  // the bit-identical serving contract is already broken.
  require_agreement(responses, "cluster adapt: outcome diverged across ranks");
  return decode_adapt_reply(responses[0]);
}

std::uint64_t ShardedServer::export_delta(const std::string& out_path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::string> responses = checked_exchange(
      std::vector<std::string>(comm_->size(), encode_delta_rows_request()),
      "delta export");
  require_agreement(
      responses, "cluster delta export: changed rows diverged across ranks");
  const std::string base_path = comm_->local_worker().base_path();
  const auto rows = decode_delta_rows_reply(responses[0]);
  if (rows.empty()) {
    throw std::runtime_error{
        "delta export: the adapted model does not differ from " + base_path};
  }
  const io::MappedSnapshot base = io::MappedSnapshot::open(base_path);
  const std::size_t section = io::find_model_section(base);
  io::write_delta_file(
      io::make_delta(base, io::snapshot_file_hash(base_path), section, rows),
      out_path);
  return rows.size();
}

std::string ShardedServer::base_path() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return comm_->local_worker().base_path();
}

std::uint64_t ShardedServer::generation() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return comm_->local_worker().generation();
}

std::string ShardedServer::source() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return comm_->local_worker().source_path();
}

std::vector<RankStats> ShardedServer::rank_stats() {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::string> responses = checked_exchange(
      std::vector<std::string>(comm_->size(), encode_stats_request()),
      "stats");
  std::vector<RankStats> out;
  for (const std::string& r : responses) {
    out.push_back(decode_stats_reply(r));
  }
  return out;
}

std::string ShardedServer::stats() {
  std::string out;
  for (const RankStats& rank : rank_stats()) {
    out += " rank" + std::to_string(rank.rank) +
           "=rows:" + std::to_string(rank.rows) +
           ",batches:" + std::to_string(rank.batches) +
           ",gen:" + std::to_string(rank.generation);
  }
  return out;
}

}  // namespace hdc::cluster
