#include "hdc/cluster/sharded_server.hpp"

#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

#include "hdc/io/delta.hpp"
#include "hdc/io/reload.hpp"

namespace hdc::cluster {

namespace {

/// Offsets inside a predict response payload: [ok][u64 gen][u64 n][data].
constexpr std::size_t kGenOffset = 1;
constexpr std::size_t kCountOffset = 9;
constexpr std::size_t kDataOffset = 17;

}  // namespace

ShardedServer::ShardedServer(std::string snapshot_path,
                             ClusterOptions options)
    : options_(options) {
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
  const bool with_head = head != serve::HeadMode::None;
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> requests =
      serve::is_text(batch)
          ? build_text_requests(std::get<std::span<const std::string>>(batch),
                                with_head)
          : build_predict_requests(
                std::get<std::span<const std::vector<double>>>(batch),
                with_head);
  const std::vector<std::string> responses =
      checked_exchange(std::move(requests), "predict");
  const std::size_t nrows = serve::batch_size(batch);
  return with_head ? gather_heads(responses, nrows)
                   : gather_predictions(responses, nrows);
}

std::vector<std::string> ShardedServer::build_predict_requests(
    std::span<const std::vector<double>> rows, bool head) {
  if (input() != io::PipelineInput::Numeric) {
    throw std::invalid_argument{
        "cluster predict: text pipeline takes raw text rows"};
  }
  const std::size_t nfeat = num_features();
  for (const std::vector<double>& row : rows) {
    if (row.size() != nfeat) {
      throw std::invalid_argument{"cluster predict: row arity mismatch"};
    }
  }
  const std::size_t replicas = comm_->size();
  const std::size_t nrows = rows.size();

  std::vector<std::string> requests(replicas);
  if (options_.scheme == ShardScheme::Rows) {
    std::vector<double> flat;
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      const std::size_t begin = shard_begin(rank, replicas, nrows);
      const std::size_t end = shard_end(rank, replicas, nrows);
      flat.clear();
      flat.reserve((end - begin) * nfeat);
      for (std::size_t i = begin; i < end; ++i) {
        flat.insert(flat.end(), rows[i].begin(), rows[i].end());
      }
      requests[rank] =
          encode_predict2_request(flat.data(), end - begin, nfeat, head);
    }
  } else {
    std::vector<double> flat;
    flat.reserve(nrows * nfeat);
    for (const std::vector<double>& row : rows) {
      flat.insert(flat.end(), row.begin(), row.end());
    }
    const std::string request =
        encode_predict2_request(flat.data(), nrows, nfeat, head);
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      requests[rank] = request;
    }
  }
  return requests;
}

std::vector<std::string> ShardedServer::build_text_requests(
    std::span<const std::string> rows, bool head) {
  if (input() != io::PipelineInput::Text) {
    throw std::invalid_argument{
        "cluster predict: numeric pipeline takes feature rows, not text"};
  }
  const std::size_t replicas = comm_->size();
  const std::size_t nrows = rows.size();
  std::vector<std::string> requests(replicas);
  if (options_.scheme == ShardScheme::Rows) {
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      const std::size_t begin = shard_begin(rank, replicas, nrows);
      const std::size_t end = shard_end(rank, replicas, nrows);
      requests[rank] = encode_predict2_text_request(
          rows.subspan(begin, end - begin), head);
    }
  } else {
    const std::string request = encode_predict2_text_request(rows, head);
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      requests[rank] = request;
    }
  }
  return requests;
}

std::uint64_t ShardedServer::checked_generation(
    const std::vector<std::string>& responses) const {
  // A batch must be answered by exactly one model generation on every rank;
  // anything else would interleave two models inside one reply stream.
  const std::uint64_t generation = get_u64(responses[0], kGenOffset);
  for (std::size_t rank = 1; rank < responses.size(); ++rank) {
    if (get_u64(responses[rank], kGenOffset) != generation) {
      throw ClusterError{"cluster predict: torn generation across ranks"};
    }
  }
  return generation;
}

serve::Predictions ShardedServer::gather_predictions(
    const std::vector<std::string>& responses, std::size_t nrows) {
  const std::size_t replicas = responses.size();
  serve::Predictions result;
  result.generation = checked_generation(responses);
  result.predictions.reserve(nrows);
  if (options_.scheme == ShardScheme::Rows) {
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      const std::string& r = responses[rank];
      const std::size_t count = get_u64(r, kCountOffset);
      for (std::size_t i = 0; i < count; ++i) {
        result.predictions.push_back(get_f64(r, kDataOffset + i * 8));
      }
    }
    if (result.predictions.size() != nrows) {
      throw ClusterError{"cluster predict: row count mismatch in gather"};
    }
  } else {
    const bool classifier = kind() == io::PipelineKind::Classifier;
    for (std::size_t i = 0; i < nrows; ++i) {
      std::uint64_t best_distance = kNoCandidate;
      std::uint64_t best_index = kNoCandidate;
      for (std::size_t rank = 0; rank < replicas; ++rank) {
        const std::size_t base = kDataOffset + i * 16;
        const std::uint64_t distance = get_u64(responses[rank], base);
        const std::uint64_t index = get_u64(responses[rank], base + 8);
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
        result.predictions.push_back(static_cast<double>(best_index));
      } else {
        result.predictions.push_back(
            comm_->local_worker().pipeline().regressor().labels().value_of(
                best_index));
      }
    }
  }
  return result;
}

serve::Predictions ShardedServer::gather_heads(
    const std::vector<std::string>& responses, std::size_t nrows) {
  const std::size_t replicas = responses.size();
  const bool classifier = kind() == io::PipelineKind::Classifier;
  serve::Predictions result;
  result.generation = checked_generation(responses);
  result.predictions.reserve(nrows);
  if (classifier) {
    result.confidences.reserve(nrows);
  } else {
    result.bands.reserve(nrows);
  }

  if (options_.scheme == ShardScheme::Rows) {
    // Ranks computed heads locally over the full model; slices concatenate
    // in rank order exactly as plain predictions do.
    const std::size_t fields = classifier ? 2 : 4;
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      const std::string& r = responses[rank];
      const std::size_t count = get_u64(r, kCountOffset);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t base = kDataOffset + i * fields * 8;
        result.predictions.push_back(get_f64(r, base));
        if (classifier) {
          result.confidences.push_back(get_f64(r, base + 8));
        } else {
          result.bands.push_back(Band{get_f64(r, base + 8),
                                      get_f64(r, base + 16),
                                      get_f64(r, base + 24)});
        }
      }
    }
    if (result.predictions.size() != nrows) {
      throw ClusterError{"cluster predict: row count mismatch in gather"};
    }
  } else if (classifier) {
    // merge_top2 over disjoint ascending slices equals the top-2 of the
    // union, so label and margin reproduce the single-process head.
    for (std::size_t i = 0; i < nrows; ++i) {
      Top2 merged{};
      for (std::size_t rank = 0; rank < replicas; ++rank) {
        const std::string& r = responses[rank];
        const std::size_t base = kDataOffset + i * 32;
        const Top2 slice{{get_u64(r, base), get_u64(r, base + 8)},
                         {get_u64(r, base + 16), get_u64(r, base + 24)}};
        merged = merge_top2(merged, slice);
      }
      if (merged.best.absent()) {
        throw ClusterError{"cluster predict: no candidate from any rank"};
      }
      result.predictions.push_back(static_cast<double>(merged.best.index));
      result.confidences.push_back(margin_confidence(merged));
    }
  } else {
    // Each rank sent its slice of the label-grid distance profile; rank
    // slices are disjoint ascending grid ranges, so concatenating them in
    // rank order rebuilds the full profile and both the argmin readout and
    // the band are computed from exactly the single-process integers.
    const ScalarEncoder& labels =
        comm_->local_worker().pipeline().regressor().labels();
    const std::size_t dim = dimension();
    std::vector<std::size_t> widths(replicas);
    std::size_t total = 0;
    for (std::size_t rank = 0; rank < replicas; ++rank) {
      widths[rank] = get_u64(responses[rank], kDataOffset);
      total += widths[rank];
    }
    if (total != labels.size()) {
      throw ClusterError{
          "cluster predict: profile slices do not cover the label grid"};
    }
    std::vector<std::size_t> profile(total);
    for (std::size_t i = 0; i < nrows; ++i) {
      std::size_t at = 0;
      for (std::size_t rank = 0; rank < replicas; ++rank) {
        const std::string& r = responses[rank];
        const std::size_t base = kDataOffset + 8 + i * widths[rank] * 8;
        for (std::size_t j = 0; j < widths[rank]; ++j) {
          profile[at++] = get_u64(r, base + j * 8);
        }
      }
      std::size_t best = 0;
      for (std::size_t j = 1; j < total; ++j) {
        if (profile[j] < profile[best]) {
          best = j;
        }
      }
      result.predictions.push_back(labels.value_of(best));
      result.bands.push_back(band_from_distances(profile, labels, dim));
    }
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
  const std::uint64_t generation = get_u64(responses[0], 1);
  for (std::size_t rank = 1; rank < responses.size(); ++rank) {
    if (get_u64(responses[rank], 1) != generation) {
      throw ClusterError{"cluster reload: generation diverged across ranks"};
    }
  }
  return generation;
}

serve::AdaptOutcome ShardedServer::adapt(const serve::Sample& sample,
                                         double target) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (serve::is_text(sample) != (input() == io::PipelineInput::Text)) {
    throw std::invalid_argument{
        std::string{"cluster adapt: the pipeline takes "} +
        io::to_string(input()) + " rows, not " +
        (serve::is_text(sample) ? "text" : "numeric") + " rows"};
  }
  std::string request;
  if (const auto* text = std::get_if<std::string_view>(&sample)) {
    request = encode_adapt_text_request(target, *text);
  } else {
    const auto features = std::get<std::span<const double>>(sample);
    if (features.size() != num_features()) {
      throw std::invalid_argument{"cluster adapt: feature arity mismatch"};
    }
    request = encode_adapt_request(target, features.data(), features.size());
  }
  const std::vector<std::string> responses = checked_exchange(
      std::vector<std::string>(comm_->size(), std::move(request)), "adapt");
  // Every rank applied the same sample to a deterministically-seeded
  // overlay: the *entire* response payload must agree byte for byte, or
  // the bit-identical serving contract is already broken.
  for (std::size_t rank = 1; rank < responses.size(); ++rank) {
    if (responses[rank] != responses[0]) {
      throw ClusterError{"cluster adapt: outcome diverged across ranks"};
    }
  }
  serve::AdaptOutcome out;
  out.predicted = get_f64(responses[0], 9);
  out.updated = get_u64(responses[0], 17) != 0;
  out.feedback_rows = get_u64(responses[0], 25);
  out.updates = get_u64(responses[0], 33);
  out.overlay_rows = get_u64(responses[0], 41);
  return out;
}

std::uint64_t ShardedServer::export_delta(const std::string& out_path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::vector<std::string> responses = checked_exchange(
      std::vector<std::string>(comm_->size(), encode_delta_rows_request()),
      "delta export");
  for (std::size_t rank = 1; rank < responses.size(); ++rank) {
    if (responses[rank] != responses[0]) {
      throw ClusterError{
          "cluster delta export: changed rows diverged across ranks"};
    }
  }
  const std::string base_path = comm_->local_worker().base_path();
  const std::string& r = responses[0];
  const std::uint64_t nrows = get_u64(r, 9);
  const std::uint64_t wpr = get_u64(r, 17);
  if (nrows == 0) {
    throw std::runtime_error{
        "delta export: the adapted model does not differ from " + base_path};
  }
  if (r.size() != 25 + nrows * (8 + wpr * 8)) {
    throw ClusterError{"cluster delta export: truncated row payload"};
  }
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  std::size_t at = 25;
  for (std::uint64_t i = 0; i < nrows; ++i) {
    const std::uint64_t index = get_u64(r, at);
    at += 8;
    std::vector<std::uint64_t> words(wpr);
    std::memcpy(words.data(), r.data() + at, wpr * 8);
    at += wpr * 8;
    rows.emplace(index, std::move(words));
  }
  const io::MappedSnapshot base = io::MappedSnapshot::open(base_path);
  const std::size_t section = io::find_model_section(base);
  io::write_delta_file(
      io::make_delta(base, io::snapshot_file_hash(base_path), section, rows),
      out_path);
  return nrows;
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
  out.reserve(responses.size());
  for (const std::string& r : responses) {
    RankStats s;
    s.rank = get_u64(r, 1);
    s.generation = get_u64(r, 9);
    s.rows = get_u64(r, 17);
    s.batches = get_u64(r, 25);
    out.push_back(s);
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
