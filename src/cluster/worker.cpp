#include "hdc/cluster/worker.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "hdc/core/adaptive.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/core/classifier.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/regressor.hpp"
#include "hdc/core/word_storage.hpp"
#include "hdc/runtime/thread_pool.hpp"

namespace hdc::cluster {

namespace {

[[nodiscard]] std::string error_response(const std::string& message) {
  return static_cast<char>(kWorkerErr) + message;
}

/// Reads the flags byte that leads a Predict2/Adapt body, rejecting bits
/// outside \p allowed and a text/numeric mode that disagrees with the
/// pipeline; returns the flags.
std::uint8_t request_flags(std::string_view body, std::uint8_t allowed,
                           const io::Pipeline& pipeline, const char* what) {
  if (body.empty()) {
    throw std::invalid_argument{std::string{what} + ": missing flags byte"};
  }
  const auto flags = static_cast<std::uint8_t>(body[0]);
  if ((flags & ~allowed) != 0) {
    throw std::invalid_argument{std::string{what} +
                                ": unknown request flags"};
  }
  const bool text = (flags & kPredictFlagText) != 0;
  if (text != (pipeline.input() == io::PipelineInput::Text)) {
    throw std::invalid_argument{
        std::string{what} + ": request carries " +
        (text ? "text" : "numeric") + " rows but the pipeline takes " +
        io::to_string(pipeline.input()) + " rows"};
  }
  return flags;
}

/// The one rows writer: text rows as `[u64 len][bytes]` each; numeric rows
/// as `[u64 nfeat]` once, then each row's f64s appended straight from it.
template <typename Row>
void put_rows(std::string& out, std::span<const Row> rows, std::size_t nfeat) {
  constexpr bool text = std::is_same_v<typename Row::value_type, char>;
  if constexpr (!text) {
    out.reserve(out.size() + 8 + rows.size() * nfeat * 8);
    put_u64(out, nfeat);
  }
  for (const Row& row : rows) {
    if constexpr (text) {
      put_u64(out, row.size());
    }
    out.append(reinterpret_cast<const char*>(row.data()),
               row.size() * sizeof(typename Row::value_type));
  }
}

/// `[ok]` and then \p words: every fixed reply layout, which the
/// `decode_*_reply` functions below read back with reply_word().
std::string ok_reply(std::initializer_list<std::uint64_t> words) {
  std::string out(1, static_cast<char>(kWorkerOk));
  for (const std::uint64_t word : words) {
    put_u64(out, word);
  }
  return out;
}

/// Word \p i of an ok reply's fixed fields.
std::uint64_t reply_word(std::string_view reply, std::size_t i) {
  return get_u64(reply, 1 + i * 8);
}

}  // namespace

void put_u64(std::string& out, std::uint64_t value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_f64(std::string& out, double value) {
  put_u64(out, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t get_u64(std::string_view payload, std::size_t offset) {
  if (offset + 8 > payload.size()) {
    throw std::out_of_range{"cluster frame: truncated u64 field"};
  }
  std::uint64_t value = 0;
  std::memcpy(&value, payload.data() + offset, sizeof value);
  return value;
}

double get_f64(std::string_view payload, std::size_t offset) {
  if (offset + 8 > payload.size()) {
    throw std::out_of_range{"cluster frame: truncated f64 field"};
  }
  return std::bit_cast<double>(get_u64(payload, offset));
}

std::string encode_ping_request() {
  return std::string(1, static_cast<char>(WorkerOp::Ping));
}

std::string encode_reload_request(const std::string& path) {
  std::string out(1, static_cast<char>(WorkerOp::Reload));
  put_u64(out, path.size());
  out.append(path);
  return out;
}

std::string encode_stats_request() {
  return std::string(1, static_cast<char>(WorkerOp::Stats));
}

std::string encode_shutdown_request() {
  return std::string(1, static_cast<char>(WorkerOp::Shutdown));
}

std::string encode_delta_rows_request() {
  return std::string(1, static_cast<char>(WorkerOp::DeltaRows));
}

std::string encode_predict_request(const serve::SampleBatch& batch,
                                   std::size_t nfeat, bool head) {
  const int text = serve::is_text(batch) ? kPredictFlagText : 0;
  std::string out(1, static_cast<char>(WorkerOp::Predict2));
  out.push_back(static_cast<char>(text | (head ? kPredictFlagHead : 0)));
  put_u64(out, serve::batch_size(batch));
  std::visit([&](const auto& rows) { put_rows(out, rows, nfeat); }, batch);
  return out;
}

std::string encode_adapt_request(const serve::Sample& sample, double target) {
  const int text = serve::is_text(sample) ? kPredictFlagText : 0;
  std::string out(1, static_cast<char>(WorkerOp::Adapt));
  out.push_back(static_cast<char>(text));
  put_f64(out, target);
  const auto put_row = [&](const auto& row) {
    put_rows(out, std::span(&row, 1), row.size());
  };
  std::visit(put_row, sample);
  return out;
}

std::uint64_t decode_ping_reply(std::string_view reply) {
  return reply_word(reply, 0);
}

std::uint64_t decode_reload_reply(std::string_view reply) {
  return reply_word(reply, 0);
}

RankStats decode_stats_reply(std::string_view reply) {
  return {reply_word(reply, 0), reply_word(reply, 1), reply_word(reply, 2),
          reply_word(reply, 3)};
}

serve::AdaptOutcome decode_adapt_reply(std::string_view reply) {
  return {std::bit_cast<double>(reply_word(reply, 1)),
          reply_word(reply, 2) != 0, reply_word(reply, 3), reply_word(reply, 4),
          reply_word(reply, 5)};
}

PredictReply decode_predict_reply(std::string_view reply) {
  return {reply_word(reply, 0), reply_word(reply, 1), reply.substr(17)};
}

std::map<std::size_t, std::vector<std::uint64_t>> decode_delta_rows_reply(
    std::string_view reply) {
  const std::uint64_t nrows = reply_word(reply, 1);
  const std::uint64_t wpr = reply_word(reply, 2);
  const std::string_view body = reply.substr(25);
  // Divide, never multiply: a forged count must not wrap the length check.
  const std::size_t row_bytes = 8 + std::min<std::size_t>(wpr, body.size()) * 8;
  if (body.size() % row_bytes != 0 || body.size() / row_bytes != nrows) {
    throw ClusterError{"cluster delta export: truncated row payload"};
  }
  std::map<std::size_t, std::vector<std::uint64_t>> rows;
  for (std::size_t at = 0; at < body.size(); at += row_bytes) {
    std::vector<std::uint64_t> words(wpr);
    std::memcpy(words.data(), body.data() + at + 8, wpr * 8);
    rows.emplace(get_u64(body, at), std::move(words));
  }
  return rows;
}

Worker::Worker(Config cfg)
    : cfg_(std::move(cfg)),
      predictor_(io::load_pipeline(cfg_.snapshot_path, cfg_.integrity,
                                   cfg_.mapping),
                 cfg_.snapshot_path, std::make_shared<runtime::ThreadPool>(1),
                 1, cfg_.mapping) {
  if (cfg_.replicas == 0) {
    throw std::invalid_argument{"cluster worker: replicas must be >= 1"};
  }
  if (cfg_.rank >= cfg_.replicas) {
    throw std::invalid_argument{"cluster worker: rank out of range"};
  }
}

std::string Worker::handle(std::string_view request) {
  try {
    if (request.empty()) {
      return error_response("empty request frame");
    }
    switch (static_cast<WorkerOp>(request[0])) {
      case WorkerOp::Ping:
        return ok_reply({cfg_.rank});
      case WorkerOp::Reload:
        return handle_reload(request.substr(1));
      case WorkerOp::Stats:
        return ok_reply({cfg_.rank, generation(), rows_served_, batches_});
      case WorkerOp::Shutdown:
        shutdown_ = true;
        return ok_reply({});
      case WorkerOp::Adapt:
        return handle_adapt(request.substr(1));
      case WorkerOp::DeltaRows:
        return handle_delta_rows();
      case WorkerOp::Predict2:
        return handle_predict2(request.substr(1));
    }
    return error_response("unknown opcode");
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

struct Worker::RowErrors {
  const char* arity;
  const char* truncated_rows;
  const char* truncated_text;
  const char* trailing_text;
};

serve::SampleBatch Worker::decode_rows(std::string_view body, std::size_t at,
                                       std::size_t nrows,
                                       const RowErrors& errors) {
  if (pipeline().input() == io::PipelineInput::Text) {
    for (std::size_t i = 0; i < nrows; ++i) {
      const std::size_t len = get_u64(body, at);
      at += 8;
      if (len > body.size() - at) {
        throw std::invalid_argument{errors.truncated_text};
      }
      if (i == texts_.size()) {
        texts_.emplace_back();
      }
      texts_[i].assign(body.substr(at, len));
      at += len;
    }
    if (at != body.size()) {
      throw std::invalid_argument{errors.trailing_text};
    }
    return std::span<const std::string>(texts_).first(nrows);
  }
  const std::size_t nfeat = get_u64(body, at);
  at += 8;
  if (nfeat != pipeline().num_features()) {
    throw std::invalid_argument{errors.arity};
  }
  // Divide, never multiply: a forged row count must not wrap the length
  // check before the slots are sized.
  const std::size_t row_bytes = std::max<std::size_t>(nfeat, 1) * 8;
  const std::size_t payload = body.size() - at;
  if (payload % row_bytes != 0 || payload / row_bytes != nrows) {
    throw std::invalid_argument{errors.truncated_rows};
  }
  if (rows_.size() < nrows) {
    rows_.resize(nrows);
  }
  for (std::size_t i = 0; i < nrows; ++i) {
    rows_[i].resize(nfeat);
    std::memcpy(rows_[i].data(), body.data() + at + i * nfeat * 8, nfeat * 8);
  }
  return std::span<const std::vector<double>>(rows_).first(nrows);
}

std::string Worker::handle_predict2(std::string_view body) {
  static constexpr RowErrors kErrors{
      .arity = "predict: feature arity mismatch",
      .truncated_rows = "predict: truncated row payload",
      .truncated_text = "predict: truncated text row",
      .trailing_text = "predict: trailing bytes after text rows",
  };
  const serve::ServingStatePtr state = predictor_.state();
  const io::Pipeline& p = state->pipeline();
  const std::uint8_t flags =
      request_flags(body, kPredictFlagText | kPredictFlagHead, p, "predict");
  const bool head = (flags & kPredictFlagHead) != 0;
  const std::size_t nrows = get_u64(body, 1);
  const serve::SampleBatch batch = decode_rows(body, 9, nrows, kErrors);

  std::string out = ok_reply({generation(), nrows});
  // A rank serves its overlay from the first accepted feedback sample on:
  // every rank applied the same feedback deterministically, so this stays
  // bit-identical across the fleet.
  const serve::AdaptiveStatePtr overlay = predictor_.overlay();
  const bool adapted = overlay->feedback_rows() != 0;
  if (cfg_.scheme == ShardScheme::Classes) {
    predict_classes(state, adapted ? overlay.get() : nullptr, batch, head,
                    out);
  } else {
    const bool classifies = p.kind() == io::PipelineKind::Classifier;
    serve::HeadMode mode = serve::HeadMode::None;
    if (head) {
      mode = classifies ? serve::HeadMode::Confidence : serve::HeadMode::Band;
    }
    serve::Predictor& model =
        adapted ? static_cast<serve::Predictor&>(*overlay) : predictor_;
    const serve::Predictions answers = model.predict(batch, mode);
    for (std::size_t i = 0; i < nrows; ++i) {
      put_f64(out, answers.predictions[i]);
      if (head && classifies) {
        put_f64(out, answers.confidences[i]);
      } else if (head) {
        put_f64(out, answers.bands[i].p10);
        put_f64(out, answers.bands[i].p50);
        put_f64(out, answers.bands[i].p90);
      }
    }
  }
  rows_served_ += nrows;
  ++batches_;
  return out;
}

void Worker::predict_classes(const serve::ServingStatePtr& state,
                             const serve::AdaptiveState* overlay,
                             const serve::SampleBatch& batch, bool head,
                             std::string& out) {
  const io::Pipeline& p = state->pipeline();
  const bool classifies = p.kind() == io::PipelineKind::Classifier;
  // The scanned arena of the current model (the overlay's once the rank
  // has accepted feedback): class-vectors for a classifier, the keyed label
  // rows M ⊗ L_l for a regressor — either way the raw query is swept, with
  // no per-row unbinding.
  std::span<const std::uint64_t> arena;
  std::size_t candidates = 0;
  if (classifies) {
    const CentroidClassifier& model = overlay != nullptr
                                          ? overlay->classifier()->current()
                                          : p.classifier();
    arena = model.packed_class_words();
    candidates = model.num_classes();
  } else {
    const HDRegressor& model = overlay != nullptr
                                   ? overlay->regressor()->current()
                                   : p.regressor();
    arena = model.keyed_label_words();
    candidates = model.labels().size();
  }
  const std::size_t stride = bits::words_for(p.dimension());
  const std::size_t begin = shard_begin(cfg_.rank, cfg_.replicas, candidates);
  const std::size_t end = shard_end(cfg_.rank, cfg_.replicas, candidates);

  if (!classifies && head) {
    // The head-carrying regressor frame leads with the slice width; rank
    // profiles concatenated in rank order rebuild the full grid profile.
    put_u64(out, end - begin);
  }
  if (begin == end) {
    // Empty slice (more ranks than candidates): all-ones sentinels for
    // candidate frames, zero-width profiles for regressor heads.
    const std::size_t sentinels =
        classifies ? (head ? 4 : 2) : (head ? 0 : 2);
    for (std::size_t k = 0; k < serve::batch_size(batch) * sentinels; ++k) {
      put_u64(out, kNoCandidate);
    }
    return;
  }
  const auto slice = arena.subspan(begin * stride);
  AlignedWords query(stride);
  for (std::size_t i = 0; i < serve::batch_size(batch); ++i) {
    p.encode_into(serve::sample_at(batch, i), query);
    if (classifies && head) {
      const Top2 top = top2_hamming(query, slice, stride, end - begin, begin);
      put_u64(out, top.best.distance);
      put_u64(out, top.best.index);
      put_u64(out, top.second.distance);
      put_u64(out, top.second.index);
    } else if (!classifies && head) {
      for (std::size_t j = begin; j < end; ++j) {
        put_u64(out, bits::hamming(query, arena.subspan(j * stride, stride)));
      }
    } else {
      const bits::NearestMatch best =
          bits::nearest_hamming(query, slice, stride, end - begin);
      put_u64(out, best.distance);
      put_u64(out, begin + best.index);
    }
  }
}

std::string Worker::handle_reload(std::string_view body) {
  const std::size_t len = get_u64(body, 0);
  if (body.size() - 8 != len) {
    throw std::invalid_argument{"reload: truncated path"};
  }
  // "" re-reads the active source; the swap checks kind and arity, and a
  // delta file patches the tracked base.
  (void)predictor_.reload(std::string(body.substr(8)));
  return ok_reply({generation()});
}

std::string Worker::handle_adapt(std::string_view body) {
  static constexpr RowErrors kErrors{
      .arity = "adapt: feature arity mismatch",
      .truncated_rows = "adapt: truncated feature payload",
      .truncated_text = "adapt: truncated text payload",
      .trailing_text = "adapt: trailing bytes after the text",
  };
  (void)request_flags(body, kPredictFlagText, pipeline(), "adapt");
  const double target = get_f64(body, 1);
  const serve::AdaptOutcome outcome = predictor_.adapt(
      serve::sample_at(decode_rows(body, 9, 1, kErrors), 0), target);
  return ok_reply({generation(),
                   std::bit_cast<std::uint64_t>(outcome.predicted),
                   outcome.updated ? 1u : 0u, outcome.feedback_rows,
                   outcome.updates, outcome.overlay_rows});
}

std::string Worker::handle_delta_rows() {
  const auto rows = predictor_.overlay()->changed_rows();
  const std::uint64_t wpr = bits::words_for(pipeline().dimension());
  std::string out = ok_reply({generation(), rows.size(), wpr});
  for (const auto& [index, words] : rows) {
    put_u64(out, index);
    out.append(reinterpret_cast<const char*>(words.data()),
               words.size() * 8);
  }
  return out;
}

}  // namespace hdc::cluster
