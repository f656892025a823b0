#include "hdc/cluster/worker.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <memory>
#include <span>
#include <stdexcept>
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
  std::string out;
  out.reserve(1 + message.size());
  out.push_back(static_cast<char>(kWorkerErr));
  out.append(message);
  return out;
}

/// Reads the flags byte that leads a Predict2/Adapt body, rejecting bits
/// outside \p allowed and a text/numeric mode that disagrees with the
/// pipeline; returns whether the request carries text.
bool request_mode(std::string_view body, std::uint8_t allowed,
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
  return text;
}

/// One `[u64 len][len bytes]` field at \p at, which advances past it.
std::string_view text_field(std::string_view body, std::size_t& at,
                            const char* truncated) {
  const std::size_t len = get_u64(body, at);
  at += 8;
  if (len > body.size() - at) {
    throw std::invalid_argument{truncated};
  }
  const std::string_view field = body.substr(at, len);
  at += len;
  return field;
}

}  // namespace

void put_u64(std::string& out, std::uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, sizeof buf);
  out.append(buf, sizeof buf);
}

void put_f64(std::string& out, double value) {
  char buf[8];
  std::memcpy(buf, &value, sizeof buf);
  out.append(buf, sizeof buf);
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
  double value = 0;
  std::memcpy(&value, payload.data() + offset, sizeof value);
  return value;
}

std::string encode_ping_request() {
  return std::string(1, static_cast<char>(WorkerOp::Ping));
}

std::string encode_reload_request(const std::string& path) {
  std::string out;
  out.reserve(1 + 8 + path.size());
  out.push_back(static_cast<char>(WorkerOp::Reload));
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

std::string encode_adapt_request(double target, const double* features,
                                 std::size_t nfeat) {
  std::string out;
  out.reserve(2 + 8 + 8 + nfeat * 8);
  out.push_back(static_cast<char>(WorkerOp::Adapt));
  out.push_back(0);
  put_f64(out, target);
  put_u64(out, nfeat);
  if (nfeat != 0) {
    out.append(reinterpret_cast<const char*>(features), nfeat * 8);
  }
  return out;
}

std::string encode_delta_rows_request() {
  return std::string(1, static_cast<char>(WorkerOp::DeltaRows));
}

std::string encode_predict2_request(const double* rows, std::size_t nrows,
                                    std::size_t nfeat, bool head) {
  std::string out;
  out.reserve(2 + 8 + 8 + nrows * nfeat * 8);
  out.push_back(static_cast<char>(WorkerOp::Predict2));
  out.push_back(static_cast<char>(head ? kPredictFlagHead : 0));
  put_u64(out, nrows);
  put_u64(out, nfeat);
  if (nrows * nfeat != 0) {
    out.append(reinterpret_cast<const char*>(rows), nrows * nfeat * 8);
  }
  return out;
}

std::string encode_predict2_text_request(std::span<const std::string> rows,
                                         bool head) {
  std::size_t bytes = 0;
  for (const std::string& row : rows) {
    bytes += 8 + row.size();
  }
  std::string out;
  out.reserve(2 + 8 + bytes);
  out.push_back(static_cast<char>(WorkerOp::Predict2));
  out.push_back(static_cast<char>(kPredictFlagText |
                                  (head ? kPredictFlagHead : 0)));
  put_u64(out, rows.size());
  for (const std::string& row : rows) {
    put_u64(out, row.size());
    out.append(row);
  }
  return out;
}

std::string encode_adapt_text_request(double target, std::string_view text) {
  std::string out;
  out.reserve(2 + 8 + 8 + text.size());
  out.push_back(static_cast<char>(WorkerOp::Adapt));
  out.push_back(static_cast<char>(kPredictFlagText));
  put_f64(out, target);
  put_u64(out, text.size());
  out.append(text);
  return out;
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
      case WorkerOp::Ping: {
        std::string out(1, static_cast<char>(kWorkerOk));
        put_u64(out, cfg_.rank);
        return out;
      }
      case WorkerOp::Reload:
        return handle_reload(request.substr(1));
      case WorkerOp::Stats: {
        std::string out(1, static_cast<char>(kWorkerOk));
        put_u64(out, cfg_.rank);
        put_u64(out, generation());
        put_u64(out, rows_served_);
        put_u64(out, batches_);
        return out;
      }
      case WorkerOp::Shutdown:
        shutdown_ = true;
        return std::string(1, static_cast<char>(kWorkerOk));
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

serve::SampleBatch Worker::numeric_rows(std::string_view body,
                                        std::size_t nrows, std::size_t nfeat,
                                        const char* truncated) {
  // Divide, never multiply: a forged row count must not wrap the length
  // check before the slots are sized.
  constexpr std::size_t at = 17;
  const std::size_t row_bytes = std::max<std::size_t>(nfeat, 1) * 8;
  const std::size_t payload = body.size() - at;
  if (payload % row_bytes != 0 || payload / row_bytes != nrows) {
    throw std::invalid_argument{truncated};
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
  const serve::ServingStatePtr state = predictor_.state();
  const io::Pipeline& p = state->pipeline();
  const bool text =
      request_mode(body, kPredictFlagText | kPredictFlagHead, p, "predict");
  const bool head =
      (static_cast<std::uint8_t>(body[0]) & kPredictFlagHead) != 0;
  const std::size_t nrows = get_u64(body, 1);
  serve::SampleBatch batch;
  if (text) {
    std::size_t at = 9;
    for (std::size_t i = 0; i < nrows; ++i) {
      const std::string_view row =
          text_field(body, at, "predict: truncated text row");
      if (i == texts_.size()) {
        texts_.emplace_back();
      }
      texts_[i].assign(row);
    }
    if (at != body.size()) {
      throw std::invalid_argument{"predict: trailing bytes after text rows"};
    }
    batch = std::span<const std::string>(texts_).first(nrows);
  } else {
    const std::size_t nfeat = get_u64(body, 9);
    if (nfeat != p.num_features()) {
      throw std::invalid_argument{"predict: feature arity mismatch"};
    }
    batch = numeric_rows(body, nrows, nfeat, "predict: truncated row payload");
  }

  std::string out;
  out.push_back(static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  put_u64(out, nrows);
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
  std::string out(1, static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  return out;
}

std::string Worker::handle_adapt(std::string_view body) {
  const io::Pipeline& p = pipeline();
  const bool text = request_mode(body, kPredictFlagText, p, "adapt");
  const double target = get_f64(body, 1);
  serve::Sample sample;
  if (text) {
    std::size_t at = 9;
    sample = text_field(body, at, "adapt: truncated text payload");
    if (at != body.size()) {
      throw std::invalid_argument{"adapt: trailing bytes after the text"};
    }
  } else {
    const std::size_t nfeat = get_u64(body, 9);
    if (nfeat != p.num_features()) {
      throw std::invalid_argument{"adapt: feature arity mismatch"};
    }
    sample = std::span<const double>(
        std::get<std::span<const std::vector<double>>>(numeric_rows(
            body, 1, nfeat, "adapt: truncated feature payload"))[0]);
  }
  const serve::AdaptOutcome outcome = predictor_.adapt(sample, target);
  std::string out(1, static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  put_f64(out, outcome.predicted);
  put_u64(out, outcome.updated ? 1 : 0);
  put_u64(out, outcome.feedback_rows);
  put_u64(out, outcome.updates);
  put_u64(out, outcome.overlay_rows);
  return out;
}

std::string Worker::handle_delta_rows() {
  const auto rows = predictor_.overlay()->changed_rows();
  const std::uint64_t wpr = bits::words_for(pipeline().dimension());
  std::string out(1, static_cast<char>(kWorkerOk));
  put_u64(out, generation());
  put_u64(out, rows.size());
  put_u64(out, wpr);
  for (const auto& [index, words] : rows) {
    put_u64(out, index);
    out.append(reinterpret_cast<const char*>(words.data()),
               words.size() * 8);
  }
  return out;
}

}  // namespace hdc::cluster
