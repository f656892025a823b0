// Batched model serving over the circular-basis temperature model.
//
// Simulates a serving tier in front of the Section 6.2 Beijing regressor:
// several clients submit query streams (day-of-year, hour-of-day probes for
// a forecast), the server coalesces them into arena batches, and the batch
// runtime answers each batch over the thread pool with the fused
// XOR+popcount kernels.  Compares per-item serving against batched serving
// and prints throughput for both.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <vector>

#include "hdc/core/basis_level.hpp"
#include "hdc/core/composed_encoder.hpp"
#include "hdc/data/beijing.hpp"
#include "hdc/data/splits.hpp"
#include "hdc/experiments/experiment.hpp"
#include "hdc/runtime/runtime.hpp"
#include "hdc/stats/metrics.hpp"

namespace {

using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
  return std::chrono::duration<double>(clock_type::now() - start).count();
}

}  // namespace

int main() {
  constexpr std::size_t kDim = hdc::default_dimension;
  std::puts("== Batched serving of the circular-basis temperature model ==\n");

  // --- Model setup: the Section 6.2 encoding, Y (level) ⊗ D ⊗ H (circular).
  const auto records = hdc::data::make_beijing_dataset({});
  hdc::LevelBasisConfig year_config;
  year_config.dimension = kDim;
  year_config.size = 5;
  year_config.seed = 11;
  const auto year_encoder = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(year_config), 0.0, 4.0);
  const auto day_encoder = hdc::exp::make_value_encoder(
      hdc::exp::BasisChoice::Circular, 0.01, kDim, 64, 366.0, 12);
  const auto hour_encoder = hdc::exp::make_value_encoder(
      hdc::exp::BasisChoice::Circular, 0.01, kDim, 24, 24.0, 13);

  hdc::LevelBasisConfig label_config;
  label_config.dimension = kDim;
  label_config.size = 128;
  label_config.seed = 14;
  const auto labels = std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(label_config), -25.0, 42.0);

  const auto pool = std::make_shared<hdc::runtime::ThreadPool>();
  std::printf("thread pool: %zu workers\n", pool->size());

  // Feature rows are (year_index, day_of_year - 1, hour) triples, bound
  // as Y ⊗ D ⊗ H and encoded straight into the batch arena.
  const hdc::ComposedEncoder composed(
      {year_encoder, day_encoder, hour_encoder});
  const hdc::runtime::BatchEncoder encoder(
      kDim,
      [&](std::span<const double> row, std::span<std::uint64_t> out) {
        composed.encode_into(row, out);
      },
      pool);

  // --- Batched training over the chronological 70% split.
  const auto split = hdc::data::chronological_split(records.size(), 0.7);
  std::vector<double> train_rows;
  std::vector<double> train_labels;
  train_rows.reserve(split.train.size() * 3);
  for (const std::size_t i : split.train) {
    const auto& r = records[i];
    train_rows.push_back(static_cast<double>(r.year_index));
    train_rows.push_back(static_cast<double>(r.day_of_year - 1));
    train_rows.push_back(static_cast<double>(r.hour));
    train_labels.push_back(r.temperature);
  }

  auto start = clock_type::now();
  const hdc::runtime::VectorArena train_arena = encoder.encode(train_rows, 3);
  const double encode_seconds = seconds_since(start);

  hdc::runtime::BatchRegressor model(labels, 15, pool);
  start = clock_type::now();
  model.fit_finalize(train_arena, train_labels);
  const double fit_seconds = seconds_since(start);
  std::printf(
      "trained on %zu hourly samples: encode %.2fs (%.0f vec/s), fit %.2fs "
      "(%.0f vec/s)\n\n",
      train_arena.size(), encode_seconds,
      static_cast<double>(train_arena.size()) / encode_seconds, fit_seconds,
      static_cast<double>(train_arena.size()) / fit_seconds);

  // --- The query stream: kClients forecast clients, each asking for a
  // different (day, hour) probe grid in the held-out window.
  constexpr std::size_t kClients = 32;
  constexpr std::size_t kQueriesPerClient = 96;
  std::vector<double> query_rows;
  std::vector<double> query_truth;
  query_rows.reserve(kClients * kQueriesPerClient * 3);
  for (std::size_t client = 0; client < kClients; ++client) {
    for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
      const std::size_t pick =
          split.test[(client * 769 + q * 31) % split.test.size()];
      const auto& r = records[pick];
      query_rows.push_back(static_cast<double>(r.year_index));
      query_rows.push_back(static_cast<double>(r.day_of_year - 1));
      query_rows.push_back(static_cast<double>(r.hour));
      query_truth.push_back(r.temperature);
    }
  }
  const std::size_t total_queries = query_truth.size();

  // Per-item serving: encode + predict one request at a time, the way the
  // seed's examples answer queries.
  start = clock_type::now();
  std::vector<double> serial_predictions;
  serial_predictions.reserve(total_queries);
  for (std::size_t i = 0; i < total_queries; ++i) {
    const std::span<const double> row(query_rows.data() + i * 3, 3);
    const hdc::Hypervector encoded = composed.encode(row);
    serial_predictions.push_back(model.model().predict(encoded));
  }
  const double serial_seconds = seconds_since(start);

  // Batched serving: one arena per coalescing window (here: per client).
  start = clock_type::now();
  std::vector<double> batched_predictions;
  batched_predictions.reserve(total_queries);
  for (std::size_t client = 0; client < kClients; ++client) {
    const std::span<const double> window(
        query_rows.data() + client * kQueriesPerClient * 3,
        kQueriesPerClient * 3);
    const hdc::runtime::VectorArena batch = encoder.encode(window, 3);
    const std::vector<double> answers = model.predict(batch);
    batched_predictions.insert(batched_predictions.end(), answers.begin(),
                               answers.end());
  }
  const double batched_seconds = seconds_since(start);

  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < total_queries; ++i) {
    if (serial_predictions[i] != batched_predictions[i]) {
      ++mismatches;
    }
  }

  std::printf("served %zu queries from %zu clients (%zu per batch):\n",
              total_queries, kClients, kQueriesPerClient);
  std::printf("  per-item serving : %7.0f queries/s\n",
              static_cast<double>(total_queries) / serial_seconds);
  std::printf("  batched serving  : %7.0f queries/s  (%.2fx)\n",
              static_cast<double>(total_queries) / batched_seconds,
              serial_seconds / batched_seconds);
  std::printf("  prediction mismatches between the two paths: %zu\n\n",
              mismatches);

  std::printf("forecast quality over the stream: RMSE %.2f degC\n",
              hdc::stats::root_mean_squared_error(query_truth,
                                                  batched_predictions));
  return mismatches == 0 ? 0 : 1;
}
