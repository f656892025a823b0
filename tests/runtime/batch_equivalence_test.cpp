// Batched and single-item paths must agree bit-for-bit: the batch engines
// are throughput wrappers, never a different model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "hdc/core/basis_circular.hpp"
#include "hdc/core/basis_level.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/core/confidence.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/core/ops.hpp"
#include "hdc/runtime/runtime.hpp"
#include "hdc/stats/circular.hpp"

namespace {

using hdc::BundleAccumulator;
using hdc::CentroidClassifier;
using hdc::HDRegressor;
using hdc::Hypervector;
using hdc::Rng;
using hdc::runtime::BatchClassifier;
using hdc::runtime::BatchEncoder;
using hdc::runtime::BatchRegressor;
using hdc::runtime::ThreadPool;
using hdc::runtime::VectorArena;

constexpr std::size_t kDim = 1'000;

std::shared_ptr<ThreadPool> make_pool(std::size_t threads = 3) {
  return std::make_shared<ThreadPool>(threads);
}

hdc::ScalarEncoderPtr make_angle_labels(std::size_t size, std::uint64_t seed) {
  hdc::CircularBasisConfig config;
  config.dimension = kDim;
  config.size = size;
  config.seed = seed;
  return std::make_shared<hdc::CircularScalarEncoder>(
      hdc::make_circular_basis(config), hdc::stats::two_pi);
}

TEST(FusedKernelTest, NearestHammingMatchesPerPairScan) {
  Rng rng(21);
  std::vector<Hypervector> candidates;
  for (int i = 0; i < 33; ++i) {
    candidates.push_back(Hypervector::random(kDim, rng));
  }
  const VectorArena arena = VectorArena::pack(candidates);
  for (int q = 0; q < 20; ++q) {
    const Hypervector query = Hypervector::random(kDim, rng);
    // Reference: strict less-than linear scan over individual vectors.
    std::size_t best = 0;
    std::size_t best_dist = hdc::hamming_distance(query, candidates[0]);
    for (std::size_t i = 1; i < candidates.size(); ++i) {
      const std::size_t d = hdc::hamming_distance(query, candidates[i]);
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    const auto match = hdc::bits::nearest_hamming(
        query.words(), arena.data(), arena.words_per_vector(), arena.size());
    EXPECT_EQ(match.index, best);
    EXPECT_EQ(match.distance, best_dist);
  }
}

TEST(FusedKernelTest, HammingManyMatchesPairwise) {
  Rng rng(22);
  std::vector<Hypervector> candidates;
  for (int i = 0; i < 9; ++i) {
    candidates.push_back(Hypervector::random(333, rng));
  }
  const VectorArena arena = VectorArena::pack(candidates);
  const Hypervector query = Hypervector::random(333, rng);
  std::vector<std::size_t> distances(candidates.size());
  hdc::bits::hamming_many(query.words(), arena.data(),
                          arena.words_per_vector(), arena.size(), distances);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(distances[i], hdc::hamming_distance(query, candidates[i]));
  }
}

TEST(BatchEncoderTest, MatchesSingleItemEncoder) {
  const auto values = make_angle_labels(32, 5);
  const auto encoder = std::make_shared<hdc::KeyValueEncoder>(4, values, 6);
  BatchEncoder batch(
      kDim,
      [encoder](std::span<const double> row, std::span<std::uint64_t> out) {
        std::ranges::copy(encoder->encode(row).words(), out.begin());
      },
      make_pool());

  Rng rng(23);
  std::vector<double> flat;
  for (int i = 0; i < 40; ++i) {
    flat.push_back(rng.uniform(0.0, hdc::stats::two_pi));
  }
  const VectorArena arena = batch.encode(flat, 4);
  ASSERT_EQ(arena.size(), 10U);
  EXPECT_TRUE(arena.tails_clean());
  for (std::size_t i = 0; i < arena.size(); ++i) {
    const std::span<const double> row(flat.data() + i * 4, 4);
    EXPECT_EQ(arena.extract(i), encoder->encode(row)) << "row " << i;
  }
}

TEST(BatchClassifierTest, FitAndPredictMatchSequentialModel) {
  constexpr std::size_t kClasses = 5;
  Rng rng(24);
  std::vector<Hypervector> samples;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 64; ++i) {
    samples.push_back(Hypervector::random(kDim, rng));
    labels.push_back(static_cast<std::size_t>(i) % kClasses);
  }

  // Sequential reference, same seed.
  CentroidClassifier reference(kClasses, kDim, 77);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    reference.add_sample(labels[i], samples[i]);
  }
  reference.finalize();

  BatchClassifier batch(kClasses, kDim, 77, make_pool());
  const VectorArena arena = VectorArena::pack(samples);
  batch.fit_finalize(arena, labels);

  for (std::size_t c = 0; c < kClasses; ++c) {
    EXPECT_EQ(batch.model().class_vector(c), reference.class_vector(c));
    EXPECT_EQ(batch.model().class_count(c), reference.class_count(c));
  }

  std::vector<Hypervector> queries;
  for (int i = 0; i < 32; ++i) {
    queries.push_back(Hypervector::random(kDim, rng));
  }
  const std::vector<std::size_t> batched =
      batch.predict(VectorArena::pack(queries));
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(batched[i], reference.predict(queries[i])) << "query " << i;
    EXPECT_EQ(batched[i], batch.model().predict(queries[i])) << "query " << i;
  }
}

TEST(BatchRegressorTest, FitAndPredictMatchSequentialModel) {
  const auto labels_encoder = make_angle_labels(24, 7);
  Rng rng(25);
  std::vector<Hypervector> inputs;
  std::vector<double> labels;
  for (int i = 0; i < 48; ++i) {
    inputs.push_back(Hypervector::random(kDim, rng));
    labels.push_back(rng.uniform(0.0, hdc::stats::two_pi));
  }

  HDRegressor reference(labels_encoder, 88);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    reference.add_sample(inputs[i], labels[i]);
  }
  reference.finalize();

  BatchRegressor batch(labels_encoder, 88, make_pool());
  batch.fit_finalize(VectorArena::pack(inputs), labels);
  EXPECT_EQ(batch.model().model(), reference.model());

  std::vector<Hypervector> queries;
  for (int i = 0; i < 16; ++i) {
    queries.push_back(Hypervector::random(kDim, rng));
  }
  const VectorArena query_arena = VectorArena::pack(queries);
  const std::vector<double> batched = batch.predict(query_arena);
  const std::vector<double> batched_integer =
      batch.predict_integer(query_arena);
  ASSERT_EQ(batched.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_DOUBLE_EQ(batched[i], reference.predict(queries[i]));
    EXPECT_DOUBLE_EQ(batched_integer[i],
                     reference.predict_integer(queries[i]));
  }
}

TEST(BatchClassifierTest, Top2HeadMatchesPerRowAcrossBatchShapes) {
  // The batched confidence head must be bit-identical to the per-row model
  // call for every batch shape and thread count — the serve/cluster layers
  // rely on this to keep heads reproducible under re-batching.
  constexpr std::size_t kClasses = 4;
  Rng rng(27);
  BatchClassifier seeded(kClasses, kDim, 91, make_pool());
  std::vector<Hypervector> samples;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 40; ++i) {
    samples.push_back(Hypervector::random(kDim, rng));
    labels.push_back(static_cast<std::size_t>(i) % kClasses);
  }
  seeded.fit_finalize(VectorArena::pack(samples), labels);
  const CentroidClassifier& model = seeded.model();

  std::vector<Hypervector> queries;
  for (int i = 0; i < 23; ++i) {  // Prime count: uneven thread splits.
    queries.push_back(Hypervector::random(kDim, rng));
  }
  for (const std::size_t threads : {1U, 2U, 5U}) {
    BatchClassifier batch(model, make_pool(threads));
    for (const std::size_t shape : {1U, 7U, 23U}) {
      for (std::size_t begin = 0; begin < queries.size(); begin += shape) {
        const std::size_t end = std::min(begin + shape, queries.size());
        const std::vector<Hypervector> slice(queries.begin() + begin,
                                             queries.begin() + end);
        const std::vector<hdc::Top2> batched =
            batch.predict_top2(VectorArena::pack(slice));
        ASSERT_EQ(batched.size(), slice.size());
        for (std::size_t i = 0; i < slice.size(); ++i) {
          const hdc::Top2 expected = model.predict_top2(slice[i]);
          EXPECT_EQ(batched[i].best.distance, expected.best.distance);
          EXPECT_EQ(batched[i].best.index, expected.best.index);
          EXPECT_EQ(batched[i].second.distance, expected.second.distance);
          EXPECT_EQ(batched[i].second.index, expected.second.index);
          EXPECT_EQ(hdc::margin_confidence(batched[i]),
                    hdc::margin_confidence(expected));
        }
      }
    }
  }
}

TEST(BatchRegressorTest, BandHeadMatchesPerRowAcrossBatchShapes) {
  const auto labels_encoder = make_angle_labels(24, 7);
  Rng rng(28);
  BatchRegressor seeded(labels_encoder, 92, make_pool());
  std::vector<Hypervector> inputs;
  std::vector<double> labels;
  for (int i = 0; i < 36; ++i) {
    inputs.push_back(Hypervector::random(kDim, rng));
    labels.push_back(rng.uniform(0.0, hdc::stats::two_pi));
  }
  seeded.fit_finalize(VectorArena::pack(inputs), labels);
  const HDRegressor& model = seeded.model();

  std::vector<Hypervector> queries;
  for (int i = 0; i < 19; ++i) {
    queries.push_back(Hypervector::random(kDim, rng));
  }
  for (const std::size_t threads : {1U, 3U}) {
    BatchRegressor batch(model, make_pool(threads));
    for (const std::size_t shape : {1U, 5U, 19U}) {
      for (std::size_t begin = 0; begin < queries.size(); begin += shape) {
        const std::size_t end = std::min(begin + shape, queries.size());
        const std::vector<Hypervector> slice(queries.begin() + begin,
                                             queries.begin() + end);
        const std::vector<hdc::Band> batched =
            batch.predict_band(VectorArena::pack(slice));
        ASSERT_EQ(batched.size(), slice.size());
        for (std::size_t i = 0; i < slice.size(); ++i) {
          const hdc::Band expected = model.predict_band(slice[i]);
          EXPECT_EQ(batched[i].p10, expected.p10);
          EXPECT_EQ(batched[i].p50, expected.p50);
          EXPECT_EQ(batched[i].p90, expected.p90);
          EXPECT_LE(batched[i].p10, batched[i].p50);
          EXPECT_LE(batched[i].p50, batched[i].p90);
        }
      }
    }
  }
}

TEST(BatchClassifierTest, RejectsBadInputs) {
  BatchClassifier batch(3, kDim, 1, make_pool());
  const VectorArena samples(kDim, 2);
  const std::vector<std::size_t> bad_count = {0};
  EXPECT_THROW(batch.fit(samples, bad_count), std::invalid_argument);
  const std::vector<std::size_t> bad_label = {0, 3};
  EXPECT_THROW(batch.fit(samples, bad_label), std::invalid_argument);
  EXPECT_THROW((void)batch.predict(samples), std::logic_error);
}

TEST(AccumulatorMergeTest, MergeEqualsSequentialStream) {
  Rng rng(26);
  std::vector<Hypervector> stream;
  for (int i = 0; i < 10; ++i) {
    stream.push_back(Hypervector::random(200, rng));
  }
  BundleAccumulator sequential(200);
  for (const Hypervector& hv : stream) {
    sequential.add(hv);
  }
  BundleAccumulator left(200);
  BundleAccumulator right(200);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    (i < 4 ? left : right).add(stream[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), sequential.count());
  for (std::size_t d = 0; d < 200; ++d) {
    EXPECT_EQ(left.counters()[d], sequential.counters()[d]);
  }
  BundleAccumulator mismatched(100);
  EXPECT_THROW(left.merge(mismatched), std::invalid_argument);
}

}  // namespace
