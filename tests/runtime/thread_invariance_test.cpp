// The batch runtime's determinism contract: with a fixed hdc::base RNG seed,
// every batch result is bit-identical for every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hdc/core/basis_level.hpp"
#include "hdc/core/feature_encoder.hpp"
#include "hdc/runtime/runtime.hpp"

namespace {

using hdc::Hypervector;
using hdc::Rng;
using hdc::runtime::BatchClassifier;
using hdc::runtime::BatchEncoder;
using hdc::runtime::BatchRegressor;
using hdc::runtime::ThreadPool;
using hdc::runtime::VectorArena;

constexpr std::size_t kDim = 600;
const std::size_t kThreadCounts[] = {1, 2, 3, 7};

TEST(ThreadPoolTest, ChunkRangesPartitionExactly) {
  for (const std::size_t count : {1U, 5U, 16U, 17U, 100U}) {
    for (const std::size_t chunks : {1U, 2U, 3U, 8U}) {
      if (chunks > count) {
        continue;
      }
      std::size_t expected_begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [begin, end] = ThreadPool::chunk_range(count, chunks, c);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_GE(end, begin);
        expected_begin = end;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
}

TEST(ThreadPoolTest, ForChunksCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1'000, 0);
  pool.for_chunks(hits.size(), [&](std::size_t begin, std::size_t end,
                                   std::size_t /*chunk*/) {
    for (std::size_t i = begin; i < end; ++i) {
      ++hits[i];  // disjoint ranges: no synchronization needed
    }
  });
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPoolTest, NestedForChunksThrowsInsteadOfDeadlocking) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_chunks(4,
                      [&](std::size_t, std::size_t, std::size_t) {
                        pool.for_chunks(
                            1, [](std::size_t, std::size_t, std::size_t) {});
                      }),
      std::logic_error);
  // A different pool inside a worker chunk is fine.
  ThreadPool inner(2);
  int runs = 0;
  std::mutex m;
  pool.for_chunks(2, [&](std::size_t, std::size_t, std::size_t) {
    inner.for_chunks(1, [&](std::size_t, std::size_t, std::size_t) {
      const std::lock_guard<std::mutex> lock(m);
      ++runs;
    });
  });
  EXPECT_EQ(runs, 2);
}

TEST(ThreadPoolTest, OneWorkerPoolRunsEachRoundOnTheCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::thread::id> ran;
  pool.for_chunks(5, [&](std::size_t begin, std::size_t end,
                         std::size_t chunk) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    EXPECT_EQ(chunk, 0u);
    ran.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(ran.size(), 1u);
  EXPECT_EQ(ran[0], std::this_thread::get_id());

  // A chunk's exception still reaches the caller, and the pool serves on.
  EXPECT_THROW(pool.for_chunks(3,
                               [](std::size_t, std::size_t, std::size_t) {
                                 throw std::runtime_error("chunk failed");
                               }),
               std::runtime_error);
  // A nested round on the same pool is still refused, not run re-entrantly.
  EXPECT_THROW(
      pool.for_chunks(2,
                      [&](std::size_t, std::size_t, std::size_t) {
                        pool.for_chunks(
                            1, [](std::size_t, std::size_t, std::size_t) {});
                      }),
      std::logic_error);
  int runs = 0;
  pool.for_chunks(2, [&](std::size_t, std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, PropagatesWorkerExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.for_chunks(10,
                      [](std::size_t begin, std::size_t, std::size_t) {
                        if (begin == 0) {
                          throw std::runtime_error("boom");
                        }
                      }),
      std::runtime_error);
  // The pool survives and stays usable after a throwing round.
  int runs = 0;
  pool.for_chunks(1, [&](std::size_t, std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
}

hdc::ScalarEncoderPtr make_value_encoder() {
  hdc::LevelBasisConfig config;
  config.dimension = kDim;
  config.size = 16;
  config.seed = 31;
  return std::make_shared<hdc::LinearScalarEncoder>(
      hdc::make_level_basis(config), 0.0, 1.0);
}

TEST(ThreadInvarianceTest, BatchEncoderOutputIndependentOfThreadCount) {
  const auto values = make_value_encoder();
  const auto encoder = std::make_shared<hdc::KeyValueEncoder>(3, values, 32);
  Rng rng(33);
  std::vector<double> flat;
  for (int i = 0; i < 60; ++i) {
    flat.push_back(rng.uniform());
  }

  std::vector<VectorArena> results;
  for (const std::size_t threads : kThreadCounts) {
    BatchEncoder batch(
        kDim,
        [encoder](std::span<const double> row, std::span<std::uint64_t> out) {
          std::ranges::copy(encoder->encode(row).words(), out.begin());
        },
        std::make_shared<ThreadPool>(threads));
    results.push_back(batch.encode(flat, 3));
  }
  for (std::size_t t = 1; t < results.size(); ++t) {
    ASSERT_EQ(results[t].size(), results[0].size());
    for (std::size_t i = 0; i < results[0].size(); ++i) {
      EXPECT_EQ(results[t].extract(i), results[0].extract(i))
          << "thread count " << kThreadCounts[t] << ", row " << i;
    }
  }
}

TEST(ThreadInvarianceTest, BatchClassifierModelIndependentOfThreadCount) {
  constexpr std::size_t kClasses = 4;
  Rng rng(34);
  std::vector<Hypervector> samples;
  std::vector<std::size_t> labels;
  for (int i = 0; i < 50; ++i) {
    samples.push_back(Hypervector::random(kDim, rng));
    labels.push_back(static_cast<std::size_t>(i) % kClasses);
  }
  const VectorArena arena = VectorArena::pack(samples);

  std::vector<Hypervector> queries;
  for (int i = 0; i < 20; ++i) {
    queries.push_back(Hypervector::random(kDim, rng));
  }
  const VectorArena query_arena = VectorArena::pack(queries);

  std::vector<std::vector<std::size_t>> predictions;
  std::vector<Hypervector> first_class_vectors;
  for (const std::size_t threads : kThreadCounts) {
    BatchClassifier batch(kClasses, kDim, 35,
                          std::make_shared<ThreadPool>(threads));
    batch.fit_finalize(arena, labels);
    predictions.push_back(batch.predict(query_arena));
    if (threads == kThreadCounts[0]) {
      for (std::size_t c = 0; c < kClasses; ++c) {
        first_class_vectors.emplace_back(batch.model().class_vector(c));
      }
    } else {
      for (std::size_t c = 0; c < kClasses; ++c) {
        EXPECT_EQ(batch.model().class_vector(c), first_class_vectors[c])
            << "thread count " << threads << ", class " << c;
      }
    }
  }
  for (std::size_t t = 1; t < predictions.size(); ++t) {
    EXPECT_EQ(predictions[t], predictions[0])
        << "thread count " << kThreadCounts[t];
  }
}

TEST(ThreadInvarianceTest, BatchRegressorModelIndependentOfThreadCount) {
  const auto labels_encoder = make_value_encoder();
  Rng rng(36);
  std::vector<Hypervector> inputs;
  std::vector<double> labels;
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(Hypervector::random(kDim, rng));
    labels.push_back(rng.uniform());
  }
  const VectorArena arena = VectorArena::pack(inputs);
  const VectorArena query_arena =
      VectorArena::pack(std::vector<Hypervector>(inputs.begin(),
                                                 inputs.begin() + 10));

  std::vector<std::vector<double>> predictions;
  for (const std::size_t threads : kThreadCounts) {
    BatchRegressor batch(labels_encoder, 37,
                         std::make_shared<ThreadPool>(threads));
    batch.fit_finalize(arena, labels);
    predictions.push_back(batch.predict(query_arena));
  }
  for (std::size_t t = 1; t < predictions.size(); ++t) {
    EXPECT_EQ(predictions[t], predictions[0])
        << "thread count " << kThreadCounts[t];
  }
}

}  // namespace
