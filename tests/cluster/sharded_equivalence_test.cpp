// The headline gate of the cluster subsystem: for every configuration in
// {replicas 1/2/3/7} x {row, class sharding} x {loopback, fork transport}
// x {batch 1/7/64} x {scalar, auto kernels}, the sharded prediction stream
// over the JIGSAWS-shape classifier and the Beijing-shape regressor must be
// **bit-identical** (EXPECT_EQ on doubles, no tolerance) to the
// single-process pipeline evaluated row by row.  Also covers the stats
// exchange, cluster-wide reload equivalence, and coordinator-side input
// validation.

#include <gtest/gtest.h>

#include <cstddef>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/core/kernels.hpp"

namespace {

using hdc::cluster::ClusterOptions;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardedServer;
using hdc::cluster::ShardScheme;
using hdc::serve::HeadMode;
namespace testutil = hdc::cluster::testutil;

constexpr std::size_t kReplicaAxis[] = {1, 2, 3, 7};
constexpr std::size_t kBatchAxis[] = {1, 7, 64};
constexpr ShardScheme kSchemeAxis[] = {ShardScheme::Rows, ShardScheme::Classes};
constexpr CommBackend kBackendAxis[] = {CommBackend::Loopback,
                                        CommBackend::Fork};

/// One pipeline shape of the matrix: its snapshot and its probe rows.
struct Shape {
  const char* label;
  std::string path;
  std::vector<std::vector<double>> rows;
  std::vector<double> golden;
};

std::vector<Shape> make_shapes() {
  std::vector<Shape> shapes;
  shapes.push_back({"classifier",
                    testutil::write_classifier_snapshot("eq_cls.hdcs", 2023),
                    testutil::classifier_rows(23),
                    {}});
  shapes.push_back({"regressor",
                    testutil::write_beijing_snapshot("eq_bj.hdcs", 2023),
                    testutil::beijing_rows(23),
                    {}});
  for (Shape& shape : shapes) {
    shape.golden = testutil::oracle(shape.path, shape.rows);
  }
  return shapes;
}

/// Runs the full configuration matrix over both shapes and asserts
/// bit-identity against the single-process oracle.  Factored out so the
/// kernel-variant tests below can replay it under a forced kernel table.
void run_matrix() {
  const std::vector<Shape> shapes = make_shapes();
  for (const Shape& shape : shapes) {
    for (const CommBackend backend : kBackendAxis) {
      for (const ShardScheme scheme : kSchemeAxis) {
        for (const std::size_t replicas : kReplicaAxis) {
          ClusterOptions options;
          options.replicas = replicas;
          options.scheme = scheme;
          options.backend = backend;
          ShardedServer server(shape.path, options);
          ASSERT_EQ(server.replicas(), replicas);
          for (const std::size_t batch : kBatchAxis) {
            const std::string where =
                std::string(shape.label) + " backend=" +
                hdc::cluster::to_string(backend) + " scheme=" +
                hdc::cluster::to_string(scheme) + " replicas=" +
                std::to_string(replicas) + " batch=" +
                std::to_string(batch);
            std::vector<double> got;
            got.reserve(shape.rows.size());
            for (std::size_t i = 0; i < shape.rows.size(); i += batch) {
              const std::size_t n = std::min(batch, shape.rows.size() - i);
              const hdc::serve::Predictions result = server.predict(
                  std::span<const std::vector<double>>(shape.rows)
                      .subspan(i, n));
              EXPECT_EQ(result.generation, 1u) << where;
              got.insert(got.end(), result.predictions.begin(),
                         result.predictions.end());
            }
            ASSERT_EQ(got.size(), shape.golden.size()) << where;
            for (std::size_t i = 0; i < got.size(); ++i) {
              // Bit-identical, not approximately equal: the cluster is a
              // pure re-partitioning of the same arithmetic.
              ASSERT_EQ(got[i], shape.golden[i])
                  << where << " row " << i;
            }
          }
        }
      }
    }
  }
}

TEST(ShardedEquivalenceTest, MatrixMatchesOracleUnderAutoKernels) {
  run_matrix();
}

TEST(ShardedEquivalenceTest, MatrixMatchesOracleUnderScalarKernels) {
  // Force the scalar reference kernels (the CI job additionally re-runs the
  // whole suite under HDC_KERNELS=scalar; this covers an in-process switch
  // with fork workers inheriting the selection), then restore the best
  // variant so later tests in this binary run under the default again.
  hdc::bits::select_kernels("scalar");
  run_matrix();
  hdc::bits::select_kernels(hdc::bits::available_kernels().front()->name);
}

TEST(ShardedEquivalenceTest, EmptyAndSingleRowBatches) {
  const std::string path =
      testutil::write_beijing_snapshot("eq_edge.hdcs", 2023);
  ClusterOptions options;
  options.replicas = 3;
  for (const ShardScheme scheme : kSchemeAxis) {
    options.scheme = scheme;
    ShardedServer server(path, options);
    EXPECT_TRUE(server.predict({}).predictions.empty());
    const auto rows = testutil::beijing_rows(1);
    const auto golden = testutil::oracle(path, rows);
    // One row over three ranks: two row-shard slices are empty.
    EXPECT_EQ(server.predict(rows).predictions, golden);
  }
}

TEST(ShardedEquivalenceTest, MoreRanksThanClasses) {
  // The classifier has 3 classes and the regressor label basis 5 vectors;
  // 7 ranks guarantees empty class slices whose sentinels must never win.
  const std::vector<Shape> shapes = make_shapes();
  for (const Shape& shape : shapes) {
    ClusterOptions options;
    options.replicas = 7;
    options.scheme = ShardScheme::Classes;
    ShardedServer server(shape.path, options);
    const auto got = server.predict(shape.rows).predictions;
    EXPECT_EQ(got, shape.golden) << shape.label;
  }
}

TEST(ShardedEquivalenceTest, StatsCountRowsPerScheme) {
  const std::string path =
      testutil::write_beijing_snapshot("eq_stats.hdcs", 2023);
  const auto rows = testutil::beijing_rows(10);
  for (const CommBackend backend : kBackendAxis) {
    {
      ClusterOptions options;
      options.replicas = 3;
      options.scheme = ShardScheme::Rows;
      options.backend = backend;
      ShardedServer server(path, options);
      (void)server.predict(rows);
      const auto stats = server.rank_stats();
      ASSERT_EQ(stats.size(), 3u);
      std::uint64_t total = 0;
      for (std::size_t rank = 0; rank < stats.size(); ++rank) {
        EXPECT_EQ(stats[rank].rank, rank);
        EXPECT_EQ(stats[rank].generation, 1u);
        EXPECT_EQ(stats[rank].batches, 1u);
        total += stats[rank].rows;
      }
      // Row sharding splits the batch across ranks.
      EXPECT_EQ(total, rows.size());
    }
    {
      ClusterOptions options;
      options.replicas = 3;
      options.scheme = ShardScheme::Classes;
      options.backend = backend;
      ShardedServer server(path, options);
      (void)server.predict(rows);
      // Class sharding sends every row to every rank.
      for (const auto& s : server.rank_stats()) {
        EXPECT_EQ(s.rows, rows.size());
      }
    }
  }
}

TEST(ShardedEquivalenceTest, ReloadSwapsEveryRankBitIdentically) {
  const std::string a = testutil::write_beijing_snapshot("eq_gen_a.hdcs", 1);
  const std::string b = testutil::write_beijing_snapshot("eq_gen_b.hdcs", 2);
  const auto rows = testutil::beijing_rows(12);
  const auto golden_a = testutil::oracle(a, rows);
  const auto golden_b = testutil::oracle(b, rows);
  ASSERT_NE(golden_a, golden_b) << "seeds produced indistinguishable models";

  for (const CommBackend backend : kBackendAxis) {
    for (const ShardScheme scheme : kSchemeAxis) {
      ClusterOptions options;
      options.replicas = 3;
      options.scheme = scheme;
      options.backend = backend;
      ShardedServer server(a, options);
      EXPECT_EQ(server.predict(rows).predictions, golden_a);
      EXPECT_EQ(server.reload(b), 2u);
      EXPECT_EQ(server.generation(), 2u);
      EXPECT_EQ(server.source(), b);
      EXPECT_EQ(server.predict(rows).predictions, golden_b);

      // A rejected reload must leave every rank on the incumbent.
      EXPECT_THROW((void)server.reload(b + ".missing"), hdc::io::SnapshotError);
      EXPECT_EQ(server.generation(), 2u);
      EXPECT_EQ(server.predict(rows).predictions, golden_b);
    }
  }
}

TEST(ShardedEquivalenceTest, CoordinatorValidatesInput) {
  const std::string path =
      testutil::write_beijing_snapshot("eq_valid.hdcs", 2023);
  ClusterOptions options;
  options.replicas = 2;
  ShardedServer server(path, options);
  const std::vector<std::vector<double>> bad = {{1.0, 2.0}};
  EXPECT_THROW((void)server.predict(bad), std::invalid_argument);
  EXPECT_THROW(ShardedServer(path + ".missing", options),
               hdc::io::SnapshotError);
  ClusterOptions zero;
  zero.replicas = 0;
  EXPECT_THROW(ShardedServer(path, zero), std::invalid_argument);
}

TEST(ShardedEquivalenceTest, TextMatrixMatchesOracle) {
  // The text workload through the same configuration matrix: raw rows are
  // broadcast (Classes) or row-sliced (Rows) and encoded rank-side, so the
  // prediction stream must still be bit-identical to per-row
  // classify_text().
  const std::string path = testutil::write_text_snapshot("eq_text.hdcs", 9);
  const std::vector<std::string> rows = testutil::text_rows(23);
  const std::vector<double> golden = testutil::text_oracle(path, rows);
  for (const CommBackend backend : kBackendAxis) {
    for (const ShardScheme scheme : kSchemeAxis) {
      for (const std::size_t replicas : {1U, 2U, 3U}) {
        ClusterOptions options;
        options.replicas = replicas;
        options.scheme = scheme;
        options.backend = backend;
        ShardedServer server(path, options);
        EXPECT_EQ(server.kind(), hdc::io::PipelineKind::Classifier);
        EXPECT_EQ(server.num_features(), 0u);
        for (const std::size_t batch : kBatchAxis) {
          const std::string where =
              std::string("backend=") + hdc::cluster::to_string(backend) +
              " scheme=" + hdc::cluster::to_string(scheme) +
              " replicas=" + std::to_string(replicas) +
              " batch=" + std::to_string(batch);
          std::vector<double> got;
          got.reserve(rows.size());
          for (std::size_t i = 0; i < rows.size(); i += batch) {
            const std::size_t n = std::min(batch, rows.size() - i);
            const auto result =
                server.predict(std::span<const std::string>(rows).subspan(i, n),
                               HeadMode::None);
            got.insert(got.end(), result.predictions.begin(),
                       result.predictions.end());
          }
          ASSERT_EQ(got, golden) << where;
        }
      }
    }
  }
}

TEST(ShardedEquivalenceTest, ClassifierHeadsMatchSingleProcess) {
  // Confidence heads across both input modes and both shard schemes: the
  // coordinator merges per-rank top-2 candidates, which must reproduce the
  // single-process margin exactly (integer distances, no tolerance).
  const std::string text_path =
      testutil::write_text_snapshot("eq_text_head.hdcs", 9);
  const std::vector<std::string> text_rows = testutil::text_rows(17);
  const std::string num_path =
      testutil::write_classifier_snapshot("eq_num_head.hdcs", 2023);
  const auto num_rows = testutil::classifier_rows(17);

  // Single-process oracles straight off the restored pipelines.
  const auto text_snapshot = hdc::io::MappedSnapshot::open(text_path);
  const auto text_oracle = hdc::io::Pipeline::restore(text_snapshot);
  const auto num_snapshot = hdc::io::MappedSnapshot::open(num_path);
  const auto num_oracle = hdc::io::Pipeline::restore(num_snapshot);

  for (const CommBackend backend : kBackendAxis) {
    for (const ShardScheme scheme : kSchemeAxis) {
      const std::string where =
          std::string("backend=") + hdc::cluster::to_string(backend) +
          " scheme=" + hdc::cluster::to_string(scheme);
      ClusterOptions options;
      options.replicas = 2;
      options.scheme = scheme;
      options.backend = backend;
      {
        ShardedServer server(text_path, options);
        const auto heads = server.predict(text_rows, HeadMode::Confidence);
        ASSERT_EQ(heads.predictions.size(), text_rows.size()) << where;
        ASSERT_EQ(heads.confidences.size(), text_rows.size()) << where;
        EXPECT_TRUE(heads.bands.empty()) << where;
        for (std::size_t i = 0; i < text_rows.size(); ++i) {
          const hdc::Top2 top = text_oracle.classifier().predict_top2(
              text_oracle.encode_text(text_rows[i]));
          ASSERT_EQ(heads.predictions[i],
                    static_cast<double>(top.best.index))
              << where << " row " << i;
          ASSERT_EQ(heads.confidences[i], hdc::margin_confidence(top))
              << where << " row " << i;
        }
      }
      {
        ShardedServer server(num_path, options);
        const auto heads = server.predict(num_rows, HeadMode::Confidence);
        ASSERT_EQ(heads.predictions.size(), num_rows.size()) << where;
        for (std::size_t i = 0; i < num_rows.size(); ++i) {
          const hdc::Top2 top = num_oracle.classifier().predict_top2(
              num_oracle.encode(num_rows[i]));
          ASSERT_EQ(heads.predictions[i],
                    static_cast<double>(top.best.index))
              << where << " row " << i;
          ASSERT_EQ(heads.confidences[i], hdc::margin_confidence(top))
              << where << " row " << i;
        }
      }
    }
  }
}

TEST(ShardedEquivalenceTest, RegressorBandsMatchSingleProcess) {
  // Band heads: Classes-scheme ranks ship label-grid distance-profile
  // slices which concatenate into exactly the single-process profile, so
  // every quantile must be bit-identical, replica count notwithstanding.
  const std::string path =
      testutil::write_beijing_snapshot("eq_band.hdcs", 2023);
  const auto rows = testutil::beijing_rows(17);
  const auto snapshot = hdc::io::MappedSnapshot::open(path);
  const auto oracle = hdc::io::Pipeline::restore(snapshot);

  for (const CommBackend backend : kBackendAxis) {
    for (const ShardScheme scheme : kSchemeAxis) {
      for (const std::size_t replicas : {1U, 2U, 3U, 7U}) {
        const std::string where =
            std::string("backend=") + hdc::cluster::to_string(backend) +
            " scheme=" + hdc::cluster::to_string(scheme) +
            " replicas=" + std::to_string(replicas);
        ClusterOptions options;
        options.replicas = replicas;
        options.scheme = scheme;
        options.backend = backend;
        ShardedServer server(path, options);
        const auto heads = server.predict(rows, HeadMode::Band);
        ASSERT_EQ(heads.predictions.size(), rows.size()) << where;
        ASSERT_EQ(heads.bands.size(), rows.size()) << where;
        EXPECT_TRUE(heads.confidences.empty()) << where;
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const hdc::Hypervector encoded = oracle.encode(rows[i]);
          const hdc::Band band = oracle.regressor().predict_band(encoded);
          ASSERT_EQ(heads.predictions[i], oracle.regressor().predict(encoded))
              << where << " row " << i;
          ASSERT_EQ(heads.bands[i].p10, band.p10) << where << " row " << i;
          ASSERT_EQ(heads.bands[i].p50, band.p50) << where << " row " << i;
          ASSERT_EQ(heads.bands[i].p90, band.p90) << where << " row " << i;
        }
      }
    }
  }
}

TEST(ShardedEquivalenceTest, InputModeIsValidatedCoordinatorSide) {
  const std::string text_path =
      testutil::write_text_snapshot("eq_text_valid.hdcs", 9);
  const std::string num_path =
      testutil::write_beijing_snapshot("eq_num_valid.hdcs", 2023);
  ClusterOptions options;
  options.replicas = 2;
  ShardedServer text_server(text_path, options);
  ShardedServer num_server(num_path, options);
  const std::vector<std::vector<double>> numeric = {{1.0, 2.0, 3.0}};
  const std::vector<std::string> text = {"abc"};
  EXPECT_THROW((void)text_server.predict(numeric), std::invalid_argument);
  EXPECT_THROW((void)num_server.predict(text, HeadMode::None),
               std::invalid_argument);
  EXPECT_THROW((void)text_server.predict(numeric, HeadMode::Confidence),
               std::invalid_argument);
  EXPECT_THROW((void)num_server.predict(text, HeadMode::Band),
               std::invalid_argument);
  EXPECT_THROW((void)text_server.adapt(numeric[0], 0.0), std::invalid_argument);
  EXPECT_THROW((void)num_server.adapt("abc", 0.0), std::invalid_argument);
}

}  // namespace
