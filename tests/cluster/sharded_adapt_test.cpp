// Online adaptation x sharding: `!adapt` feedback is broadcast to every
// rank, each applies it to a deterministically-seeded rank-local overlay,
// and the whole cluster must stay bit-identical to one single-process
// AdaptiveState fed the same stream — outcomes, predictions, the exported
// delta file, and the delta-reload path that promotes the adapted model.

#ifndef _WIN32

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/serve/adaptive_state.hpp"

namespace {

using hdc::cluster::ClusterOptions;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardedServer;
using hdc::cluster::ShardScheme;
using hdc::serve::AdaptiveState;
using hdc::serve::AdaptOutcome;
using hdc::serve::HeadMode;
using hdc::serve::ServingState;
namespace testutil = hdc::cluster::testutil;

ClusterOptions fork_pair(ShardScheme scheme) {
  ClusterOptions options;
  options.replicas = 2;
  options.scheme = scheme;
  options.backend = CommBackend::Fork;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A single-process AdaptiveState over the same snapshot: the default seed
/// is exactly what every rank uses, so this is the cluster's oracle.
AdaptiveState make_local_overlay(const std::string& snapshot_path) {
  return AdaptiveState(std::make_shared<const ServingState>(
      hdc::io::load_pipeline(snapshot_path), 0, snapshot_path));
}

/// The poisoning stream both sides replay: every probe row repeatedly
/// claimed to belong to the next class over.
std::vector<std::pair<double, std::vector<double>>> feedback_stream(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows, std::size_t passes) {
  const auto snapshot = hdc::io::MappedSnapshot::open(snapshot_path);
  const hdc::io::Pipeline pipeline = hdc::io::Pipeline::restore(snapshot);
  std::vector<std::pair<double, std::vector<double>>> stream;
  stream.reserve(passes * rows.size());
  for (std::size_t pass = 0; pass < passes; ++pass) {
    for (const auto& row : rows) {
      stream.emplace_back(
          static_cast<double>((pipeline.classify(row) + 1) % 3), row);
    }
  }
  return stream;
}

TEST(ShardedAdaptTest, BroadcastFeedbackMatchesSingleProcessOverlay) {
  const std::string path =
      testutil::write_classifier_snapshot("adapt_parity.hdcs", 1);
  const auto rows = testutil::classifier_rows(12);
  const auto stream = feedback_stream(path, rows, 6);

  for (const ShardScheme scheme : {ShardScheme::Rows, ShardScheme::Classes}) {
    SCOPED_TRACE(scheme == ShardScheme::Rows ? "rows" : "classes");
    ShardedServer server(path, fork_pair(scheme));
    AdaptiveState local = make_local_overlay(path);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& [target, row] = stream[i];
      const AdaptOutcome got = server.adapt(row, target);
      const AdaptOutcome want = local.adapt(row, target);
      ASSERT_EQ(got.predicted, want.predicted) << "sample " << i;
      ASSERT_EQ(got.updated, want.updated) << "sample " << i;
      ASSERT_EQ(got.feedback_rows, want.feedback_rows) << "sample " << i;
      ASSERT_EQ(got.updates, want.updates) << "sample " << i;
      ASSERT_EQ(got.overlay_rows, want.overlay_rows) << "sample " << i;
    }
    EXPECT_GT(local.updates(), 0U);

    // Ranks serve the adapted model as soon as feedback lands: the whole
    // sharded batch equals the single-process overlay bit for bit.
    const auto batch = server.predict(rows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batch.predictions[i], local.predict(rows[i]))
          << "row " << i;
    }
  }
}

TEST(ShardedAdaptTest, TextFeedbackMatchesSingleProcessOverlay) {
  // Raw text through the parity test above: adapt() broadcasts one raw
  // sample, every rank encodes it with the warmed text encoder, and
  // the cluster must stay bit-identical to a single-process AdaptiveState
  // fed the same stream — outcomes, then head-carrying predictions.
  const std::string path =
      testutil::write_text_snapshot("adapt_text_parity.hdcs", 5);
  const std::vector<std::string> rows = testutil::text_rows(10);

  // Poisoning stream: every row repeatedly claimed as the next class over.
  std::vector<std::pair<double, std::string>> stream;
  {
    const auto snapshot = hdc::io::MappedSnapshot::open(path);
    const auto pipeline = hdc::io::Pipeline::restore(snapshot);
    for (std::size_t pass = 0; pass < 6; ++pass) {
      for (const std::string& row : rows) {
        stream.emplace_back(
            static_cast<double>((pipeline.classify_text(row) + 1) % 3),
            row);
      }
    }
  }

  for (const ShardScheme scheme : {ShardScheme::Rows, ShardScheme::Classes}) {
    SCOPED_TRACE(scheme == ShardScheme::Rows ? "rows" : "classes");
    ShardedServer server(path, fork_pair(scheme));
    AdaptiveState local = make_local_overlay(path);

    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto& [target, row] = stream[i];
      const AdaptOutcome got = server.adapt(row, target);
      const AdaptOutcome want = local.adapt(row, target);
      ASSERT_EQ(got.predicted, want.predicted) << "sample " << i;
      ASSERT_EQ(got.updated, want.updated) << "sample " << i;
      ASSERT_EQ(got.updates, want.updates) << "sample " << i;
      ASSERT_EQ(got.overlay_rows, want.overlay_rows) << "sample " << i;
    }
    EXPECT_GT(local.updates(), 0U);

    // Adapted serving parity for both the plain and the head-carrying
    // batch planes.
    const auto batch = server.predict(rows, HeadMode::None);
    const auto heads = server.predict(rows, HeadMode::Confidence);
    const auto local_heads = local.predict(rows, HeadMode::Confidence);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batch.predictions[i], local.predict(rows[i])) << "row " << i;
      EXPECT_EQ(heads.predictions[i], local_heads.predictions[i])
          << "row " << i;
      EXPECT_EQ(heads.confidences[i], local_heads.confidences[i])
          << "row " << i;
    }
  }
}

TEST(ShardedAdaptTest, ExportedDeltaIsByteIdenticalAcrossProcessCounts) {
  const std::string path =
      testutil::write_classifier_snapshot("adapt_delta.hdcs", 1);
  const auto rows = testutil::classifier_rows(12);
  const auto stream = feedback_stream(path, rows, 6);

  ShardedServer server(path, fork_pair(ShardScheme::Rows));
  AdaptiveState local = make_local_overlay(path);
  for (const auto& [target, row] : stream) {
    (void)server.adapt(row, target);
    (void)local.adapt(row, target);
  }

  // The cluster's gathered delta and the single-process export must be the
  // same file, byte for byte — one artifact, no matter the topology.
  const std::string cluster_delta = testutil::temp_file("cluster.delta");
  const std::string local_delta = testutil::temp_file("local.delta");
  const std::uint64_t exported = server.export_delta(cluster_delta);
  EXPECT_EQ(exported, local.export_delta(local_delta));
  EXPECT_EQ(read_file(cluster_delta), read_file(local_delta));
  EXPECT_EQ(server.base_path(), path);

  // Applying it to the base restores the adapted predictions exactly.
  const std::string patched = testutil::temp_file("patched.hdcs");
  hdc::io::apply_delta_file(path, cluster_delta, patched);
  const auto golden = testutil::oracle(patched, rows);
  const auto batch = server.predict(rows);
  EXPECT_EQ(batch.predictions, golden);
}

TEST(ShardedAdaptTest, DeltaReloadSwapsEveryRankToTheAdaptedModel) {
  const std::string path =
      testutil::write_classifier_snapshot("adapt_reload.hdcs", 1);
  const auto rows = testutil::classifier_rows(12);
  const auto stream = feedback_stream(path, rows, 6);
  const auto base_golden = testutil::oracle(path, rows);

  ShardedServer server(path, fork_pair(ShardScheme::Classes));
  for (const auto& [target, row] : stream) {
    (void)server.adapt(row, target);
  }
  const std::string delta = testutil::temp_file("reload.delta");
  ASSERT_GT(server.export_delta(delta), 0U);

  // `!reload DELTA` cluster-wide: the patched model becomes the new
  // generation on every rank; the base path stays pinned so later deltas
  // keep applying against the same full snapshot.
  const std::string patched = testutil::temp_file("reload_patched.hdcs");
  hdc::io::apply_delta_file(path, delta, patched);
  const auto adapted_golden = testutil::oracle(patched, rows);
  ASSERT_NE(adapted_golden, base_golden);

  EXPECT_EQ(server.reload(delta), 2U);
  EXPECT_EQ(server.base_path(), path);
  auto batch = server.predict(rows);
  EXPECT_EQ(batch.generation, 2U);
  EXPECT_EQ(batch.predictions, adapted_golden);

  // Reloading the full base again returns to the original predictions.
  EXPECT_EQ(server.reload(path), 3U);
  batch = server.predict(rows);
  EXPECT_EQ(batch.predictions, base_golden);
}

TEST(ShardedAdaptTest, RejectedFeedbackLeavesTheClusterServing) {
  const std::string path =
      testutil::write_classifier_snapshot("adapt_reject.hdcs", 1);
  const auto rows = testutil::classifier_rows(6);
  const auto golden = testutil::oracle(path, rows);

  ShardedServer server(path, fork_pair(ShardScheme::Rows));
  // Arity gate fires locally, before any broadcast.
  EXPECT_THROW((void)server.adapt(std::vector<double>{1.0, 2.0}, 0.0),
               std::invalid_argument);
  // A non-integral label is rejected rank-side; the error surfaces and no
  // overlay row appears anywhere.
  EXPECT_THROW((void)server.adapt(rows[0], 1.5), std::exception);
  const std::string delta = testutil::temp_file("reject.delta");
  EXPECT_THROW((void)server.export_delta(delta), std::runtime_error);

  const auto batch = server.predict(rows);
  EXPECT_EQ(batch.predictions, golden);
}

}  // namespace

#endif  // !_WIN32
