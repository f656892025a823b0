// Unit layer of the cluster suite: the varstart/varend ownership math that
// both sharding schemes reduce to, the scheme/backend parsers, the wire
// codec (every request frame and the fixed part of every reply, byte for
// byte, and the reply decoders), the replica bound, and the Worker
// dispatcher's contract (error responses instead of exceptions, even for
// truncated or byte-flipped frames; counters, reload generation bumps, the
// empty-slice sentinel under class sharding).

#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/core/bitops.hpp"
#include "hdc/serve/adaptive_state.hpp"

namespace {

using hdc::cluster::ClusterError;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardScheme;
using hdc::cluster::ShardedServer;
using hdc::cluster::Worker;
using hdc::cluster::WorkerOp;
using hdc::cluster::kNoCandidate;
using hdc::cluster::kWorkerErr;
using hdc::cluster::kWorkerOk;
using hdc::cluster::shard_begin;
using hdc::cluster::shard_end;
namespace testutil = hdc::cluster::testutil;
using NumericRow = std::span<const double>;
using NumericRows = std::span<const std::vector<double>>;
using TextRows = std::span<const std::string>;

TEST(ShardMathTest, SlicesCoverDisjointlyAndStayBalanced) {
  for (const std::size_t count : {0u, 1u, 4u, 5u, 12u, 97u, 256u}) {
    for (const std::size_t size : {1u, 2u, 3u, 5u, 7u, 13u}) {
      std::size_t covered = 0;
      std::size_t previous_end = 0;
      std::size_t smallest = count + 1;
      std::size_t largest = 0;
      for (std::size_t rank = 0; rank < size; ++rank) {
        const std::size_t begin = shard_begin(rank, size, count);
        const std::size_t end = shard_end(rank, size, count);
        ASSERT_LE(begin, end) << "rank " << rank;
        // Contiguous in rank order: no gap, no overlap.
        ASSERT_EQ(begin, previous_end)
            << "count " << count << " size " << size << " rank " << rank;
        previous_end = end;
        covered += end - begin;
        smallest = std::min(smallest, end - begin);
        largest = std::max(largest, end - begin);
      }
      EXPECT_EQ(previous_end, count);
      EXPECT_EQ(covered, count);
      // Balanced: slice sizes differ by at most one item.
      EXPECT_LE(largest - smallest, 1u)
          << "count " << count << " size " << size;
    }
  }
}

TEST(ShardMathTest, FirstRanksAbsorbTheRemainder) {
  // 10 items over 4 ranks: 3, 3, 2, 2.
  EXPECT_EQ(shard_end(0, 4, 10) - shard_begin(0, 4, 10), 3u);
  EXPECT_EQ(shard_end(1, 4, 10) - shard_begin(1, 4, 10), 3u);
  EXPECT_EQ(shard_end(2, 4, 10) - shard_begin(2, 4, 10), 2u);
  EXPECT_EQ(shard_end(3, 4, 10) - shard_begin(3, 4, 10), 2u);
  // More ranks than items: trailing slices are empty, leading get one each.
  EXPECT_EQ(shard_end(0, 7, 3) - shard_begin(0, 7, 3), 1u);
  EXPECT_EQ(shard_end(2, 7, 3) - shard_begin(2, 7, 3), 1u);
  EXPECT_EQ(shard_end(3, 7, 3), shard_begin(3, 7, 3));
  EXPECT_EQ(shard_end(6, 7, 3), shard_begin(6, 7, 3));
}

TEST(ShardParseTest, RoundTripsAndRejects) {
  EXPECT_EQ(hdc::cluster::parse_shard_scheme("rows"), ShardScheme::Rows);
  EXPECT_EQ(hdc::cluster::parse_shard_scheme("classes"), ShardScheme::Classes);
  EXPECT_STREQ(hdc::cluster::to_string(ShardScheme::Rows), "rows");
  EXPECT_STREQ(hdc::cluster::to_string(ShardScheme::Classes), "classes");
  EXPECT_THROW((void)hdc::cluster::parse_shard_scheme("columns"),
               std::invalid_argument);

  EXPECT_EQ(hdc::cluster::parse_comm_backend("loopback"),
            CommBackend::Loopback);
  EXPECT_EQ(hdc::cluster::parse_comm_backend("fork"), CommBackend::Fork);
  EXPECT_STREQ(hdc::cluster::to_string(CommBackend::Loopback), "loopback");
  EXPECT_STREQ(hdc::cluster::to_string(CommBackend::Fork), "fork");
  EXPECT_THROW((void)hdc::cluster::parse_comm_backend("mpi"),
               std::invalid_argument);
}

TEST(ProtocolTest, FieldCodecsRoundTrip) {
  std::string buf;
  hdc::cluster::put_u64(buf, 0);
  hdc::cluster::put_u64(buf, ~std::uint64_t{0});
  hdc::cluster::put_f64(buf, -273.15);
  EXPECT_EQ(hdc::cluster::get_u64(buf, 0), 0u);
  EXPECT_EQ(hdc::cluster::get_u64(buf, 8), ~std::uint64_t{0});
  EXPECT_EQ(hdc::cluster::get_f64(buf, 16), -273.15);
  EXPECT_THROW((void)hdc::cluster::get_u64(buf, 17), std::out_of_range);
  EXPECT_THROW((void)hdc::cluster::get_f64(buf, 24), std::out_of_range);
}

/// One field of a hand-built expected frame.
using Field = std::variant<std::uint64_t, double, std::string>;
using u64 = std::uint64_t;

/// Expected frame bytes built by hand: the \p lead bytes, then each field
/// as a little-endian u64, f64 or raw bytes.
std::string frame_bytes(std::initializer_list<int> lead,
                        std::initializer_list<Field> fields = {}) {
  std::string out;
  for (const int byte : lead) {
    out.push_back(static_cast<char>(byte));
  }
  for (const Field& field : fields) {
    if (const auto* word = std::get_if<u64>(&field)) {
      hdc::cluster::put_u64(out, *word);
    } else if (const auto* value = std::get_if<double>(&field)) {
      hdc::cluster::put_f64(out, *value);
    } else {
      out.append(std::get<std::string>(field));
    }
  }
  return out;
}

struct FrameCase {
  const char* name;
  std::string actual;
  std::string expected;
};

TEST(ProtocolTest, PredictRequestLayout) {
  const std::vector<std::vector<double>> rows{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const std::vector<std::string> text{"ab", "c"};
  const std::vector<double> features{0.5, -2.0, 7.25};
  const NumericRows no_rows;
  const TextRows no_text;
  // Every request frame the coordinator sends, byte for byte.  Zero rows
  // is a legal predict frame (a rank can own an empty slice) and still
  // carries the pipeline's arity.
  const FrameCase cases[] = {
      {"predict numeric", hdc::cluster::encode_predict_request(rows, 3, false),
       frame_bytes({8, 0}, {u64{2}, u64{3}, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0})},
      {"predict numeric head",
       hdc::cluster::encode_predict_request(rows, 3, true),
       frame_bytes({8, 2}, {u64{2}, u64{3}, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0})},
      {"predict numeric 0 rows",
       hdc::cluster::encode_predict_request(no_rows, 3, false),
       frame_bytes({8, 0}, {u64{0}, u64{3}})},
      {"predict numeric 0 rows head",
       hdc::cluster::encode_predict_request(no_rows, 3, true),
       frame_bytes({8, 2}, {u64{0}, u64{3}})},
      {"predict text", hdc::cluster::encode_predict_request(text, 0, false),
       frame_bytes({8, 1}, {u64{2}, u64{2}, "ab", u64{1}, "c"})},
      {"predict text head", hdc::cluster::encode_predict_request(text, 0, true),
       frame_bytes({8, 3}, {u64{2}, u64{2}, "ab", u64{1}, "c"})},
      {"predict text 0 rows",
       hdc::cluster::encode_predict_request(no_text, 0, false),
       frame_bytes({8, 1}, {u64{0}})},
      {"adapt numeric",
       hdc::cluster::encode_adapt_request(NumericRow(features), 2.5),
       frame_bytes({6, 0}, {2.5, u64{3}, 0.5, -2.0, 7.25})},
      {"adapt text",
       hdc::cluster::encode_adapt_request(std::string_view{"lo vo"}, -1.0),
       frame_bytes({6, 1}, {-1.0, u64{5}, "lo vo"})},
      {"reload", hdc::cluster::encode_reload_request("a.hdcs"),
       frame_bytes({3}, {u64{6}, "a.hdcs"})},
      {"reload active source", hdc::cluster::encode_reload_request(""),
       frame_bytes({3}, {u64{0}})},
      {"stats", hdc::cluster::encode_stats_request(), frame_bytes({4})},
      {"ping", hdc::cluster::encode_ping_request(), frame_bytes({1})},
      {"shutdown", hdc::cluster::encode_shutdown_request(), frame_bytes({5})},
      {"delta rows", hdc::cluster::encode_delta_rows_request(),
       frame_bytes({7})},
  };
  for (const FrameCase& frame : cases) {
    EXPECT_EQ(frame.actual, frame.expected) << frame.name;
  }
}

TEST(ProtocolTest, ReplyFixedFieldsLayout) {
  const std::string regressor_path =
      testutil::write_beijing_snapshot("reply_layout_reg.hdcs", 2023);
  const std::string classifier_path =
      testutil::write_classifier_snapshot("reply_layout_cls.hdcs", 2023);
  const std::string text_path =
      testutil::write_text_snapshot("reply_layout_text.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = regressor_path;
  cfg.rank = 1;
  cfg.replicas = 3;
  Worker regressor{cfg};
  cfg.snapshot_path = classifier_path;
  Worker classifier{cfg};
  cfg.snapshot_path = text_path;
  Worker text{cfg};

  // The adapt reply carries the single-process overlay's outcome, and the
  // delta-rows reply its changed-row count.
  const auto sample = testutil::classifier_rows(1)[0];
  hdc::serve::AdaptiveState oracle(
      std::make_shared<const hdc::serve::ServingState>(
          hdc::io::load_pipeline(classifier_path), 0, classifier_path));
  const double target = static_cast<double>(
      (classifier.pipeline().classify(sample) + 1) % 3);
  const hdc::serve::AdaptOutcome outcome = oracle.adapt(sample, target);
  const u64 wpr = hdc::bits::words_for(classifier.pipeline().dimension());

  const auto rows = testutil::beijing_rows(3);
  const auto samples = testutil::text_rows(2);
  const std::string predict =
      regressor.handle(hdc::cluster::encode_predict_request(rows, 3, false));
  const std::string predict_head =
      regressor.handle(hdc::cluster::encode_predict_request(rows, 3, true));
  const std::string predict_text =
      text.handle(hdc::cluster::encode_predict_request(samples, 0, true));
  const std::string unchanged =
      classifier.handle(hdc::cluster::encode_delta_rows_request());
  const std::string adapted = classifier.handle(
      hdc::cluster::encode_adapt_request(NumericRow(sample), target));
  const std::string changed =
      classifier.handle(hdc::cluster::encode_delta_rows_request());

  // Each reply's fixed fields, byte for byte; `rows` is how many bytes of
  // per-row payload follow them.
  struct ReplyCase {
    const char* name;
    std::string actual;
    std::string fixed;
    std::size_t rows;
  };
  const u64 changed_rows = oracle.changed_rows().size();
  const std::string adapt_fixed = frame_bytes(
      {0}, {u64{1}, outcome.predicted, u64{outcome.updated ? 1u : 0u},
            outcome.feedback_rows, outcome.updates, outcome.overlay_rows});
  const ReplyCase cases[] = {
      {"ping", regressor.handle(hdc::cluster::encode_ping_request()),
       frame_bytes({0}, {u64{1}}), 0},
      {"predict", predict, frame_bytes({0}, {u64{1}, u64{3}}), 3 * 8},
      {"predict regressor head", predict_head,
       frame_bytes({0}, {u64{1}, u64{3}}), 3 * 4 * 8},
      {"predict classifier head", predict_text,
       frame_bytes({0}, {u64{1}, u64{2}}), 2 * 2 * 8},
      {"stats", regressor.handle(hdc::cluster::encode_stats_request()),
       frame_bytes({0}, {u64{1}, u64{1}, u64{6}, u64{2}}), 0},
      {"delta rows unchanged", unchanged,
       frame_bytes({0}, {u64{1}, u64{0}, wpr}), 0},
      {"adapt", adapted, adapt_fixed, 0},
      {"delta rows changed", changed,
       frame_bytes({0}, {u64{1}, changed_rows, wpr}),
       changed_rows * (8 + wpr * 8)},
      {"reload", text.handle(hdc::cluster::encode_reload_request("")),
       frame_bytes({0}, {u64{2}}), 0},
      {"shutdown", text.handle(hdc::cluster::encode_shutdown_request()),
       frame_bytes({0}), 0},
      {"error", text.handle(std::string(1, '\x7f')),
       frame_bytes({1}, {"unknown opcode"}), 0},
  };
  for (const ReplyCase& reply : cases) {
    EXPECT_EQ(reply.actual.substr(0, reply.fixed.size()), reply.fixed)
        << reply.name;
    EXPECT_EQ(reply.actual.size(), reply.fixed.size() + reply.rows)
        << reply.name;
  }
  EXPECT_TRUE(outcome.updated);
  EXPECT_NE(changed_rows, 0u);
}

TEST(ProtocolTest, ReplyDecodersReadTheFixedFields) {
  EXPECT_EQ(hdc::cluster::decode_ping_reply(frame_bytes({0}, {u64{5}})), 5u);
  EXPECT_EQ(hdc::cluster::decode_reload_reply(frame_bytes({0}, {u64{7}})), 7u);

  const hdc::cluster::RankStats stats = hdc::cluster::decode_stats_reply(
      frame_bytes({0}, {u64{2}, u64{3}, u64{40}, u64{5}}));
  EXPECT_EQ(stats.rank, 2u);
  EXPECT_EQ(stats.generation, 3u);
  EXPECT_EQ(stats.rows, 40u);
  EXPECT_EQ(stats.batches, 5u);

  const hdc::serve::AdaptOutcome outcome = hdc::cluster::decode_adapt_reply(
      frame_bytes({0}, {u64{3}, 1.5, u64{1}, u64{4}, u64{2}, u64{6}}));
  EXPECT_EQ(outcome.predicted, 1.5);
  EXPECT_TRUE(outcome.updated);
  EXPECT_EQ(outcome.feedback_rows, 4u);
  EXPECT_EQ(outcome.updates, 2u);
  EXPECT_EQ(outcome.overlay_rows, 6u);

  const std::string predict = frame_bytes({0}, {u64{2}, u64{1}, 9.5});
  const hdc::cluster::PredictReply reply =
      hdc::cluster::decode_predict_reply(predict);
  EXPECT_EQ(reply.generation, 2u);
  EXPECT_EQ(reply.rows, 1u);
  EXPECT_EQ(reply.fields, frame_bytes({}, {9.5}));

  // Delta rows: [gen][nrows][wpr] then ([index][wpr words]) per row.
  const std::string delta = frame_bytes(
      {0}, {u64{1}, u64{2}, u64{1}, u64{7}, u64{0xaa}, u64{3}, u64{0xbb}});
  const auto rows = hdc::cluster::decode_delta_rows_reply(delta);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.at(3), std::vector<std::uint64_t>{0xbb});
  EXPECT_EQ(rows.at(7), std::vector<std::uint64_t>{0xaa});
  const std::string short_delta = delta.substr(0, delta.size() - 1);
  EXPECT_THROW((void)hdc::cluster::decode_delta_rows_reply(short_delta),
               ClusterError);
  EXPECT_THROW((void)hdc::cluster::decode_delta_rows_reply(delta + "x"),
               ClusterError);
  // A words-per-row count whose row length wraps 64 bits is caught too.
  const std::string wrapping = frame_bytes(
      {0}, {u64{1}, u64{1}, (u64{1} << 61) - 1, u64{7}, u64{0xaa}});
  EXPECT_THROW((void)hdc::cluster::decode_delta_rows_reply(wrapping),
               ClusterError);

  // A reply too short for its layout is a named error, not a read past it.
  const std::string short_stats = frame_bytes({0}, {u64{2}, u64{3}});
  EXPECT_THROW((void)hdc::cluster::decode_stats_reply(short_stats),
               std::out_of_range);
  EXPECT_THROW((void)hdc::cluster::decode_predict_reply(frame_bytes({0})),
               std::out_of_range);
}

TEST(ShardedServerTest, ReplicasAboveTheBoundAreRejectedBeforeAnyRankStarts) {
  const std::string path =
      testutil::write_beijing_snapshot("replica_bound.hdcs", 2023);
  hdc::cluster::ClusterOptions options;
  options.backend = CommBackend::Loopback;
  options.replicas = ShardedServer::max_replicas() + 1;
  try {
    const ShardedServer server(path, options);
    FAIL() << "accepted " << options.replicas << " replicas";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("exceeds the supported maximum of 256"),
              std::string::npos)
        << message;
  }
  options.replicas = 2;
  EXPECT_EQ(ShardedServer(path, options).replicas(), 2u);
}

TEST(WorkerTest, ConfigValidation) {
  const std::string path =
      testutil::write_beijing_snapshot("worker_cfg.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  cfg.replicas = 0;
  EXPECT_THROW(Worker{cfg}, std::invalid_argument);
  cfg.replicas = 2;
  cfg.rank = 2;
  EXPECT_THROW(Worker{cfg}, std::invalid_argument);
  cfg.rank = 1;
  EXPECT_NO_THROW(Worker{cfg});
  cfg.snapshot_path = path + ".missing";
  cfg.rank = 0;
  EXPECT_THROW(Worker{cfg}, hdc::io::SnapshotError);
}

TEST(WorkerTest, DispatcherAnswersEveryOpcodeWithoutThrowing) {
  const std::string path =
      testutil::write_beijing_snapshot("worker_ops.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  cfg.rank = 1;
  cfg.replicas = 3;
  Worker worker{cfg};

  const std::string pong = worker.handle(hdc::cluster::encode_ping_request());
  ASSERT_GE(pong.size(), std::size_t{9});
  EXPECT_EQ(static_cast<std::uint8_t>(pong[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(pong, 1), 1u);

  // Malformed traffic becomes an error response, never an exception.
  const std::string empty = worker.handle("");
  ASSERT_FALSE(empty.empty());
  EXPECT_EQ(static_cast<std::uint8_t>(empty[0]), kWorkerErr);
  const std::string unknown = worker.handle(std::string(1, '\x7f'));
  EXPECT_EQ(static_cast<std::uint8_t>(unknown[0]), kWorkerErr);
  const std::string arity = worker.handle(
      hdc::cluster::encode_predict_request(NumericRows{}, 99, false));
  EXPECT_EQ(static_cast<std::uint8_t>(arity[0]), kWorkerErr);
  EXPECT_NE(std::string(arity.substr(1)).find("arity"), std::string::npos);
  std::string truncated =
      hdc::cluster::encode_predict_request(NumericRows{}, 3, false);
  hdc::cluster::put_u64(truncated, 5);  // Trailing garbage: size mismatch.
  EXPECT_EQ(static_cast<std::uint8_t>(worker.handle(truncated)[0]), kWorkerErr);

  // A good predict bumps the counters the stats response reports.
  const auto rows = testutil::beijing_rows(4);
  const std::string ok =
      worker.handle(hdc::cluster::encode_predict_request(rows, 3, false));
  ASSERT_EQ(static_cast<std::uint8_t>(ok[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(ok, 1), 1u);  // generation
  EXPECT_EQ(hdc::cluster::get_u64(ok, 9), rows.size());

  const std::string stats = worker.handle(hdc::cluster::encode_stats_request());
  ASSERT_EQ(static_cast<std::uint8_t>(stats[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(stats, 1), 1u);   // rank
  EXPECT_EQ(hdc::cluster::get_u64(stats, 9), 1u);   // generation
  EXPECT_EQ(hdc::cluster::get_u64(stats, 17), 4u);  // rows
  EXPECT_EQ(hdc::cluster::get_u64(stats, 25), 1u);  // batches

  EXPECT_FALSE(worker.shutdown_requested());
  const std::string bye =
      worker.handle(hdc::cluster::encode_shutdown_request());
  EXPECT_EQ(static_cast<std::uint8_t>(bye[0]), kWorkerOk);
  EXPECT_TRUE(worker.shutdown_requested());
}

TEST(WorkerTest, MalformedPredictAndAdaptFramesAreErrorResponses) {
  const std::string numeric_path =
      testutil::write_beijing_snapshot("worker_frames_num.hdcs", 2023);
  const std::string text_path =
      testutil::write_text_snapshot("worker_frames_text.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = numeric_path;
  Worker numeric{cfg};
  cfg.snapshot_path = text_path;
  Worker text{cfg};
  // Each frame must come back as a named error response — never a throw,
  // and never a counted batch.
  const auto expect_rejected = [](Worker& worker, const std::string& request,
                                  const std::string& needle) {
    std::string response;
    ASSERT_NO_THROW(response = worker.handle(request));
    ASSERT_FALSE(response.empty());
    EXPECT_EQ(static_cast<std::uint8_t>(response[0]), kWorkerErr);
    EXPECT_NE(response.find(needle), std::string::npos) << response;
  };

  const auto rows = testutil::beijing_rows(2);
  std::string unknown_flags =
      hdc::cluster::encode_predict_request(rows, 3, false);
  unknown_flags[1] = static_cast<char>(0x80);
  expect_rejected(numeric, unknown_flags, "unknown request flags");
  std::string adapt_flags =
      hdc::cluster::encode_adapt_request(NumericRow(rows[0]), 1.0);
  adapt_flags[1] = static_cast<char>(hdc::cluster::kPredictFlagHead);
  expect_rejected(numeric, adapt_flags, "unknown request flags");

  // A forged row count whose byte length wraps 64 bits (2^61 rows of 3
  // features = 3 * 2^64 bytes) is caught before anything is sized.
  std::string wrapping(1, static_cast<char>(WorkerOp::Predict2));
  wrapping.push_back(0);
  hdc::cluster::put_u64(wrapping, std::uint64_t{1} << 61);
  hdc::cluster::put_u64(wrapping, 3);
  expect_rejected(numeric, wrapping, "predict: truncated row payload");

  const std::vector<std::string> samples{"lo vo miri", "zu ka pelo tir"};
  const std::string good =
      hdc::cluster::encode_predict_request(samples, 0, false);
  expect_rejected(text, good.substr(0, good.size() - 2), "truncated text row");
  expect_rejected(text, good + "x", "trailing bytes after text rows");

  // Text/numeric mode mismatch, both directions, for both ops.
  expect_rejected(numeric, good, "request carries text rows");
  const std::string numeric_predict =
      hdc::cluster::encode_predict_request(rows, 3, false);
  expect_rejected(text, numeric_predict, "request carries numeric rows");
  const std::string adapt =
      hdc::cluster::encode_adapt_request(std::string_view{"lo vo miri"}, 0.0);
  expect_rejected(numeric, adapt, "request carries text rows");
  const std::string numeric_adapt =
      hdc::cluster::encode_adapt_request(NumericRow(rows[0]), 0.0);
  expect_rejected(text, numeric_adapt, "request carries numeric rows");

  expect_rejected(text, adapt.substr(0, adapt.size() - 1),
                  "truncated text payload");

  // The well-formed frames still answer, and nothing above counted.
  EXPECT_EQ(static_cast<std::uint8_t>(text.handle(good)[0]), kWorkerOk);
  EXPECT_EQ(static_cast<std::uint8_t>(text.handle(adapt)[0]), kWorkerOk);
  const std::string stats = text.handle(hdc::cluster::encode_stats_request());
  EXPECT_EQ(hdc::cluster::get_u64(stats, 17), samples.size());  // rows
  EXPECT_EQ(hdc::cluster::get_u64(stats, 25), 1u);              // batches
}

TEST(WorkerTest, TruncatedAndFlippedPredictFramesNeverThrow) {
  Worker::Config cfg;
  cfg.snapshot_path =
      testutil::write_beijing_snapshot("worker_sweep_num.hdcs", 2023);
  Worker numeric{cfg};
  cfg.snapshot_path =
      testutil::write_text_snapshot("worker_sweep_text.hdcs", 2023);
  Worker text{cfg};
  const std::string numeric_frame =
      hdc::cluster::encode_predict_request(testutil::beijing_rows(3), 3, false);
  const std::string text_frame =
      hdc::cluster::encode_predict_request(testutil::text_rows(3), 0, false);

  // Whatever the bytes, the rank answers with an ok or an error frame, and
  // the next valid frame is answered exactly as before.
  const auto sweep = [](Worker& worker, const std::string& frame) {
    const std::string reference = worker.handle(frame);
    ASSERT_EQ(static_cast<std::uint8_t>(reference[0]), kWorkerOk);
    const auto answered = [&](const std::string& mutated) {
      std::string reply;
      ASSERT_NO_THROW(reply = worker.handle(mutated));
      ASSERT_FALSE(reply.empty());
      const auto status = static_cast<std::uint8_t>(reply[0]);
      EXPECT_TRUE(status == kWorkerOk || status == kWorkerErr);
      EXPECT_EQ(worker.handle(frame), reference);
    };
    for (std::size_t size = 0; size < frame.size(); ++size) {
      SCOPED_TRACE("prefix of " + std::to_string(size) + " bytes");
      answered(frame.substr(0, size));
    }
    for (std::size_t at = 1; at < frame.size(); ++at) {
      for (const int mask : {1, 2, 4, 8, 16, 32, 64, 128, 255}) {
        SCOPED_TRACE("byte " + std::to_string(at) + " ^ " +
                     std::to_string(mask));
        std::string mutated = frame;
        mutated[at] = static_cast<char>(mutated[at] ^ mask);
        answered(mutated);
      }
    }
  };
  sweep(numeric, numeric_frame);
  sweep(text, text_frame);
}

TEST(WorkerTest, ReloadBumpsGenerationAndRejectsBadSnapshots) {
  const std::string a = testutil::write_beijing_snapshot("worker_a.hdcs", 1);
  const std::string b = testutil::write_beijing_snapshot("worker_b.hdcs", 2);
  Worker::Config cfg;
  cfg.snapshot_path = a;
  Worker worker{cfg};
  EXPECT_EQ(worker.generation(), 1u);

  const std::string swapped =
      worker.handle(hdc::cluster::encode_reload_request(b));
  ASSERT_EQ(static_cast<std::uint8_t>(swapped[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(swapped, 1), 2u);
  EXPECT_EQ(worker.generation(), 2u);
  EXPECT_EQ(worker.source_path(), b);

  // "" re-reads the active source; the path must not regress to a.
  const std::string again =
      worker.handle(hdc::cluster::encode_reload_request(""));
  ASSERT_EQ(static_cast<std::uint8_t>(again[0]), kWorkerOk);
  EXPECT_EQ(worker.generation(), 3u);
  EXPECT_EQ(worker.source_path(), b);

  // A missing replacement is an error response; the incumbent keeps serving.
  const std::string rejected = worker.handle(
      hdc::cluster::encode_reload_request(b + ".missing"));
  EXPECT_EQ(static_cast<std::uint8_t>(rejected[0]), kWorkerErr);
  EXPECT_EQ(worker.generation(), 3u);
  EXPECT_EQ(static_cast<std::uint8_t>(
                worker.handle(hdc::cluster::encode_predict_request(
                    testutil::beijing_rows(2), 3, false))[0]), kWorkerOk);
}

TEST(WorkerTest, OverlayCountsAcceptedFeedbackUntilTheNextReload) {
  const std::string path =
      testutil::write_classifier_snapshot("worker_overlay.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  Worker worker{cfg};
  const auto rows = testutil::classifier_rows(1);
  const auto adapt = [&](double target) {
    return worker.handle(
        hdc::cluster::encode_adapt_request(NumericRow(rows[0]), target));
  };
  // A rejected target leaves no trace: the next accepted sample is the
  // overlay's first.
  EXPECT_EQ(static_cast<std::uint8_t>(adapt(1.5)[0]), kWorkerErr);
  std::string accepted = adapt(1.0);
  ASSERT_EQ(static_cast<std::uint8_t>(accepted[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(accepted, 1), 1u);   // generation
  EXPECT_EQ(hdc::cluster::get_u64(accepted, 25), 1u);  // feedback rows
  accepted = adapt(2.0);
  EXPECT_EQ(hdc::cluster::get_u64(accepted, 25), 2u);

  // A reload retires the overlay with the generation it adapted.
  ASSERT_EQ(static_cast<std::uint8_t>(
                worker.handle(hdc::cluster::encode_reload_request(""))[0]),
            kWorkerOk);
  accepted = adapt(1.0);
  ASSERT_EQ(static_cast<std::uint8_t>(accepted[0]), kWorkerOk);
  EXPECT_EQ(hdc::cluster::get_u64(accepted, 1), 2u);
  EXPECT_EQ(hdc::cluster::get_u64(accepted, 25), 1u);
}

TEST(WorkerTest, EmptyClassSliceReportsTheSentinel) {
  // 3 classes over 7 ranks: ranks 3..6 own nothing and must answer every
  // row with the kNoCandidate pair (which never wins a reduce).
  const std::string path =
      testutil::write_classifier_snapshot("worker_sentinel.hdcs", 2023);
  Worker::Config cfg;
  cfg.snapshot_path = path;
  cfg.rank = 5;
  cfg.replicas = 7;
  cfg.scheme = ShardScheme::Classes;
  Worker worker{cfg};

  const auto rows = testutil::classifier_rows(3);
  const std::string response =
      worker.handle(hdc::cluster::encode_predict_request(rows, 4, false));
  ASSERT_EQ(static_cast<std::uint8_t>(response[0]), kWorkerOk);
  ASSERT_EQ(response.size(), 17 + rows.size() * 16);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(hdc::cluster::get_u64(response, 17 + i * 16), kNoCandidate);
    EXPECT_EQ(hdc::cluster::get_u64(response, 17 + i * 16 + 8), kNoCandidate);
  }
}

}  // namespace
