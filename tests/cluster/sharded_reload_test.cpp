// Hot swap x sharding: under a 2-replica fork cluster every prediction a
// caller ever sees must be attributable to exactly one model generation —
// batches are generation-atomic through interleaved reloads, through
// concurrent predict/reload hammering, and end to end through the socket
// front end's `!reload` (the satellite-3 gate) — and a reload checksums its
// replacement even on a cluster that trusted its initial load.

#ifndef _WIN32

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::cluster::ClusterOptions;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardedServer;
using hdc::cluster::ShardScheme;
using hdc::serve::NetServer;
using hdc::serve::NetServerOptions;
using hdc::serve::OutputFormat;
using hdc::serve::PredictionWriter;
namespace testutil = hdc::cluster::testutil;

ClusterOptions fork_pair(ShardScheme scheme) {
  ClusterOptions options;
  options.replicas = 2;
  options.scheme = scheme;
  options.backend = CommBackend::Fork;
  return options;
}

TEST(ShardedReloadTest, InterleavedReloadsKeepEveryBatchOnOneGeneration) {
  const std::string a = testutil::write_beijing_snapshot("swap_a.hdcs", 1);
  const std::string b = testutil::write_beijing_snapshot("swap_b.hdcs", 2);
  const auto rows = testutil::beijing_rows(9);
  const auto golden_a = testutil::oracle(a, rows);
  const auto golden_b = testutil::oracle(b, rows);
  ASSERT_NE(golden_a, golden_b);

  for (const ShardScheme scheme : {ShardScheme::Rows, ShardScheme::Classes}) {
    ShardedServer server(a, fork_pair(scheme));
    hdc::serve::Predictions batch = server.predict(rows);
    EXPECT_EQ(batch.generation, 1u);
    EXPECT_EQ(batch.predictions, golden_a);

    EXPECT_EQ(server.reload(b), 2u);
    batch = server.predict(rows);
    EXPECT_EQ(batch.generation, 2u);
    EXPECT_EQ(batch.predictions, golden_b);

    EXPECT_EQ(server.reload(a), 3u);
    batch = server.predict(rows);
    EXPECT_EQ(batch.generation, 3u);
    EXPECT_EQ(batch.predictions, golden_a);
  }
}

TEST(ShardedReloadTest, ConcurrentPredictAndReloadNeverTearsABatch) {
  const std::string a = testutil::write_beijing_snapshot("hammer_a.hdcs", 1);
  const std::string b = testutil::write_beijing_snapshot("hammer_b.hdcs", 2);
  const auto rows = testutil::beijing_rows(8);
  const auto golden_a = testutil::oracle(a, rows);
  const auto golden_b = testutil::oracle(b, rows);
  ASSERT_NE(golden_a, golden_b);

  ShardedServer server(a, fork_pair(ShardScheme::Rows));

  struct Observed {
    std::uint64_t generation;
    std::vector<double> predictions;
  };
  std::vector<std::vector<Observed>> per_thread(2);
  std::vector<std::thread> predictors;
  predictors.reserve(per_thread.size());
  for (auto& observed : per_thread) {
    predictors.emplace_back([&server, &rows, &observed] {
      for (int i = 0; i < 25; ++i) {
        hdc::serve::Predictions batch = server.predict(rows);
        observed.push_back({batch.generation, std::move(batch.predictions)});
      }
    });
  }
  // Flip the model back and forth while the predictors hammer: odd
  // generations serve snapshot a, even ones snapshot b.
  for (int swap = 0; swap < 6; ++swap) {
    (void)server.reload(swap % 2 == 0 ? b : a);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : predictors) {
    t.join();
  }

  for (const auto& observed : per_thread) {
    ASSERT_EQ(observed.size(), 25u);
    for (const Observed& batch : observed) {
      const auto& golden = batch.generation % 2 == 1 ? golden_a : golden_b;
      // Attributable to exactly one generation: the whole batch equals
      // that generation's oracle bit for bit.
      EXPECT_EQ(batch.predictions, golden)
          << "generation " << batch.generation;
    }
  }
  EXPECT_EQ(server.generation(), 7u);
}

TEST(ShardedReloadTest, ReloadChecksumsTheReplacementEvenUnderTrust) {
  // Trust skips the payload hash of the initial load only: a hot swap must
  // never serve unvetted bytes, on either backend.
  const std::string a = testutil::write_beijing_snapshot("trust_a.hdcs", 1);
  const std::string corrupt = testutil::temp_file("trust_corrupt.hdcs");
  std::filesystem::copy_file(a, corrupt);
  {
    const auto snapshot = hdc::io::MappedSnapshot::open(a);
    const auto offset = static_cast<std::streamoff>(
        snapshot.section(hdc::io::find_model_section(snapshot))
            .payload_offset);
    std::fstream file(corrupt, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    file.seekg(offset);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);  // bit 0: never a tail bit
    file.seekp(offset);
    file.write(&byte, 1);
  }
  // The flip is structurally valid: only the payload hash can catch it.
  EXPECT_NO_THROW((void)hdc::io::load_pipeline(
      corrupt, hdc::io::SnapshotIntegrity::Trust));
  const auto rows = testutil::beijing_rows(9);
  const auto golden = testutil::oracle(a, rows);

  for (const CommBackend backend : {CommBackend::Loopback, CommBackend::Fork}) {
    SCOPED_TRACE(backend == CommBackend::Fork ? "fork" : "loopback");
    ClusterOptions options = fork_pair(ShardScheme::Rows);
    options.backend = backend;
    options.integrity = hdc::io::SnapshotIntegrity::Trust;
    ShardedServer server(a, options);
    EXPECT_THROW((void)server.reload(corrupt), hdc::io::SnapshotError);
    EXPECT_EQ(server.generation(), 1u);
    const hdc::serve::Predictions batch = server.predict(rows);
    EXPECT_EQ(batch.generation, 1u);
    EXPECT_EQ(batch.predictions, golden);
  }
  std::filesystem::remove(corrupt);
}

/// Minimal blocking TCP line client with a receive timeout.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) { open(port); }
  ~LineClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  void send(const std::string& text) const {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::optional<std::string> read_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) {
        ADD_FAILURE() << "recv: "
                      << (got == 0 ? "EOF" : std::strerror(errno));
        return std::nullopt;
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  void open(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0) << std::strerror(errno);
    timeval timeout{10, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0)
        << std::strerror(errno);
  }

  int fd_ = -1;
  std::string buffer_;
};

/// The exact Plain-format line each row gets from \p snapshot_path.
std::vector<std::string> oracle_lines(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows) {
  const auto golden = testutil::oracle(snapshot_path, rows);
  std::vector<std::string> lines;
  lines.reserve(golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain);
    writer.write(i, golden[i], 0.0);
    std::string line = out.str();
    line.pop_back();  // trailing newline
    lines.push_back(std::move(line));
  }
  return lines;
}

TEST(ShardedReloadTest, SocketFrontEndHotSwapsTheWholeCluster) {
  const std::string a = testutil::write_beijing_snapshot("net_a.hdcs", 1);
  const std::string b = testutil::write_beijing_snapshot("net_b.hdcs", 2);
  const auto rows = testutil::beijing_rows(6);
  const auto lines_a = oracle_lines(a, rows);
  const auto lines_b = oracle_lines(b, rows);
  ASSERT_NE(lines_a, lines_b);
  std::ostringstream csv;
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      csv << (f == 0 ? "" : ",") << row[f];
    }
    csv << '\n';
  }

  // Fork the cluster before the front end grows threads — the same order
  // hdcgen serve uses.
  ShardedServer sharded(a, fork_pair(ShardScheme::Rows));
  NetServerOptions options;
  options.port = 0;
  options.batch_size = 4;
  NetServer server(sharded, options);
  std::thread runner([&server] { server.run(); });

  {
    LineClient client(server.port());

    // Generation 1: every line is bit-identical to snapshot a's oracle.
    client.send(csv.str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto line = client.read_line();
      ASSERT_TRUE(line.has_value());
      EXPECT_EQ(*line, lines_a[i]) << "row " << i;
    }

    // The !reload control command swaps every rank at once.
    client.send("!reload " + b + "\n");
    const auto reloaded = client.read_line();
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(*reloaded, "!ok reloaded generation=2 source=" + b);

    // Generation 2: every line now matches snapshot b — attributable to
    // exactly one generation, never a mix.
    client.send(csv.str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto line = client.read_line();
      ASSERT_TRUE(line.has_value());
      EXPECT_EQ(*line, lines_b[i]) << "row " << i;
    }

    // !stats carries the per-rank suffix: both ranks present, on gen 2.
    client.send("!stats\n");
    const auto stats = client.read_line();
    ASSERT_TRUE(stats.has_value());
    EXPECT_NE(stats->find("rank0=rows:"), std::string::npos) << *stats;
    EXPECT_NE(stats->find("rank1=rows:"), std::string::npos) << *stats;
    EXPECT_EQ(stats->find("gen:1"), std::string::npos) << *stats;

    // A rejected reload leaves generation 2 serving.
    client.send("!reload " + b + ".missing\n");
    const auto rejected = client.read_line();
    ASSERT_TRUE(rejected.has_value());
    EXPECT_EQ(rejected->rfind("!error reload rejected:", 0), 0u)
        << *rejected;
    client.send(csv.str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto line = client.read_line();
      ASSERT_TRUE(line.has_value());
      EXPECT_EQ(*line, lines_b[i]) << "row " << i;
    }
  }

  server.stop();
  runner.join();
}

}  // namespace

#endif  // !_WIN32
