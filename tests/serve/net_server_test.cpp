// Socket front-end conformance: round-trip equivalence against the
// sequential oracle, the zero-downtime hot-swap protocol (every prediction
// a client ever sees is bit-identical to one of the two generations —
// never torn, never dropped), reload rejection leaving the incumbent
// serving, per-connection error isolation (malformed and over-long lines),
// the SIGHUP-style async reload, unix-domain sockets, control commands, and
// the microsecond poll-deadline flush bound.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "hdc/io/fixture_models.hpp"
#include "hdc/io/io.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::io::MappedSnapshot;
using hdc::io::Pipeline;
using hdc::io::SnapshotWriter;
using hdc::serve::LocalPredictor;
using hdc::serve::NetServer;
using hdc::serve::NetServerOptions;
using hdc::serve::OutputFormat;
using hdc::serve::PredictionWriter;
namespace fixtures = hdc::io::fixtures;

std::string temp_file(const std::string& name) {
  const auto stamp = static_cast<unsigned long long>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  return (std::filesystem::path(testing::TempDir()) /
          ("net_" + std::to_string(stamp) + "_" + name))
      .string();
}

std::string write_beijing(const std::string& name, std::uint64_t seed) {
  const std::string path = temp_file(name);
  fixtures::FixtureSpec spec;
  spec.seed = seed;
  const fixtures::BeijingPipeline models =
      fixtures::make_beijing_pipeline(spec);
  SnapshotWriter writer;
  writer.add_pipeline(*models.encoder, models.model);
  writer.write_file(path);
  return path;
}

std::vector<std::vector<double>> beijing_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    rows.push_back({static_cast<double>(i % 5),
                    static_cast<double>((i * 53) % 366),
                    0.5 * static_cast<double>((i * 7) % 48)});
  }
  return rows;
}

std::string as_csv(const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  for (const auto& row : rows) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      out << (f == 0 ? "" : ",") << row[f];
    }
    out << '\n';
  }
  return out.str();
}

/// The exact Plain-format line each row would get from \p snapshot_path —
/// the per-generation oracle the wire output must match byte for byte.
std::vector<std::string> oracle_lines(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows) {
  const auto snapshot = MappedSnapshot::open(snapshot_path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  std::ostringstream out;
  PredictionWriter writer(out, OutputFormat::Plain);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.write(i, pipeline.regress(rows[i]), 0.0);
  }
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    lines.push_back(line);
  }
  return lines;
}

/// A LocalPredictor over \p snapshot_path behind a NetServer, plus its
/// run() thread with exception-safe teardown.
struct RunningServer {
  LocalPredictor predictor;
  NetServer server;
  std::thread thread;

  RunningServer(const std::string& snapshot_path, NetServerOptions options,
                std::size_t num_threads = 0)
      : predictor(hdc::io::load_pipeline(snapshot_path), snapshot_path,
                  nullptr, num_threads),
        server(predictor, std::move(options)),
        thread([this] { server.run(); }) {}
  ~RunningServer() {
    server.stop();
    thread.join();
  }
};

/// Minimal blocking line client with a receive timeout so a server bug
/// fails the test instead of hanging ctest.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    open(AF_INET, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }

  explicit Client(const std::string& unix_path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (unix_path.size() >= sizeof(addr.sun_path)) {
      ADD_FAILURE() << "unix path too long: " << unix_path;
      return;
    }
    std::copy(unix_path.begin(), unix_path.end(), addr.sun_path);
    open(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }

  ~Client() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send(const std::string& text) const {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  void shutdown_write() const { ::shutdown(fd_, SHUT_WR); }

  /// Sends as much of \p text as the peer takes before it stops reading
  /// or closes; returns the bytes sent.
  std::size_t send_best_effort(const std::string& text) const {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    return sent;
  }

  /// Next '\n'-terminated line, or nullopt on clean EOF.  A receive
  /// timeout (server stalled) fails the calling test.
  std::optional<std::string> read_line() {
    while (true) {
      const std::size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (got == 0) {
        EXPECT_TRUE(buffer_.empty()) << "EOF mid-line: " << buffer_;
        return std::nullopt;
      }
      if (got < 0) {
        ADD_FAILURE() << "recv: " << std::strerror(errno);
        return std::nullopt;
      }
      buffer_.append(chunk, static_cast<std::size_t>(got));
    }
  }

 private:
  void open(int family, const sockaddr* addr, socklen_t len) {
    fd_ = ::socket(family, SOCK_STREAM, 0);
    if (fd_ < 0) {
      ADD_FAILURE() << "socket: " << std::strerror(errno);
      return;
    }
    if (::connect(fd_, addr, len) != 0) {
      ADD_FAILURE() << "connect: " << std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      return;
    }
    // A server bug must fail the test instead of hanging ctest.
    timeval timeout{};
    timeout.tv_sec = 20;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }

  int fd_ = -1;
  std::string buffer_;
};

TEST(NetServerTest, RoundTripMatchesSequentialOracle) {
  const std::string path = write_beijing("roundtrip.hdcs", 2023);
  const auto rows = beijing_rows(60);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.batch_size = 7;  // never divides 60: partial tail batch
  RunningServer running(path, options);
  ASSERT_GT(running.server.port(), 0);

  Client client(running.server.port());
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  EXPECT_FALSE(client.read_line().has_value());

  const NetServer::Stats stats = running.server.stats();
  EXPECT_EQ(stats.rows, rows.size());
  EXPECT_EQ(stats.connections, 1U);
  EXPECT_GE(stats.batches, (rows.size() + 6) / 7);
  std::filesystem::remove(path);
}

TEST(NetServerTest, HotSwapYieldsOnlyWholeGenerationPredictions) {
  const std::string path_a = write_beijing("swap_a.hdcs", 2023);
  const std::string path_b = write_beijing("swap_b.hdcs", 7777);
  const auto rows = beijing_rows(120);
  const auto oracle_a = oracle_lines(path_a, rows);
  const auto oracle_b = oracle_lines(path_b, rows);
  // The generations must be distinguishable for the test to mean anything.
  ASSERT_NE(oracle_a, oracle_b);

  NetServerOptions options;
  options.batch_size = 4;
  RunningServer running(path_a, options);
  const std::uint16_t port = running.server.port();

  // N client threads stream the same rows in small pulses while the main
  // thread hot-swaps the model mid-run.  Every client must receive exactly
  // one prediction per row (zero drops), every line must be bit-identical
  // to generation A's or generation B's oracle (never torn), and per
  // connection the generation may only move forward (A..A then B..B).
  constexpr std::size_t kClients = 3;
  std::vector<std::vector<std::string>> received(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(port);
      constexpr std::size_t kPulse = 6;
      for (std::size_t begin = 0; begin < rows.size(); begin += kPulse) {
        const std::size_t end = std::min(begin + kPulse, rows.size());
        const std::vector<std::vector<double>> pulse(
            rows.begin() + static_cast<std::ptrdiff_t>(begin),
            rows.begin() + static_cast<std::ptrdiff_t>(end));
        client.send(as_csv(pulse));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      client.shutdown_write();
      while (auto line = client.read_line()) {
        received[c].push_back(*line);
      }
    });
  }

  // Swap once the clients are demonstrably mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(4));
  {
    Client control(port);
    control.send("!reload " + path_b + "\n");
    const auto ack = control.read_line();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->rfind("!ok reloaded generation=1", 0), 0U) << *ack;
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(running.predictor.generation(), 1U);

  for (std::size_t c = 0; c < kClients; ++c) {
    SCOPED_TRACE("client " + std::to_string(c));
    ASSERT_EQ(received[c].size(), rows.size()) << "dropped predictions";
    bool swapped = false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string& line = received[c][i];
      if (!swapped) {
        if (line == oracle_a[i]) {
          continue;
        }
        ASSERT_EQ(line, oracle_b[i]) << "torn prediction at row " << i;
        swapped = true;
      } else {
        ASSERT_EQ(line, oracle_b[i])
            << "generation went backwards at row " << i;
      }
    }
  }
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(NetServerTest, RejectedReloadLeavesIncumbentServing) {
  const std::string path = write_beijing("reject_a.hdcs", 2023);
  const auto rows = beijing_rows(10);
  const auto expected = oracle_lines(path, rows);

  RunningServer running(path, NetServerOptions{});
  Client client(running.server.port());

  // A corrupt snapshot: validation must fail before any flip.
  const std::string corrupt = temp_file("reject_corrupt.hdcs");
  {
    std::filesystem::copy_file(path, corrupt);
    std::filesystem::resize_file(corrupt,
                                 std::filesystem::file_size(corrupt) / 2);
  }
  client.send("!reload " + corrupt + "\n");
  auto reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("!error reload rejected:", 0), 0U) << *reply;

  // A valid snapshot of the wrong kind: the shape gate must reject it.
  const std::string classifier_path = temp_file("reject_classifier.hdcs");
  {
    const fixtures::ClassifierPipeline models =
        fixtures::make_classifier_pipeline();
    SnapshotWriter writer;
    writer.add_pipeline(models.encoder, models.model);
    writer.write_file(classifier_path);
  }
  client.send("!reload " + classifier_path + "\n");
  reply = client.read_line();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("!error reload rejected:", 0), 0U) << *reply;

  // Same connection, same generation, still bit-exact.
  EXPECT_EQ(running.predictor.generation(), 0U);
  EXPECT_EQ(running.server.stats().rejected_reloads, 2U);
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  for (const auto& file : {path, corrupt, classifier_path}) {
    std::filesystem::remove(file);
  }
}

TEST(NetServerTest, AsyncReloadNotifyReloadsTheServingPath) {
  // The SIGHUP deployment shape: the trainer overwrites the snapshot file
  // in place, the signal handler writes one byte to the notify pipe, the
  // server re-reads its own source path.
  const std::string path = write_beijing("sighup.hdcs", 2023);
  const std::string retrained = write_beijing("sighup_retrained.hdcs", 7777);
  const auto rows = beijing_rows(10);
  const auto expected = oracle_lines(retrained, rows);

  RunningServer running(path, NetServerOptions{});
  std::filesystem::copy_file(path, path + ".old");
  std::filesystem::rename(retrained, path);
  const char byte = 'r';
  ASSERT_EQ(::write(running.server.reload_notify_fd(), &byte, 1), 1);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (running.predictor.generation() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(running.predictor.generation(), 1U) << "async reload never landed";

  Client client(running.server.port());
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".old");
}

TEST(NetServerTest, MalformedRowClosesOnlyThatConnection) {
  const std::string path = write_beijing("isolate.hdcs", 2023);
  const auto rows = beijing_rows(4);
  const auto expected = oracle_lines(path, rows);

  RunningServer running(path, NetServerOptions{});
  Client bad(running.server.port());
  Client good(running.server.port());

  // Rows before the poison pill are served, then the reader's diagnostic
  // arrives as a control-style error and the connection closes.
  bad.send(as_csv({rows[0], rows[1]}) + "0.5,nan,3\n");
  auto line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, expected[0]);
  line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, expected[1]);
  line = bad.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error row 3:", 0), 0U) << *line;
  EXPECT_NE(line->find("not finite"), std::string::npos) << *line;
  EXPECT_FALSE(bad.read_line().has_value());  // closed

  // The sibling connection (and the server) are unaffected.
  good.send(as_csv(rows));
  good.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = good.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, OverlongLineIsRejectedAndClosesOnlyThatConnection) {
  // A peer that never sends a newline must not grow the server's input
  // buffer without bound: past NetServer::kMaxLineBytes the line is
  // rejected by name and only that connection closes.
  const std::string path = write_beijing("overlong.hdcs", 2023);
  const auto rows = beijing_rows(2);
  const auto expected = oracle_lines(path, rows);
  RunningServer running(path, NetServerOptions{});

  Client flood(running.server.port());
  const std::string junk(std::size_t{8} << 20, '7');  // 8 MiB, no newline
  EXPECT_GT(flood.send_best_effort(as_csv(rows) + junk),
            NetServer::kMaxLineBytes);
  // Rows admitted before the flood are answered, then the named error.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = flood.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  const auto error = flood.read_line();
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->rfind("!error line too long", 0), 0U) << *error;
  EXPECT_FALSE(flood.read_line().has_value());  // closed

  // The server keeps answering everyone else.
  Client good(running.server.port());
  good.send(as_csv(rows));
  good.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = good.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, UnixSocketServesAndControlCommandsAnswer) {
  const std::string path = write_beijing("unix.hdcs", 2023);
  const auto rows = beijing_rows(5);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.host.clear();  // unix-only: port() must stay 0
  options.unix_path = temp_file("hdc_serve.sock");
  RunningServer running(path, options);
  EXPECT_EQ(running.server.port(), 0);

  Client client(options.unix_path);
  client.send("!ping\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok pong generation=0");

  client.send(as_csv(rows));
  client.send("!stats\n");
  // The !stats ack is a sequencing point: every row sent before it is
  // predicted and delivered first.
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok rows=5 batches=", 0), 0U) << *line;

  client.send("!frobnicate\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error unknown control command", 0), 0U) << *line;

  client.send("!quit\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok bye");
  EXPECT_FALSE(client.read_line().has_value());
  std::filesystem::remove(path);
}

/// Every reply line a fresh unix-socket server sends for \p stream, which
/// is written in pieces of the given sizes (one send() each; whatever is
/// left after the list goes in one piece).
std::string replies_for_split_stream(const std::string& snapshot_path,
                                     const std::string& stream,
                                     const std::vector<std::size_t>& pieces) {
  NetServerOptions options;
  options.host.clear();
  options.unix_path = temp_file("split.sock");
  options.batch_size = 16;
  options.flush_interval = std::chrono::microseconds(100);
  RunningServer running(snapshot_path, options);
  Client client(options.unix_path);
  std::size_t at = 0;
  for (const std::size_t piece : pieces) {
    if (at >= stream.size()) {
      break;
    }
    const std::size_t take = std::min(piece, stream.size() - at);
    client.send(stream.substr(at, take));
    at += take;
    // Let the server read this piece on its own, so its line scan and
    // deadline flushes really see the boundary.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  client.send(stream.substr(at));
  client.shutdown_write();
  std::string replies;
  while (const auto line = client.read_line()) {
    replies += *line + "\n";
  }
  return replies;
}

TEST(NetServerTest, RepliesDoNotDependOnHowTheStreamIsSplit) {
  // One byte stream of data rows and control lines (`!ping`, `!adapt`,
  // `!use adapted` / `!use base`), sent unsplit and then split at seeded
  // random write() sizes from 1 B to 4 KiB: each run on a fresh server
  // must get byte-identical replies.
  const std::string path = write_beijing("split.hdcs", 2023);
  const auto rows = beijing_rows(240);
  const auto row_csv = [&](std::size_t i) { return as_csv({rows[i]}); };
  std::string stream;
  const auto add_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      stream += row_csv(i);
    }
  };
  add_rows(0, 50);
  stream += "!ping\n";
  for (std::size_t i = 0; i < 12; ++i) {
    const std::string target = i % 2 == 0 ? "-20" : "40";
    stream += "!adapt " + target + " " + row_csv(i * 7);
  }
  stream += "!use adapted\n";
  add_rows(50, 130);
  stream += "!adapt 40 " + row_csv(3);
  add_rows(130, 180);
  stream += "!use base\n";
  add_rows(180, 240);
  stream += "!ping\n";

  const std::string unsplit = replies_for_split_stream(path, stream, {});
  // The stream must exercise what it claims: every row answered, feedback
  // that changed the model, and an adapted side that differs from the base.
  std::size_t lines = 0;
  for (const char c : unsplit) {
    lines += c == '\n' ? 1 : 0;
  }
  ASSERT_EQ(lines, rows.size() + 2 + 13 + 2);
  ASSERT_NE(unsplit.find(" updated=1 "), std::string::npos) << unsplit;
  const auto base = oracle_lines(path, rows);
  std::string base_replies;
  for (std::size_t i = 50; i < 130; ++i) {
    base_replies += base[i] + "\n";
  }
  ASSERT_EQ(unsplit.find(base_replies), std::string::npos)
      << "the adapted rows equal the base model's";

  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    SCOPED_TRACE("split seed " + std::to_string(seed));
    // Log-uniform sizes in [1, 4096): mostly small writes that cut lines
    // mid-field, with the occasional multi-line one.
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> exponent(0.0, 12.0);
    std::vector<std::size_t> pieces;
    for (std::size_t total = 0; total < stream.size();) {
      pieces.push_back(static_cast<std::size_t>(std::exp2(exponent(rng))));
      total += pieces.back();
    }
    EXPECT_EQ(replies_for_split_stream(path, stream, pieces), unsplit);
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, FlushDeadlineBoundsPartialBatchLatency) {
  // A batch that will never fill and a client that never closes: the only
  // thing that can deliver these predictions is the poll-deadline flush.
  const std::string path = write_beijing("deadline.hdcs", 2023);
  const auto rows = beijing_rows(3);
  const auto expected = oracle_lines(path, rows);

  NetServerOptions options;
  options.batch_size = 1024;
  options.flush_interval = std::chrono::milliseconds(5);
  RunningServer running(path, options);

  Client client(running.server.port());
  client.send(as_csv(rows));  // no shutdown, no further bytes
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "deadline flush never fired";
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  std::filesystem::remove(path);
}

TEST(NetServerTest, FlushDeadlineKeepsMicrosecondPrecision) {
  // flush_interval is in microseconds, and so is the poll timeout: 200 us
  // must not round up to a whole millisecond for every isolated row.
  const std::string path = write_beijing("precision.hdcs", 2023);
  NetServerOptions options;
  options.flush_interval = std::chrono::microseconds(200);
  options.output = OutputFormat::Csv;
  options.with_latency = true;
  RunningServer running(path, options);

  Client client(running.server.port());
  std::vector<double> latencies;
  for (const auto& row : beijing_rows(50)) {
    // One row at a time, well short of a full batch: only the deadline
    // flushes it.
    client.send(as_csv({row}));
    auto line = client.read_line();
    if (line && *line == "row,prediction,latency_us") {
      line = client.read_line();
    }
    ASSERT_TRUE(line.has_value());
    latencies.push_back(std::stod(line->substr(line->rfind(',') + 1)));
  }
  std::nth_element(latencies.begin(), latencies.begin() + 25,
                   latencies.end());
  EXPECT_LT(latencies[25], 1000.0) << "median latency_us";
  std::filesystem::remove(path);
}

TEST(NetServerTest, WorkerPoolFailureAnswersErrorInsteadOfClosing) {
  // The worker pool is created lazily on the first data batch; an
  // impossible thread count must therefore surface on the wire as an
  // `!error server error: ...` reply — not a silently dropped connection,
  // and never a dead server.
  const std::string path = write_beijing("badpool.hdcs", 2023);
  const auto rows = beijing_rows(2);
  const auto expected = oracle_lines(path, rows);

  // 1'000'000 threads > ThreadPool::max_threads().
  RunningServer running(path, NetServerOptions{}, 1'000'000);

  Client doomed(running.server.port());
  doomed.send(as_csv(rows));
  doomed.shutdown_write();
  auto line = doomed.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error server error:", 0), 0U) << *line;
  EXPECT_NE(line->find("exceeds the supported maximum"), std::string::npos)
      << *line;
  EXPECT_FALSE(doomed.read_line().has_value());  // that connection closes

  // The server survives: control commands (which need no pool) still
  // answer on a fresh connection.
  Client control(running.server.port());
  control.send("!ping\n");
  line = control.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok pong generation=0");
  std::filesystem::remove(path);
}

std::string write_classifier(const std::string& name) {
  const std::string path = temp_file(name);
  const fixtures::ClassifierPipeline models =
      fixtures::make_classifier_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

std::vector<std::vector<double>> classifier_rows(std::size_t count) {
  std::vector<std::vector<double>> rows;
  rows.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<double> row(4);
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = 23.0 * static_cast<double>(i) + 80.0 * static_cast<double>(f);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Plain-format oracle for a classifier snapshot (write_class lines).
std::vector<std::string> classifier_oracle_lines(
    const std::string& snapshot_path,
    const std::vector<std::vector<double>>& rows) {
  const auto snapshot = MappedSnapshot::open(snapshot_path);
  const Pipeline pipeline = Pipeline::restore(snapshot);
  std::ostringstream out;
  PredictionWriter writer(out, OutputFormat::Plain);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    writer.write_class(i, pipeline.classify(rows[i]), 0.0);
  }
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    lines.push_back(line);
  }
  return lines;
}

TEST(NetServerTest, AdaptDeltaAndABServingRoundTrip) {
  // The online-adaptation loop end to end over one socket: `!adapt`
  // feedback builds the overlay, `!delta` exports it, `!use` A/B-serves
  // base vs adapted from the same process, and `!reload DELTA` swaps the
  // default side to a model bit-identical to the overlay.
  const std::string base_path = write_classifier("adapt_base.hdcs");
  const auto rows = classifier_rows(10);
  const auto base_oracle = classifier_oracle_lines(base_path, rows);

  RunningServer running(base_path, NetServerOptions{});
  Client client(running.server.port());

  // Before any feedback nothing differs from the base: no delta to export.
  const std::string delta_path = temp_file("adapt.delta.hdcs");
  client.send("!delta " + delta_path + "\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error delta rejected:", 0), 0U) << *line;

  // Malformed feedback is rejected without touching the overlay.
  const auto row_csv = [&](std::size_t i) {
    std::ostringstream out;
    for (std::size_t f = 0; f < rows[i].size(); ++f) {
      out << (f == 0 ? "" : ",") << rows[i][f];
    }
    return out.str();
  };
  for (const std::string& bad :
       {std::string("!adapt foo " + row_csv(0)),
        std::string("!adapt 1.5 " + row_csv(0)),
        std::string("!adapt 1 1,2"), std::string("!adapt 1 0.5,nan,3,4")}) {
    client.send(bad + "\n");
    line = client.read_line();
    ASSERT_TRUE(line.has_value());
    EXPECT_EQ(line->rfind("!error adapt rejected:", 0), 0U)
        << bad << " -> " << *line;
  }

  // Poison the model: repeatedly insist every probe row belongs to the
  // next class over.  Deterministic, so the adapted side provably drifts
  // from the base.
  const auto base_snapshot = MappedSnapshot::open(base_path);
  const Pipeline base_pipeline = Pipeline::restore(base_snapshot);
  bool updated_once = false;
  for (std::size_t pass = 0; pass < 8; ++pass) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t wrong = (base_pipeline.classify(rows[i]) + 1) % 3;
      client.send("!adapt " + std::to_string(wrong) + " " + row_csv(i) +
                  "\n");
      line = client.read_line();
      ASSERT_TRUE(line.has_value());
      ASSERT_EQ(line->rfind("!ok adapt predicted=", 0), 0U) << *line;
      EXPECT_NE(line->find(" generation=0"), std::string::npos) << *line;
      updated_once = updated_once ||
                     line->find(" updated=1 ") != std::string::npos;
    }
  }
  ASSERT_TRUE(updated_once) << "no feedback row ever changed the model";

  // Export the overlay and rebuild the adapted oracle from base + delta —
  // the wire's adapted side must match it bit for bit.
  client.send("!delta " + delta_path + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  ASSERT_EQ(line->rfind("!ok delta rows=", 0), 0U) << *line;
  EXPECT_NE(line->find(" path=" + delta_path), std::string::npos) << *line;

  const std::string patched_path = temp_file("adapt.patched.hdcs");
  hdc::io::apply_delta_file(base_path, delta_path, patched_path);
  const auto adapted_oracle = classifier_oracle_lines(patched_path, rows);
  ASSERT_NE(adapted_oracle, base_oracle)
      << "poisoned feedback left the model unchanged";

  // A/B on one connection: `!use adapted` then `!use base`, with `!stats`
  // as the sequencing point between row pulses.
  const auto expect_rows = [&](const std::vector<std::string>& oracle) {
    client.send(as_csv(rows));
    client.send("!stats\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto got = client.read_line();
      ASSERT_TRUE(got.has_value()) << "dropped row " << i;
      EXPECT_EQ(*got, oracle[i]) << "row " << i;
    }
    const auto ack = client.read_line();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->rfind("!ok rows=", 0), 0U) << *ack;
  };
  client.send("!use adapted\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok use adapted");
  expect_rows(adapted_oracle);

  client.send("!use base\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok use base");
  expect_rows(base_oracle);

  client.send("!use sideways\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error use rejected:", 0), 0U) << *line;

  // The acceptance path: `!reload` with the delta file promotes the
  // adapted model to the default side for every connection.
  client.send("!reload " + delta_path + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok reloaded generation=1 source=" + delta_path, 0),
            0U)
      << *line;
  expect_rows(adapted_oracle);

  // Rows inherited from the delta reload stay exportable: a fresh `!delta`
  // against the (unchanged) base restores the same model again.
  const std::string delta2_path = temp_file("adapt.delta2.hdcs");
  client.send("!delta " + delta2_path + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  ASSERT_EQ(line->rfind("!ok delta rows=", 0), 0U) << *line;
  const std::string patched2_path = temp_file("adapt.patched2.hdcs");
  hdc::io::apply_delta_file(base_path, delta2_path, patched2_path);
  EXPECT_EQ(classifier_oracle_lines(patched2_path, rows), adapted_oracle);

  for (const auto& file : {base_path, delta_path, patched_path, delta2_path,
                           patched2_path}) {
    std::filesystem::remove(file);
  }
}

std::string write_text(const std::string& name) {
  const std::string path = temp_file(name);
  fixtures::TextPipeline models = fixtures::make_text_pipeline();
  SnapshotWriter writer;
  writer.add_pipeline(models.encoder, models.model);
  writer.write_file(path);
  return path;
}

TEST(NetServerTest, TextPipelineServesAndAdaptsOverTheWire) {
  // Raw-text serving end to end: one sample per line, commas and brackets
  // are payload, `!`-control lines still work, and `!adapt TARGET TEXT`
  // feeds the overlay exactly like its numeric twin.
  const std::string path = write_text("text_wire.hdcs");
  const std::vector<std::string> rows = {
      "lo vo miri", "zu ka pelo tir", "anda vestri olm",
      "1,2,3 not csv", "tir tir tir", "zz"};

  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(snapshot);
  std::vector<std::string> expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      writer.write_class(i, oracle.classify_text(rows[i]), 0.0);
    }
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) {
      expected.push_back(line);
    }
  }

  NetServerOptions options;
  options.input = hdc::serve::RowFormat::Text;
  options.batch_size = 4;  // never divides 6: partial tail batch
  RunningServer running(path, options);

  Client client(running.server.port());
  client.send("!ping\n");
  auto line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(*line, "!ok pong generation=0");

  std::string payload;
  for (const std::string& row : rows) {
    payload += row + "\n";
  }
  client.send(payload);
  client.send("!stats\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok rows=6 batches=", 0), 0U) << *line;

  // Feedback rides a control line; the sample may itself contain spaces.
  const std::size_t wrong = (oracle.classify_text(rows[0]) + 1) % 3;
  client.send("!adapt " + std::to_string(wrong) + " " + rows[0] + "\n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!ok adapt predicted=", 0), 0U) << *line;

  // A blank sample is rejected without touching the overlay.
  client.send("!adapt 1 \n");
  line = client.read_line();
  ASSERT_TRUE(line.has_value());
  EXPECT_EQ(line->rfind("!error adapt rejected:", 0), 0U) << *line;
  std::filesystem::remove(path);
}

TEST(NetServerTest, ConfidenceHeadStreamsWithEveryPrediction) {
  const std::string path = write_text("conf_wire.hdcs");
  const std::vector<std::string> rows = {"lo vo miri", "zu ka pelo tir",
                                         "anda vestri olm", "zzz",
                                         "tir tir"};
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(snapshot);
  std::vector<std::string> expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                            hdc::serve::HeadMode::Confidence);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hdc::Top2 top =
          oracle.classifier().predict_top2(oracle.encode_text(rows[i]));
      writer.write_class(i, top.best.index, hdc::margin_confidence(top),
                         0.0);
    }
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) {
      expected.push_back(line);
    }
  }

  NetServerOptions options;
  options.input = hdc::serve::RowFormat::Text;
  options.head = hdc::serve::HeadMode::Confidence;
  options.batch_size = 2;
  RunningServer running(path, options);

  Client client(running.server.port());
  std::string payload;
  for (const std::string& row : rows) {
    payload += row + "\n";
  }
  client.send(payload);
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  EXPECT_FALSE(client.read_line().has_value());
  std::filesystem::remove(path);
}

TEST(NetServerTest, BandHeadStreamsQuantilesWithEveryPrediction) {
  const std::string path = write_beijing("band_wire.hdcs", 2023);
  const auto rows = beijing_rows(9);
  const auto snapshot = MappedSnapshot::open(path);
  const Pipeline oracle = Pipeline::restore(snapshot);
  std::vector<std::string> expected;
  {
    std::ostringstream out;
    PredictionWriter writer(out, OutputFormat::Plain, /*with_latency=*/false,
                            hdc::serve::HeadMode::Band);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const hdc::Hypervector encoded = oracle.encode(rows[i]);
      writer.write_band(i, oracle.regressor().predict(encoded),
                        oracle.regressor().predict_band(encoded), 0.0);
    }
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) {
      expected.push_back(line);
    }
  }

  NetServerOptions options;
  options.head = hdc::serve::HeadMode::Band;
  options.batch_size = 4;
  RunningServer running(path, options);

  Client client(running.server.port());
  client.send(as_csv(rows));
  client.shutdown_write();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto line = client.read_line();
    ASSERT_TRUE(line.has_value()) << "dropped row " << i;
    EXPECT_EQ(*line, expected[i]) << "row " << i;
  }
  EXPECT_FALSE(client.read_line().has_value());
  std::filesystem::remove(path);
}

TEST(NetServerTest, WireFormatsMustMatchThePipeline) {
  const std::string text_path = write_text("gate_text.hdcs");
  const std::string beijing_path = write_beijing("gate_beijing.hdcs", 2023);
  LocalPredictor text(hdc::io::load_pipeline(text_path), text_path);
  LocalPredictor beijing(hdc::io::load_pipeline(beijing_path), beijing_path);

  // Input mode is checked at construction, both directions.
  EXPECT_THROW(NetServer(text, NetServerOptions{}), std::invalid_argument);
  NetServerOptions text_options;
  text_options.input = hdc::serve::RowFormat::Text;
  EXPECT_THROW(NetServer(beijing, text_options), std::invalid_argument);

  // Head kind is checked against the pipeline kind.
  NetServerOptions band_on_classifier;
  band_on_classifier.input = hdc::serve::RowFormat::Text;
  band_on_classifier.head = hdc::serve::HeadMode::Band;
  EXPECT_THROW(NetServer(text, band_on_classifier), std::invalid_argument);
  NetServerOptions confidence_on_regressor;
  confidence_on_regressor.head = hdc::serve::HeadMode::Confidence;
  EXPECT_THROW(NetServer(beijing, confidence_on_regressor),
               std::invalid_argument);
  std::filesystem::remove(text_path);
  std::filesystem::remove(beijing_path);
}

TEST(NetServerTest, ConstructorValidatesOptions) {
  const std::string path = write_beijing("ctor.hdcs", 2023);
  LocalPredictor predictor(hdc::io::load_pipeline(path), path);
  NetServerOptions no_listener;
  no_listener.host.clear();
  EXPECT_THROW(NetServer(predictor, no_listener), std::invalid_argument);
  NetServerOptions zero_batch;
  zero_batch.batch_size = 0;
  EXPECT_THROW(NetServer(predictor, zero_batch), std::invalid_argument);
  // The flush deadline is oldest + interval in nanoseconds: an interval
  // past the bound, or negative, is refused before any socket is bound.
  const auto max = hdc::serve::MicroBatcher::max_flush_interval();
  for (const auto bad : {max + std::chrono::microseconds(1),
                         std::chrono::microseconds::max(),
                         std::chrono::microseconds(-1)}) {
    NetServerOptions flush;
    flush.flush_interval = bad;
    EXPECT_THROW(NetServer(predictor, flush), std::invalid_argument);
  }
  NetServerOptions bad_host;
  bad_host.host = "not-an-address";
  EXPECT_THROW(NetServer(predictor, bad_host), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
