// Fault injection against the fork backend: SIGKILL a worker and the
// coordinator must (a) surface a ClusterError naming the rank, the pid and
// the signal, (b) drain every already-admitted row before the stdin serving
// loop rethrows with the input line number, and (c) tear down the
// remaining workers cleanly — no zombies, no hang, no torn predictions.

#ifndef _WIN32

#include <gtest/gtest.h>

#include <csignal>
#include <sys/wait.h>

#include <functional>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "cluster_test_util.hpp"
#include "hdc/cluster/cluster.hpp"
#include "hdc/serve/serve.hpp"

namespace {

using hdc::cluster::ClusterError;
using hdc::cluster::ClusterOptions;
using hdc::cluster::CommBackend;
using hdc::cluster::ShardedServer;
using hdc::cluster::ShardScheme;
namespace testutil = hdc::cluster::testutil;

/// SIGKILLs \p pid and blocks until the kernel marks it dead — without
/// reaping it (WNOWAIT), so the coordinator's own waitpid still observes
/// the exit status.  Makes the injection deterministic: by the time this
/// returns, the worker's socket ends are closed.
void kill_and_await(pid_t pid) {
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  siginfo_t info{};
  ASSERT_EQ(waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT), 0);
  EXPECT_EQ(info.si_code, CLD_KILLED);
}

ClusterOptions fork_options(std::size_t replicas, ShardScheme scheme) {
  ClusterOptions options;
  options.replicas = replicas;
  options.scheme = scheme;
  options.backend = CommBackend::Fork;
  return options;
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

/// A one-char-at-a-time streambuf that fires a callback once the reader
/// crosses \p trigger_at consumed bytes — the hook that lets a test kill a
/// worker at an exact point of the input stream.
class TriggerBuf : public std::streambuf {
 public:
  TriggerBuf(std::string text, std::size_t trigger_at,
             std::function<void()> trigger)
      : text_(std::move(text)),
        trigger_at_(trigger_at),
        trigger_(std::move(trigger)) {}

 protected:
  int_type underflow() override {
    if (next_ >= text_.size()) {
      return traits_type::eof();
    }
    if (next_ >= trigger_at_ && trigger_) {
      std::function<void()> fire = std::move(trigger_);
      trigger_ = nullptr;
      fire();
    }
    current_ = text_[next_++];
    setg(&current_, &current_, &current_ + 1);
    return traits_type::to_int_type(current_);
  }

 private:
  std::string text_;
  std::size_t next_ = 0;
  std::size_t trigger_at_;
  std::function<void()> trigger_;
  char current_ = 0;
};

TEST(FaultInjectionTest, KilledWorkerIsNamedWithPidAndSignal) {
  const std::string path =
      testutil::write_beijing_snapshot("fault_name.hdcs", 2023);
  for (const ShardScheme scheme : {ShardScheme::Rows, ShardScheme::Classes}) {
    ShardedServer server(path, fork_options(3, scheme));
    const std::vector<pid_t> pids = server.worker_pids();
    ASSERT_EQ(pids.size(), 2u);  // ranks 1 and 2
    const auto rows = testutil::beijing_rows(6);
    EXPECT_EQ(server.predict(rows).predictions.size(), rows.size());

    kill_and_await(pids[1]);  // rank 2
    try {
      (void)server.predict(rows);
      FAIL() << "predict over a killed rank did not throw";
    } catch (const ClusterError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("cluster worker rank 2"), std::string::npos)
          << what;
      EXPECT_NE(what.find("pid " + std::to_string(pids[1])),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("killed by signal 9"), std::string::npos) << what;
      EXPECT_NE(what.find("died during"), std::string::npos) << what;
    }
    // Leaving the scope destroys the server: the surviving workers must be
    // shut down and reaped without hanging (the test would time out).
  }
}

TEST(FaultInjectionTest, SurvivorsAreReapedAfterAFault) {
  const std::string path =
      testutil::write_beijing_snapshot("fault_reap.hdcs", 2023);
  std::vector<pid_t> pids;
  {
    ShardedServer server(path, fork_options(4, ShardScheme::Rows));
    pids = server.worker_pids();
    ASSERT_EQ(pids.size(), 3u);
    kill_and_await(pids[0]);
    EXPECT_THROW((void)server.predict(testutil::beijing_rows(4)), ClusterError);
  }
  // After destruction every worker — the killed one and the survivors — is
  // reaped: the pids no longer exist.
  for (const pid_t pid : pids) {
    EXPECT_EQ(kill(pid, 0), -1) << "pid " << pid << " still alive";
    EXPECT_EQ(errno, ESRCH);
  }
}

TEST(FaultInjectionTest, StreamDrainsAdmittedRowsAndReportsTheLine) {
  const std::string path =
      testutil::write_beijing_snapshot("fault_drain.hdcs", 2023);
  const auto rows = testutil::beijing_rows(10);
  const auto golden = testutil::oracle(path, rows);
  const std::string csv = as_csv(rows);

  // Offset of row 5's first byte: the trigger fires after the first batch
  // of 4 rows has been read and answered, killing rank 1 before the second
  // batch is scattered.
  std::size_t offset = 0;
  for (int newline = 0; newline < 4; ++newline) {
    offset = csv.find('\n', offset) + 1;
  }

  ShardedServer cluster(path, fork_options(2, ShardScheme::Rows));
  const std::vector<pid_t> pids = cluster.worker_pids();
  ASSERT_EQ(pids.size(), 1u);
  TriggerBuf buf(csv, offset, [&] { kill_and_await(pids[0]); });
  std::istream in(&buf);
  std::ostringstream out;
  hdc::serve::RowReader reader(in, 3);
  hdc::serve::PredictionWriter writer(out, hdc::serve::OutputFormat::Plain);
  hdc::serve::ServerOptions options;
  options.batch_size = 4;
  const hdc::serve::Server server(cluster, options);
  try {
    (void)server.run(reader, writer);
    FAIL() << "stream over a killed rank did not throw";
  } catch (const hdc::serve::PredictError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cluster worker rank 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("killed by signal 9"), std::string::npos) << what;
    EXPECT_NE(what.find("(at input line 8; 4 rows already answered)"),
              std::string::npos)
        << what;
  }

  // The admitted rows were drained: exactly the first batch, bit-identical
  // to the oracle, each line complete — nothing torn, nothing extra.
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> seen;
  while (std::getline(lines, line)) {
    seen.push_back(line);
  }
  ASSERT_EQ(seen.size(), 4u) << out.str();
  for (std::size_t i = 0; i < seen.size(); ++i) {
    std::ostringstream expect;
    hdc::serve::PredictionWriter one(expect, hdc::serve::OutputFormat::Plain);
    one.write(i, golden[i], 0.0);
    std::string expected = expect.str();
    ASSERT_FALSE(expected.empty());
    expected.pop_back();  // trailing newline
    EXPECT_EQ(seen[i], expected) << "row " << i;
  }
}

TEST(FaultInjectionTest, ConstructionFailureKillsNoBystanders) {
  // A bad snapshot path fails construction synchronously (rank 0 throws);
  // the already-forked children must be cleaned up, not leaked — run it a
  // few times so a leak would accumulate visibly under the test timeout.
  const std::string missing =
      testutil::temp_file("fault_ctor.hdcs") + ".missing";
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(
        ShardedServer(missing, fork_options(3, ShardScheme::Rows)),
        hdc::io::SnapshotError);
  }
}

}  // namespace

#endif  // !_WIN32
