// perfbench_harness: drives the real `hdcgen serve` binary over one
// workload and prints the benchmark result as the last line of stdout.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --hdcgen PATH --work DIR
//
// --trace 0 measures the end-to-end metrics (tracing off) with the
// workload's own flags: set-up launches and throughput passes on every
// workload, and the open-loop rates on the socket workload only.  --trace 1
// replays the same seeded inputs in-process through the public calls of
// every layer with spans on, and prints the per-layer metrics.

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "hdc/base/rng.hpp"
#include "layers.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kThreads = 2;
constexpr std::size_t kSetupLaunches = 30;
constexpr std::size_t kMinPasses = 4;
constexpr double kNominalSeconds = 20.0;
constexpr std::int64_t kDrainTimeoutNs = 5'000'000'000;
constexpr std::size_t kFixedRounds = 3;

/// The Beijing traffic.  Rows per stdin (or socket stream) pass; the
/// open-loop `reads` rates are rows/s, and `feedback` runs at a fixed rate
/// on every step.
constexpr std::size_t kCorpusRows = 150000;
constexpr std::array<double, 3> kRates{25000, 75000, 150000};  // low/mid/high
/// Schedule seconds per rate at --seconds = kNominalSeconds: each gives
/// over 100k rows, so 1000 beyond its p99.
constexpr std::array<double, 3> kStepSeconds{4.2, 3.0, 1.5};
constexpr std::array<double, 8> kLadder{300000, 450000, 560000, 640000,
                                        730000, 830000, 950000, 1080000};
constexpr double kRungSeconds = 0.6;
constexpr double kFeedbackRate = 1000;
constexpr double kAdaptShare = 0.7;
constexpr double kLimitUs = 20000;  ///< reads p99 limit for max_rows_per_s.

/// One benchmark workload: the `hdcgen serve` flags on the Beijing
/// snapshot, and whether it is served over a socket.
struct Workload {
  const char* name;
  bool head;
  bool replicas;
  /// Served with --listen: setup_s is exec to the first `!ok pong`,
  /// rows_per_s streams the corpus over one connection, and the open-loop
  /// rates run.  Otherwise everything goes over stdin.
  bool socket;
};

constexpr Workload kSocketAdapt{"beijing_socket_adapt", true, false, true};
constexpr std::array<Workload, 3> kWorkloads{
    Workload{"beijing_stdin", false, false, false},
    kSocketAdapt,
    Workload{"beijing_stdin_replicas2", false, true, false},
};

/// Seconds of throughput passes at --seconds = kNominalSeconds; the socket
/// workload spends most of the rest on its open-loop rates.
constexpr double kStdinPassSeconds = 20.0;
constexpr double kSocketPassSeconds = 10.0;

/// The measurement's CPU placement, computed once.
const CpuSplit& cpus() {
  static const CpuSplit split = split_cpus();
  return split;
}

/// Seconds a run may spend in total waiting for a calm host.
constexpr double kCalmWaitBudgetS = 15.0;

/// Before a measurement phase: waits, within what is left of the run's
/// budget, until a 200 ms probe that keeps every CPU busy sees the
/// hypervisor steal at most 2 % of them.  Steal only accrues while this
/// machine has work, so an idle wait could not tell a busy host from a
/// calm one.
void wait_for_calm_host() {
  static double budget_s = kCalmWaitBudgetS;
  const int cpus_n = std::max(1, CPU_COUNT(&cpus().all));
  while (budget_s > 0.0) {
    const std::int64_t start = now_ns();
    const std::int64_t stolen_before = host_steal_ticks();
    std::vector<std::thread> spinners;
    for (int i = 0; i < cpus_n; ++i) {
      spinners.emplace_back([start] {
        while (now_ns() - start < 200000000) {
        }
      });
    }
    for (std::thread& spinner : spinners) {
      spinner.join();
    }
    const double seconds = static_cast<double>(now_ns() - start) / 1e9;
    budget_s -= seconds;
    const double share = static_cast<double>(host_steal_ticks() -
                                             stolen_before) /
                         (seconds * static_cast<double>(cpus_n) *
                          static_cast<double>(::sysconf(_SC_CLK_TCK)));
    if (share <= 0.02) {
      return;
    }
    std::printf("host busy: %.0f%% of CPU time stolen, waiting\n",
                100.0 * share);
  }
}

/// Pins the measuring thread to its own CPU for one phase and hands the
/// other CPUs back when the phase ends.
class MeasuringPhase {
 public:
  MeasuringPhase() { pin(cpus(), cpus().harness); }
  ~MeasuringPhase() { pin(cpus(), cpus().all); }
  MeasuringPhase(const MeasuringPhase&) = delete;
  MeasuringPhase& operator=(const MeasuringPhase&) = delete;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kNominalSeconds;
  bool trace = false;
  std::string hdcgen;
  std::string work;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--hdcgen") {
      args.hdcgen = value;
    } else if (flag == "--work") {
      args.work = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.hdcgen.empty() || args.work.empty() ||
      args.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: perfbench_harness --workload NAME --seed N --seconds S "
        "--trace 0|1 --hdcgen PATH --work DIR");
  }
  return args;
}

std::vector<std::string> serve_argv(const Args& args, const Workload& w,
                                    const std::string& snapshot) {
  std::vector<std::string> argv{args.hdcgen, "serve",   snapshot,
                                "--trust",   "--batch", std::to_string(kBatch),
                                "--threads", std::to_string(kThreads)};
  if (w.head) {
    argv.push_back("--head");
  }
  if (w.replicas) {
    argv.insert(argv.end(),
                {"--replicas", "2", "--backend", "fork", "--shard", "rows"});
  }
  if (w.socket) {
    argv.insert(argv.end(), {"--listen", "127.0.0.1:0"});
  }
  return argv;
}

/// A socket server launched for one phase; stopped (SIGTERM) and reaped by
/// stop() or the destructor.
class SocketServer {
 public:
  explicit SocketServer(const std::vector<std::string>& argv)
      : child_(spawn(argv, "", true, &cpus())) {
    const std::string line = read_line_with(child_.err, "listening on ", 30000);
    const std::size_t colon = line.rfind(':');
    if (colon == std::string::npos) {
      stop();
      throw std::runtime_error("hdcgen serve --listen did not report a port");
    }
    port_ = std::stoi(line.substr(colon + 1));
  }
  ~SocketServer() {
    if (child_.pid > 0) {
      stop();
    }
  }
  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  [[nodiscard]] int port() const noexcept { return port_; }
  [[nodiscard]] pid_t pid() const noexcept { return child_.pid; }

  ExitInfo stop() {
    ::kill(child_.pid, SIGTERM);
    return wait_child(child_);
  }

 private:
  Child child_;
  int port_ = 0;
};

struct Totals {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool exits_ok = true;
  long max_rss_kb = 0;
};

// ------------------------------------------- setup_s, rows_per_s, RSS

/// The corpus bytes, as a file for stdin, and the reply stream the oracle
/// expects for them.
struct StdinCorpus {
  std::string path;
  std::string bytes;
  std::string expected;
  std::size_t rows = 0;
};

StdinCorpus write_stdin_corpus(const Args& args, const Corpus& corpus,
                               const Oracle& oracle) {
  StdinCorpus out{args.work + "/stdin_corpus.txt", {}, {}, corpus.pool.size()};
  for (std::size_t i = 0; i < corpus.pool.size(); ++i) {
    out.bytes += corpus.pool[i].line + '\n';
    out.expected += oracle.base[i];
  }
  std::ofstream(out.path, std::ios::binary) << out.bytes;
  return out;
}

/// One launch of the workload's command, timed to ready: on empty stdin to
/// exit, or over --listen to the first `!ok pong`.
double setup_launch(const Args& args, const Workload& w,
                    const std::string& snapshot) {
  const std::int64_t start = now_ns();
  if (w.socket) {
    SocketServer server(serve_argv(args, w, snapshot));
    const int fd = connect_local(server.port());
    const std::string reply = control(fd, "!ping\n", 10000);
    const std::int64_t ready = now_ns();
    ::close(fd);
    if (reply.rfind("!ok pong", 0) != 0) {
      throw std::runtime_error("setup: no !ok pong from the server");
    }
    server.stop();
    return static_cast<double>(ready - start) / 1e9;
  }
  Child child =
      spawn(serve_argv(args, w, snapshot), "/dev/null", false, &cpus());
  const std::string out = read_all(child.out);
  const ExitInfo info = wait_child(child);
  if (!info.ok() || !out.empty()) {
    throw std::runtime_error("setup: empty-input serve failed");
  }
  return static_cast<double>(now_ns() - start) / 1e9;
}

/// Writes \p bytes on the connected socket \p fd as fast as the server
/// takes them while reading its replies, until \p lines reply lines came
/// back, the peer closed, or it stayed silent for 10 s.
std::string stream_rows(int fd, const std::string& bytes, std::size_t lines) {
  std::string out;
  std::size_t sent = 0;
  std::size_t received = 0;
  char buffer[1 << 16];
  while (received < lines) {
    pollfd pfd{fd,
               static_cast<short>(POLLIN |
                                  (sent < bytes.size() ? POLLOUT : 0)),
               0};
    if (::poll(&pfd, 1, 10000) <= 0) {
      break;
    }
    if ((pfd.revents & POLLOUT) != 0) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<std::size_t>(n);
      } else if (errno != EAGAIN && errno != EINTR) {
        break;
      }
    }
    if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (got > 0) {
        out.append(buffer, static_cast<std::size_t>(got));
        received += static_cast<std::size_t>(
            std::count(buffer, buffer + got, '\n'));
      } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
        break;
      }
    }
  }
  return out;
}

/// One throughput pass: the whole corpus through one serve process, exec
/// to exit, on stdin or streamed over one connection.  Returns rows
/// answered correctly per second.
double throughput_pass(const Args& args, const Workload& w,
                       const std::string& snapshot, const StdinCorpus& input,
                       Totals& totals) {
  const std::int64_t start = now_ns();
  std::string out;
  bool ok = false;
  if (w.socket) {
    SocketServer server(serve_argv(args, w, snapshot));
    const int fd = connect_local(server.port());
    out = stream_rows(fd, input.bytes, input.rows);
    ::close(fd);
    ok = server.stop().ok();
  } else {
    Child child =
        spawn(serve_argv(args, w, snapshot), input.path, false, &cpus());
    out = read_all(child.out);
    ok = wait_child(child).ok();
  }
  const double seconds = static_cast<double>(now_ns() - start) / 1e9;
  const std::size_t bad =
      std::min(count_mismatched_lines(out, input.expected), input.rows);
  totals.attempted += input.rows;
  totals.failed += bad;
  totals.exits_ok = totals.exits_ok && ok;
  const double rate = static_cast<double>(input.rows - bad) / seconds;
  std::printf("%s pass: %zu rows in %.4f s = %.0f rows/s, %zu failed\n",
              w.socket ? "socket" : "stdin", input.rows, seconds, rate, bad);
  return rate;
}

/// Throughput passes, each followed by one set-up launch, until the
/// phase's time is spent and \p rates and \p setups hold their minimum
/// counts; interleaved, a slow spell of the host moves only some samples
/// of each median.
void measure_throughput(const Args& args, const Workload& w,
                        const std::string& snapshot, const StdinCorpus& input,
                        double seconds, std::vector<double>& rates,
                        std::vector<double>& setups, Totals& totals) {
  wait_for_calm_host();
  const MeasuringPhase phase;
  const std::int64_t start = now_ns();
  while (static_cast<double>(now_ns() - start) / 1e9 < seconds ||
         rates.size() < kMinPasses || setups.size() < kSetupLaunches) {
    if (rates.size() < kMinPasses ||
        static_cast<double>(now_ns() - start) / 1e9 < seconds) {
      rates.push_back(throughput_pass(args, w, snapshot, input, totals));
    }
    setups.push_back(setup_launch(args, w, snapshot));
  }
}

/// One untimed stdin pass fed through a pipe, so the serve process tree's
/// peak resident set can be read from /proc after the last full batch's
/// replies and before end of input lets it exit (without a flush interval
/// the final partial batch waits for end of input).
long stdin_peak_rss_kb(const Args& args, const Workload& w,
                       const std::string& snapshot, const StdinCorpus& input,
                       Totals& totals) {
  Child child = spawn(serve_argv(args, w, snapshot), "", false, &cpus());
  const std::string& bytes = input.bytes;
  std::thread writer([&] {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::write(child.in, bytes.data() + sent, bytes.size() - sent);
      if (n <= 0) {
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
  });
  std::string out;
  const std::size_t lines_expected = input.rows / kBatch * kBatch;
  std::size_t lines = 0;
  char buffer[1 << 16];
  while (lines < lines_expected) {
    const ssize_t got = ::read(child.out, buffer, sizeof(buffer));
    if (got <= 0) {
      break;
    }
    out.append(buffer, static_cast<std::size_t>(got));
    lines += static_cast<std::size_t>(
        std::count(buffer, buffer + got, '\n'));
  }
  writer.join();
  const long peak = tree_peak_rss_kb(child.pid);
  ::close(child.in);
  child.in = -1;
  out += read_all(child.out);
  totals.exits_ok = totals.exits_ok && wait_child(child).ok();
  const std::size_t bad =
      std::min(count_mismatched_lines(out, input.expected), input.rows);
  totals.attempted += input.rows;
  totals.failed += bad;
  return peak;
}

// ------------------------------------------------------- socket ladder

void print_step(const char* label, const StepResult& result) {
  std::printf(
      "%s %-10s rate=%.0f sent=%zu answered=%zu failed=%zu "
      "feedback=%zu adapts=%zu p50_us=%.1f p99_us=%.1f "
      "adapt_p99_us=%.1f driver.late_us_p99=%.1f backlog_growth=%.0f "
      "batch_fill=%.4f %s\n",
      label, result.name.c_str(), result.rate, result.sent, result.answered,
      result.failed, result.feedback_sent, result.adapts, result.p50_us,
      result.p99_us, result.adapt_p99_us, result.late_p99_us,
      result.backlog_growth, result.batch_fill,
      result.driver_valid ? "valid" : "INVALID (driver fell behind)");
}

/// low, mid, high (each pooled over its rounds), then the rungs run.
using Ladder = std::vector<StepResult>;

/// A growing backlog: over the last three quarters of the step, the rows
/// waiting for a reply grew by more than the limit's worth of arrivals.
bool backlog_grows(const StepResult& step, double limit_us) {
  return step.backlog_growth > std::max(2.0 * static_cast<double>(kBatch),
                                        step.rate * limit_us / 1e6);
}

bool rung_passes(const StepResult& step, double limit_us) {
  return step.failed == 0 && step.p99_us <= limit_us &&
         !backlog_grows(step, limit_us);
}

/// The highest reads rate meeting the p99 limit with no growing backlog,
/// placed between the last passing and the first failing rung so the
/// figure does not snap to ladder rungs: the limit's crossing interpolated
/// on log p99, or, for a rung that failed by backlog alone, the rate the
/// server kept up with there.
double max_rate(const std::vector<StepResult>& steps, double limit_us) {
  const StepResult* previous = nullptr;
  for (const StepResult& step : steps) {
    if (!step.driver_valid) {
      continue;  // The driver, not the server, set this rung's latency.
    }
    if (rung_passes(step, limit_us)) {
      previous = &step;
      continue;
    }
    if (previous == nullptr) {
      return step.rate * std::min(1.0, limit_us / step.p99_us);
    }
    if (!std::isfinite(step.p99_us)) {
      return previous->rate;  // Failed rows, no latency to place it.
    }
    if (step.p99_us <= limit_us) {
      // Overloaded before the tail showed it: the server kept up with the
      // arrival rate minus the backlog's growth rate over the last three
      // quarters of the rung.
      const double kept_up =
          step.rate - step.backlog_growth / (0.75 * step.seconds);
      return std::clamp(kept_up, previous->rate, step.rate);
    }
    const double f = (std::log(limit_us) - std::log(previous->p99_us)) /
                     (std::log(step.p99_us) - std::log(previous->p99_us));
    return previous->rate + std::clamp(f, 0.0, 1.0) *
                                (step.rate - previous->rate);
  }
  return previous != nullptr ? previous->rate : 0.0;
}

/// The open-loop phase on one `--listen` server with the socket
/// workload's flags: the fixed rates in kFixedRounds interleaved rounds,
/// then (\p with_rungs) the ladder up to the first failing rung.
Ladder run_ladder(const Args& args, const std::string& snapshot,
                  const Corpus& corpus, const Oracle& oracle, bool with_rungs,
                  double scale, Totals& totals) {
  // Each rate's rounds pool: a slow spell of the host then covers fewer of
  // the windows its p50 median takes.
  std::vector<StepSpec> specs;
  const char* names[3] = {"low", "mid", "high"};
  for (std::size_t round = 0; round < kFixedRounds; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      specs.push_back({names[i], kRates[i],
                       kStepSeconds[i] * scale / kFixedRounds, kFeedbackRate});
    }
  }
  const std::size_t fixed_steps = specs.size();
  if (with_rungs) {
    for (const double rate : kLadder) {
      specs.push_back(
          {"rung" + number(rate), rate, kRungSeconds * scale, kFeedbackRate});
    }
  }
  std::vector<std::string> read_lines;
  for (const Sample& sample : corpus.pool) {
    read_lines.push_back(sample.line + '\n');
  }

  SocketServer server(serve_argv(args, kSocketAdapt, snapshot));
  const int reads = connect_local(server.port());
  const int feedback = connect_local(server.port());
  const std::string pong = control(reads, "!ping\n", 10000);
  const std::size_t at = pong.find("generation=");
  if (at == std::string::npos) {
    throw std::runtime_error("ladder: no !ok pong from the server");
  }
  const std::uint64_t generation = std::stoull(pong.substr(at + 11));
  if (control(feedback, "!use adapted\n", 10000) != "!ok use adapted") {
    throw std::runtime_error("ladder: !use adapted refused");
  }
  FeedbackReplay replay(snapshot, corpus, kSocketAdapt.head, generation);
  wait_for_calm_host();

  Ladder ladder(3);
  std::uint64_t rows_before = 0;
  std::uint64_t batches_before = 0;
  std::array<double, 3> fixed_rows{};
  std::array<double, 3> fixed_batches{};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    DriverStep step;
    step.spec = specs[i];
    step.events = make_schedule(hdc::derive_seed(args.seed, 100 + i),
                                specs[i], kAdaptShare, corpus.pool.size());
    step.read_lines = &read_lines;
    step.read_replies = &oracle.base;
    step.feedback = replay.step(step.events);
    step.own_cpu = cpus().enabled;
    StepResult result;
    {
      const MeasuringPhase phase;
      result = run_step(reads, feedback, step, kDrainTimeoutNs);
    }
    const double rows = static_cast<double>(result.stats_rows - rows_before);
    const double batches =
        static_cast<double>(result.stats_batches - batches_before);
    rows_before = result.stats_rows;
    batches_before = result.stats_batches;
    result.batch_fill =
        batches > 0.0 ? rows / (batches * static_cast<double>(kBatch)) : 0.0;
    totals.attempted += result.sent + result.feedback_sent;
    totals.failed += result.failed;
    print_step(i < fixed_steps ? "round" : "step", result);
    if (i < fixed_steps) {
      // A rate's rounds pool into one step, whose figures and driver
      // validity come from all of its lines.
      const std::size_t rate = i % 3;
      fixed_rows[rate] += rows;
      fixed_batches[rate] += batches;
      if (i < 3) {
        ladder[rate] = std::move(result);
      } else {
        merge_step(ladder[rate], result);
      }
      ladder[rate].batch_fill =
          fixed_rows[rate] /
          (std::max(1.0, fixed_batches[rate]) * static_cast<double>(kBatch));
      if (i + 1 == fixed_steps) {
        // Memory under the fixed rates only: overload rungs buffer backlog.
        totals.max_rss_kb =
            std::max(totals.max_rss_kb, tree_peak_rss_kb(server.pid()));
      }
      continue;
    }
    const bool passes = rung_passes(result, kLimitUs);
    const bool valid = result.driver_valid;
    ladder.push_back(std::move(result));
    if (!passes && valid) {
      break;  // The crossing is found; higher rungs would only overload.
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    print_step("rate", ladder[i]);
  }
  ::close(reads);
  ::close(feedback);
  totals.exits_ok = totals.exits_ok && server.stop().ok();
  return ladder;
}

// --------------------------------------------------------------- output

void print_result(const Totals& totals, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %s %s (n=%zu)\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.samples);
  }
  const bool correct = totals.failed == 0 && totals.exits_ok;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(totals.attempted);
  json += ", \"failed\": " + std::to_string(totals.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A missing reply reads as +inf latency; keep the JSON finite.
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 1e12;
    json += (i > 0 ? ", \"" : "\"") + metrics[i].name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// The latency metrics of the fixed rates and the ladder.  A rate the
/// driver fell behind at gives no server figure.
void add_latency_metrics(const Ladder& ladder, std::vector<Metric>& metrics) {
  const char* names[3] = {"low", "mid", "high"};
  for (std::size_t i = 0; i < 3; ++i) {
    const StepResult& step = ladder[i];
    if (!step.driver_valid) {
      std::printf("p50_us.%s, p99_us.%s: INVALID, the driver fell behind\n",
                  names[i], names[i]);
      continue;
    }
    const std::string suffix = std::string(".") + names[i];
    metrics.push_back(
        {"p50_us" + suffix, step.p50_us, "us", step.read_us.size()});
    metrics.push_back(
        {"p99_us" + suffix, step.p99_us, "us", step.read_us.size()});
  }
  if (ladder[1].driver_valid) {
    metrics.push_back({"adapt_p99_us", ladder[1].adapt_p99_us, "us",
                       ladder[1].adapt_us.size()});
  }
  metrics.push_back(
      {"max_rows_per_s", max_rate(ladder, kLimitUs), "rows/s", ladder.size()});
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      found = &w;
    }
  }
  if (found == nullptr) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  const Workload& w = *found;
  std::filesystem::create_directories(args.work);
  const double scale = args.seconds / kNominalSeconds;

  // Fixture snapshots at the paper's d = 10240 (deterministic bytes); the
  // text one serves only the traced run's text pass.
  const std::string beijing_snapshot = args.work + "/pipeline_beijing.hdcs";
  const std::string text_snapshot = args.work + "/pipeline_text.hdcs";
  for (const auto& [pipeline, path] :
       {std::pair<std::string, std::string>{"beijing", beijing_snapshot},
        {"text", text_snapshot}}) {
    Child child = spawn({args.hdcgen, "snap", "--pipeline", pipeline, "--dim",
                         "10240", "--out", path},
                        "/dev/null", false);
    (void)read_all(child.out);
    if (!wait_child(child).ok()) {
      throw std::runtime_error("hdcgen snap --pipeline " + pipeline +
                               " failed");
    }
  }
  // The traced run's socket phase always has the socket workload's flags.
  const Workload& served = args.trace ? kSocketAdapt : w;
  const Corpus corpus = make_beijing_corpus(args.seed, kCorpusRows);
  const Oracle oracle = make_oracle(beijing_snapshot, corpus, served.head, 4);
  std::printf("workload %s seed %llu: %zu Beijing rows\n", w.name,
              static_cast<unsigned long long>(args.seed),
              corpus.pool.size());

  Totals totals;
  std::vector<Metric> metrics;
  if (!args.trace) {
    const StdinCorpus input = write_stdin_corpus(args, corpus, oracle);
    std::vector<double> rate_samples;
    std::vector<double> setup_samples;
    Ladder ladder;
    if (w.socket) {
      // Passes before and after the open loop: a slow spell of the host
      // then covers fewer of the samples each median takes.
      const double half = kSocketPassSeconds * scale / 2.0;
      measure_throughput(args, w, beijing_snapshot, input, half, rate_samples,
                         setup_samples, totals);
      ladder = run_ladder(args, beijing_snapshot, corpus, oracle, true, scale,
                          totals);
      measure_throughput(args, w, beijing_snapshot, input, half, rate_samples,
                         setup_samples, totals);
    } else {
      totals.max_rss_kb =
          stdin_peak_rss_kb(args, w, beijing_snapshot, input, totals);
      measure_throughput(args, w, beijing_snapshot, input,
                         kStdinPassSeconds * scale, rate_samples,
                         setup_samples, totals);
    }
    metrics = {
        // The fast tail of the passes: other work on a shared host only
        // ever slows a pass, and its spells move the median far more.
        {"rows_per_s", quantile(rate_samples, 0.9), "rows/s",
         rate_samples.size()},
        {"setup_s", median(setup_samples), "s", setup_samples.size()},
        {"peak_rss_mb", static_cast<double>(totals.max_rss_kb) / 1024.0, "MB",
         1},
    };
    if (w.socket) {
      add_latency_metrics(ladder, metrics);
    }
  } else {
    const Ladder ladder = run_ladder(args, beijing_snapshot, corpus, oracle,
                                     false, scale, totals);
    LayerConfig config;
    config.seed = args.seed;
    config.threads = kThreads;
    config.batch = kBatch;
    config.head = w.head;
    config.beijing_snapshot = beijing_snapshot;
    config.text_snapshot = text_snapshot;
    config.trace_path = args.work + "/trace-" + w.name + "-" +
                        std::to_string(args.seed) + ".json";
    metrics = run_layers(config, totals.attempted, totals.failed);
    const char* names[3] = {"low", "mid", "high"};
    for (std::size_t i = 0; i < 3; ++i) {
      const StepResult& step = ladder[i];
      metrics.push_back({std::string("serve.batch_fill.") + names[i],
                         step.batch_fill, "ratio", step.sent});
      metrics.push_back({std::string("driver.late_us_p99.") + names[i],
                         step.late_p99_us, "us", step.late_us.size()});
    }
  }
  print_result(totals, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 2;
  }
}
