#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

/// \file bench.hpp
/// \brief Shared pieces of the `hdcgen serve` benchmark harness: seeded
/// inputs, the per-row oracle, child-process control, the open-loop socket
/// driver and small statistics helpers.

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
[[nodiscard]] std::int64_t now_ns();

// ---------------------------------------------------------------- stats

/// Median of \p values (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile q in [0, 1] of \p values (0 when empty).
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// One latency sample and when its line was due (relative to its step).
struct Timed {
  std::int64_t due_ns = 0;
  double us = 0.0;
};

/// The host's cumulative steal time (the "cpu" line of /proc/stat, in
/// clock ticks): time the hypervisor ran something else while this
/// machine's CPUs had work.  0 where the kernel does not report it.
[[nodiscard]] std::int64_t host_steal_ticks();

/// Steal-tick samples taken during one step: (ns since the step's start,
/// host_steal_ticks()).
using StealTimeline = std::vector<std::pair<std::int64_t, std::int64_t>>;

/// One measured figure and the host steal rate (ticks/s) while it was
/// measured.
struct Window {
  double figure = 0.0;
  double steal = 0.0;
};

/// The q-quantile of each non-empty one of consecutive equal windows of a
/// \p length_ns schedule, with the steal rate \p steal saw over it.  The
/// window count is the largest (at most \p max_windows) that leaves every
/// window \p min_per_window samples on average.
[[nodiscard]] std::vector<Window> windowed_quantiles(
    const std::vector<Timed>& samples, std::int64_t length_ns, double q,
    std::size_t min_per_window, std::size_t max_windows,
    const StealTimeline& steal);

/// The median figure of the calmer half of \p windows: those during which
/// the hypervisor stole no more CPU time than in the median window.  A slow
/// spell of a shared host then moves few of the figures the median takes;
/// on a host that steals nothing this is the plain median.
[[nodiscard]] double calm_median(std::vector<Window> windows);

/// Shortest round-trip decimal form of \p value (JSON-safe for finite
/// values).
[[nodiscard]] std::string number(double value);

// --------------------------------------------------------------- inputs

/// One generated sample: the wire line, its parsed features (numeric
/// pipelines) and the feedback target the workload attaches to it.
struct Sample {
  std::string line;
  std::vector<double> features;
  double target = 0.0;
};

/// A pool of distinct samples; traffic refers to samples by pool index.
struct Corpus {
  bool text = false;
  std::vector<Sample> pool;
};

/// The fixture's noise-free seasonal-diurnal temperature formula (the
/// curve `hdcgen snap --pipeline beijing` trains on).
[[nodiscard]] double seasonal_target(double year, double day, double hour);

/// \p rows distinct Beijing rows (year in [0, 4], day in [0, 366), hour in
/// [0, 24)); one in ten sits within one unit of a wrap or range edge.
[[nodiscard]] Corpus make_beijing_corpus(std::uint64_t seed,
                                         std::size_t rows);

/// \p pool_size distinct 3-7 word lines over the text fixture's three
/// pseudo-language vocabularies; each line picks a language (its target)
/// and draws one word in ten from another language.
[[nodiscard]] Corpus make_text_corpus(std::uint64_t seed,
                                      std::size_t pool_size);

/// What one scheduled socket line is.
enum class EventKind : std::uint8_t {
  Read,      ///< Data row on the `reads` connection (base model).
  Feedback,  ///< Data row on the `feedback` connection.
  Adapt,     ///< `!adapt T ROW` on the `feedback` connection.
};

/// One scheduled line: due time relative to its step's start.
struct Event {
  std::int64_t due_ns = 0;
  EventKind kind = EventKind::Read;
  std::uint32_t sample = 0;
};

/// One fixed arrival-rate step of the open-loop schedule.
struct StepSpec {
  std::string name;
  double rate = 0.0;           ///< reads rows/s (Poisson arrivals).
  double seconds = 0.0;        ///< schedule length.
  double feedback_rate = 0.0;  ///< feedback lines/s (Poisson arrivals).
};

/// Poisson arrivals for both connections over one step, merged in due
/// order; samples are drawn from [0, pool_size) by the seed.
[[nodiscard]] std::vector<Event> make_schedule(std::uint64_t seed,
                                               const StepSpec& step,
                                               double adapt_share,
                                               std::size_t pool_size);

// --------------------------------------------------------------- oracle

/// Expected reply bytes, computed from per-row calls on the public API.
struct Oracle {
  /// Base-model reply line (with '\n') per pool sample.
  std::vector<std::string> base;
};

/// Per-row `Pipeline` calls over every pool sample, on \p threads threads.
/// \p head adds the p10/p50/p90 band columns (regressors only).
[[nodiscard]] Oracle make_oracle(const std::string& snapshot,
                                 const Corpus& corpus, bool head,
                                 std::size_t threads);

/// The `feedback` connection's traffic for one step: its lines and the
/// replies they must get, in schedule order.
struct FeedbackTraffic {
  std::vector<std::string> lines;
  std::vector<std::string> replies;
};

/// An in-order `AdaptiveState` replay of the feedback connection (which
/// sent `!use adapted`) across the steps of one server's life: `feedback`
/// rows get the adapted prediction, `!adapt` lines the outcome reply.
class FeedbackReplay {
 public:
  /// \p generation is what the `!adapt` replies carry.
  FeedbackReplay(const std::string& snapshot, const Corpus& corpus, bool head,
                 std::uint64_t generation);
  ~FeedbackReplay();
  FeedbackReplay(const FeedbackReplay&) = delete;
  FeedbackReplay& operator=(const FeedbackReplay&) = delete;

  /// The next step's feedback traffic (its Feedback and Adapt events).
  [[nodiscard]] FeedbackTraffic step(const std::vector<Event>& events);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

// -------------------------------------------------------------- process

/// CPU placement for a measurement: the serve processes get every allowed
/// CPU but the last, and the measuring thread gets the last one alone, so
/// the driver never competes with the server for a core.  Disabled (no
/// pinning) when fewer than three CPUs are allowed.
struct CpuSplit {
  bool enabled = false;
  cpu_set_t all{};
  cpu_set_t server{};
  cpu_set_t harness{};
};
[[nodiscard]] CpuSplit split_cpus();

/// Pins the calling thread to \p set (no-op when the split is disabled).
void pin(const CpuSplit& split, const cpu_set_t& set);

/// A spawned child with optional pipes to its stdin/stdout/stderr.
struct Child {
  pid_t pid = -1;
  int in = -1;   ///< write end of the child's stdin pipe, or -1.
  int out = -1;  ///< read end of the child's stdout pipe, or -1.
  int err = -1;  ///< read end of the child's stderr pipe, or -1.
};

/// Spawns \p argv.  \p stdin_path: a file for stdin ("" = a pipe).
/// stdout is always a pipe; stderr is a pipe when \p pipe_err, else
/// /dev/null.  With \p split enabled the child runs on its server CPUs.
/// \throws std::runtime_error when the spawn fails.
[[nodiscard]] Child spawn(const std::vector<std::string>& argv,
                          const std::string& stdin_path, bool pipe_err,
                          const CpuSplit* split = nullptr);

/// A reaped child's exit status.
struct ExitInfo {
  int status = 0;
  [[nodiscard]] bool ok() const;
};
ExitInfo wait_child(Child& child);

/// The peak resident sets (VmHWM) of \p pid and its live descendants so
/// far, summed, in KiB (0 when /proc cannot tell).  Pages the processes
/// share, such as a forked rank's copy-on-write pages or the mapped
/// snapshot, count once per process.
[[nodiscard]] long tree_peak_rss_kb(pid_t pid);

/// Reads \p fd to end of file.
[[nodiscard]] std::string read_all(int fd);

/// Reads \p fd until a line starting with \p prefix arrives (or EOF /
/// timeout); returns the line without its newline, or "".
[[nodiscard]] std::string read_line_with(int fd, const std::string& prefix,
                                         int timeout_ms);

/// Connects to 127.0.0.1:\p port.  \throws std::runtime_error.
[[nodiscard]] int connect_local(int port);

/// Number of reply lines that differ from \p expected, counting missing
/// and extra lines.
[[nodiscard]] std::size_t count_mismatched_lines(const std::string& got,
                                                 const std::string& expected);

// --------------------------------------------------------------- driver

/// One step's traffic for the driver.  A `reads` event sends
/// read_lines[sample] and must get read_replies[sample]; the `feedback`
/// events take their lines and replies from \p feedback in order.
struct DriverStep {
  StepSpec spec;
  std::vector<Event> events;  ///< both connections, due order.
  const std::vector<std::string>* read_lines = nullptr;
  const std::vector<std::string>* read_replies = nullptr;
  FeedbackTraffic feedback;
  bool own_cpu = false;  ///< the driver runs alone on its CPU.
};

/// What the driver measured on one step.
struct StepResult {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;      ///< schedule length.
  std::size_t sent = 0;      ///< data rows sent on `reads`.
  std::size_t answered = 0;  ///< correct replies on `reads`.
  std::size_t failed = 0;    ///< wrong, `!error` or missing, all lines.
  std::size_t feedback_sent = 0;  ///< lines sent on `feedback`.
  std::size_t adapts = 0;         ///< `!adapt` lines among them.
  /// Every latency of the step, in us: `reads` and `!adapt` replies from
  /// their lines' due times (a failed line is +inf), and the driver's own
  /// lateness (send time minus due time) of every line it sent.
  std::vector<double> read_us;
  std::vector<double> adapt_us;
  std::vector<double> late_us;
  /// Per-window `reads` p50s (windowed_quantiles) and their calm median.
  std::vector<Window> p50_windows;
  double p50_us = 0.0;
  /// p99s over all of the step's lines.
  double p99_us = 0.0;
  double adapt_p99_us = 0.0;
  double late_p99_us = 0.0;
  double backlog_growth = 0.0;  ///< outstanding reads, end minus 1/4 mark.
  std::uint64_t stats_rows = 0;     ///< server-wide `!stats` rows after.
  std::uint64_t stats_batches = 0;  ///< server-wide `!stats` batches after.
  double batch_fill = 0.0;  ///< step's rows / (batches * batch size).
  bool driver_valid = true;     ///< false when the driver itself ran late.
};

/// Folds \p more (another run of the same step) into \p into: counts add,
/// samples and windows pool, and the figures and validity are recomputed.
void merge_step(StepResult& into, const StepResult& more);

/// Sends one control line on a connected socket and returns its reply line
/// (without newline), or "" on timeout / a closed peer.
[[nodiscard]] std::string control(int fd, const std::string& line,
                                  int timeout_ms);

/// A p99 of the driver's lateness over all of a step's sends above this
/// marks the step invalid: the generator, not the server, would then set
/// the measured latency.
inline constexpr double kMaxDriverLateUs = 1000.0;

/// The open-loop driver over two connected sockets (`reads`, `feedback`).
/// Sends every line on schedule whatever the replies, times each reply from
/// its line's due time, checks it against the expected reply, and reads
/// `!stats` on `reads` after the step.  \p stall_ns > 0 makes the driver
/// sleep that long after every \p stall_every lines (the self-test's
/// injected delay).
[[nodiscard]] StepResult run_step(int reads_fd, int feedback_fd,
                                  const DriverStep& step,
                                  std::int64_t drain_timeout_ns,
                                  std::int64_t stall_ns = 0,
                                  std::size_t stall_every = 1000);

// ---------------------------------------------------------------- trace

/// One recorded span: a timed call at a layer boundary.  Spans of one batch
/// share \p group; \p parent is the enclosing span's id (0 at the root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::uint64_t group = 0;
  std::uint32_t rows = 0;
};

/// In-memory span recorder for single-threaded call sites; dumped once at
/// the end of a run.  A disabled tracer records nothing.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 16);
    }
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::uint32_t begin(const char* name, std::uint64_t group,
                                    std::uint32_t rows);
  void end(std::uint32_t id);
  /// Sets the row count of an open span (known only once its work ran).
  void set_rows(std::uint32_t id, std::uint32_t rows);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Per-name totals: calls, rows, wall time, self time (the span minus
  /// the time its child spans cover) and the median call.
  struct Layer {
    std::string name;
    std::size_t calls = 0;
    std::size_t rows = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
    double median_ns = 0.0;  ///< median span duration.
  };
  [[nodiscard]] std::vector<Layer> layers() const;
  [[nodiscard]] Layer layer(const std::string& name) const;

  /// Writes every span as JSON to \p path.
  void dump(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the enclosing spans.
};

/// RAII span around one call.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t group = 0,
             std::uint32_t rows = 1)
      : tracer_(tracer), id_(tracer.begin(name, group, rows)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  void set_rows(std::uint32_t rows) { tracer_.set_rows(id_, rows); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_HPP
