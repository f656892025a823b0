// The open-loop socket driver: one thread, two connections.  Every line is
// sent when it is due whatever the replies; every reply is timed from its
// line's due time, so a server stall also charges the rows queued behind
// it.

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <algorithm>
#include <deque>
#include <limits>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

constexpr int kStatsReply = -1;

/// An outstanding reply: its event (or kStatsReply) and the line it must be.
struct Pending {
  int index = kStatsReply;
  const std::string* expected = nullptr;
};

struct Conn {
  int fd = -1;
  bool open = true;
  std::string outbox;
  std::size_t sent_bytes = 0;
  std::deque<Pending> pending;
  std::string inbox;
};

void flush_outbox(Conn& conn) {
  while (conn.open && conn.sent_bytes < conn.outbox.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbox.data() + conn.sent_bytes,
               conn.outbox.size() - conn.sent_bytes,
               MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      conn.sent_bytes += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      conn.open = false;
    }
  }
  if (conn.sent_bytes == conn.outbox.size()) {
    conn.outbox.clear();
    conn.sent_bytes = 0;
  }
}

std::uint64_t field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  return at == std::string::npos
             ? 0
             : std::stoull(line.substr(at + key.size() + 2));
}

void summarize(StepResult& step) {
  step.p50_us = calm_median(step.p50_windows);
  step.p99_us = quantile(step.read_us, 0.99);
  step.adapt_p99_us = quantile(step.adapt_us, 0.99);
  step.late_p99_us = quantile(step.late_us, 0.99);
  step.driver_valid = step.late_p99_us <= kMaxDriverLateUs;
}

}  // namespace

void merge_step(StepResult& into, const StepResult& more) {
  into.seconds += more.seconds;
  into.sent += more.sent;
  into.answered += more.answered;
  into.failed += more.failed;
  into.feedback_sent += more.feedback_sent;
  into.adapts += more.adapts;
  into.backlog_growth = std::max(into.backlog_growth, more.backlog_growth);
  for (auto [to, from] : {std::pair{&into.read_us, &more.read_us},
                          {&into.adapt_us, &more.adapt_us},
                          {&into.late_us, &more.late_us}}) {
    to->insert(to->end(), from->begin(), from->end());
  }
  into.p50_windows.insert(into.p50_windows.end(), more.p50_windows.begin(),
                          more.p50_windows.end());
  summarize(into);
}

std::string control(int fd, const std::string& line, int timeout_ms) {
  if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(line.size())) {
    return {};
  }
  std::string reply;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  char c;
  while (now_ns() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 10) <= 0) {
      continue;
    }
    const ssize_t got = ::recv(fd, &c, 1, MSG_DONTWAIT);
    if (got == 0 || (got < 0 && errno != EAGAIN && errno != EINTR)) {
      return {};
    }
    if (got == 1) {
      if (c == '\n') {
        return reply;
      }
      reply.push_back(c);
    }
  }
  return {};
}

StepResult run_step(int reads_fd, int feedback_fd, const DriverStep& step,
                    std::int64_t drain_timeout_ns,
                    std::int64_t stall_ns, std::size_t stall_every) {
  constexpr double missing = std::numeric_limits<double>::infinity();
  StepResult result;
  result.name = step.spec.name;
  result.rate = step.spec.rate;
  result.seconds = step.spec.seconds;
  Conn conns[2];
  conns[0].fd = reads_fd;
  conns[1].fd = feedback_fd;

  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::size_t n = step.events.size();
  std::vector<Timed> read_us;
  std::vector<double>& adapt_us = result.adapt_us;
  std::vector<double>& late_us = result.late_us;
  read_us.reserve(n);
  late_us.reserve(n);
  std::size_t feedback_next = 0;
  const std::int64_t length_ns =
      static_cast<std::int64_t>(step.spec.seconds * 1e9);
  // A short lead so the first rows are not late by the set-up above.
  const std::int64_t t0 = now_ns() + 1000000;
  const std::int64_t quarter = t0 + length_ns / 4;
  // Host steal, sampled every 10 ms, ranks the windows (calm_median).
  constexpr std::int64_t steal_period_ns = 10000000;
  StealTimeline steal{{now_ns() - t0, host_steal_ticks()}};
  std::size_t next = 0;
  std::size_t reads_replied = 0;
  double outstanding_at_quarter = -1.0;
  bool backlog_taken = false;
  bool stats_sent = false;
  bool stats_done = false;
  std::uint64_t stats_rows = 0;
  std::uint64_t stats_batches = 0;

  const auto handle_line = [&](Conn& conn, const std::string& line,
                               std::int64_t at) {
    if (conn.pending.empty()) {
      ++result.failed;  // An unsolicited line.
      return;
    }
    const Pending pending = conn.pending.front();
    conn.pending.pop_front();
    if (pending.index == kStatsReply) {
      stats_rows = field(line, "rows");
      stats_batches = field(line, "batches");
      stats_done = true;
      return;
    }
    const Event& event = step.events[static_cast<std::size_t>(pending.index)];
    const std::string& expected = *pending.expected;
    const bool ok = line.size() + 1 == expected.size() &&
                    expected.compare(0, line.size(), line) == 0;
    const double latency_us =
        ok ? static_cast<double>(at - (t0 + event.due_ns)) / 1e3 : missing;
    if (!ok) {
      ++result.failed;
    }
    if (event.kind == EventKind::Read) {
      ++reads_replied;
      result.answered += ok ? 1 : 0;
      read_us.push_back({event.due_ns, latency_us});
    } else if (event.kind == EventKind::Adapt) {
      adapt_us.push_back(latency_us);
    }
  };

  const auto receive = [&](Conn& conn) {
    char buffer[1 << 16];
    while (conn.open) {
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (got < 0 && errno == EINTR) {
        continue;
      }
      if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (got <= 0) {
        conn.open = false;
        return;
      }
      const std::int64_t at = now_ns();
      conn.inbox.append(buffer, static_cast<std::size_t>(got));
      std::size_t begin = 0;
      std::size_t newline;
      while ((newline = conn.inbox.find('\n', begin)) != std::string::npos) {
        handle_line(conn, conn.inbox.substr(begin, newline - begin), at);
        begin = newline + 1;
      }
      conn.inbox.erase(0, begin);
    }
  };

  while (true) {
    std::int64_t now = now_ns();
    while (next < n && t0 + step.events[next].due_ns <= now) {
      const Event& event = step.events[next];
      const bool read = event.kind == EventKind::Read;
      Conn& conn = conns[read ? 0 : 1];
      if (read) {
        conn.outbox += (*step.read_lines)[event.sample];
        conn.pending.push_back(
            {static_cast<int>(next), &(*step.read_replies)[event.sample]});
      } else {
        conn.outbox += step.feedback.lines[feedback_next];
        conn.pending.push_back({static_cast<int>(next),
                                &step.feedback.replies[feedback_next]});
        ++feedback_next;
      }
      late_us.push_back(static_cast<double>(now - (t0 + event.due_ns)) / 1e3);
      if (event.kind == EventKind::Read) {
        ++result.sent;
      } else {
        ++result.feedback_sent;
        result.adapts += event.kind == EventKind::Adapt ? 1 : 0;
      }
      ++next;
      if (stall_ns > 0 && next % stall_every == 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
        now = now_ns();
      }
    }
    for (Conn& conn : conns) {
      flush_outbox(conn);
      receive(conn);
    }
    now = now_ns();
    if (now - t0 >= steal.back().first + steal_period_ns) {
      steal.emplace_back(now - t0, host_steal_ticks());
      now = now_ns();
    }
    if (outstanding_at_quarter < 0.0 && now >= quarter) {
      outstanding_at_quarter =
          static_cast<double>(result.sent - reads_replied);
    }
    if (next == n) {
      if (!backlog_taken && outstanding_at_quarter >= 0.0) {
        backlog_taken = true;
        result.backlog_growth =
            static_cast<double>(result.sent - reads_replied) -
            outstanding_at_quarter;
      }
      const bool data_done =
          conns[0].pending.empty() && conns[1].pending.empty();
      if (data_done && !stats_sent && conns[0].open) {
        conns[0].outbox += "!stats\n";
        conns[0].pending.push_back({});
        stats_sent = true;
        continue;
      }
      if ((data_done && stats_done) || (!conns[0].open && !conns[1].open) ||
          now > t0 + length_ns + drain_timeout_ns) {
        break;
      }
    }
    // Wait for the next line's due time or a reply.  A driver that owns
    // its CPU spins: timed sleeps on this class of host overshoot by up to
    // milliseconds.  One that shares its CPUs with the server sleeps (with
    // no timer slack) until just before the line is due, so the scheduler
    // runs it promptly as a waking thread instead of preempting it.
    const std::int64_t spin_ns = step.own_cpu ? 10000000 : 100000;
    std::int64_t wait_ns = 10000000;
    if (next < n) {
      wait_ns = t0 + step.events[next].due_ns - now - spin_ns / 2;
      if (wait_ns < spin_ns / 2) {
        continue;
      }
    }
    pollfd fds[2];
    nfds_t count = 0;
    for (Conn& conn : conns) {
      if (conn.open) {
        fds[count++] = {conn.fd,
                        static_cast<short>(POLLIN | (conn.outbox.empty()
                                                         ? 0
                                                         : POLLOUT)),
                        0};
      }
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    ::ppoll(fds, count, &timeout, nullptr);
  }

  // Whatever never got a reply failed (and missed every latency limit).
  for (Conn& conn : conns) {
    for (const Pending& pending : conn.pending) {
      if (pending.index == kStatsReply) {
        continue;
      }
      ++result.failed;
      const Event& event = step.events[static_cast<std::size_t>(pending.index)];
      if (event.kind == EventKind::Read) {
        read_us.push_back({event.due_ns, missing});
      } else if (event.kind == EventKind::Adapt) {
        adapt_us.push_back(missing);
      }
    }
  }
  steal.emplace_back(now_ns() - t0, host_steal_ticks());
  // At least 1000 rows per p50 window.
  result.p50_windows =
      windowed_quantiles(read_us, length_ns, 0.5, 1000, 20, steal);
  for (const Timed& sample : read_us) {
    result.read_us.push_back(sample.us);
  }
  summarize(result);
  result.stats_rows = stats_rows;
  result.stats_batches = stats_batches;
  return result;
}

}  // namespace perfbench
