// Self-test of the benchmark's own checks, against a scripted in-process
// peer instead of `hdcgen serve`:
//  * one deliberately corrupted reply must count as exactly one failed row;
//  * a stdin reply stream with a corrupted or missing line must count it;
//  * a driver that is artificially delayed, throughout or in two short
//    stalls, must show in driver.late_us_p99 and mark its step invalid,
//    while an undelayed one stays valid.
// Exits 0 when every check holds.

#include <sys/socket.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "bench.hpp"

namespace perfbench {
namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  failures += ok ? 0 : 1;
}

/// Answers each line on \p fd with the next scripted reply (`!stats` gets a
/// stats line), replacing reply number \p corrupt (if any) by garbage.
void scripted_peer(int fd, std::vector<std::string> replies,
                   std::size_t corrupt) {
  std::string inbox;
  std::size_t next = 0;
  char buffer[4096];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) {
      break;
    }
    inbox.append(buffer, static_cast<std::size_t>(got));
    std::size_t newline;
    std::string out;
    while ((newline = inbox.find('\n')) != std::string::npos) {
      const std::string line = inbox.substr(0, newline);
      inbox.erase(0, newline + 1);
      if (line == "!stats") {
        out += "!ok rows=" + std::to_string(next) + " batches=1 generation=0\n";
      } else if (next < replies.size()) {
        out += next == corrupt ? std::string("garbage\n") : replies[next];
        ++next;
      }
    }
    if (!out.empty() &&
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL) < 0) {
      break;
    }
  }
  ::close(fd);
}

StepResult drive(const DriverStep& step, std::size_t corrupt,
                 std::int64_t stall_ns, std::size_t stall_every = 1000) {
  int reads[2];
  int feedback[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, reads) != 0 ||
      ::socketpair(AF_UNIX, SOCK_STREAM, 0, feedback) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  std::vector<std::string> reads_replies;
  for (const Event& event : step.events) {
    if (event.kind == EventKind::Read) {
      reads_replies.push_back((*step.read_replies)[event.sample]);
    }
  }
  const std::vector<std::string>& feedback_replies = step.feedback.replies;
  std::thread reads_peer(scripted_peer, reads[1], reads_replies, corrupt);
  std::thread feedback_peer(scripted_peer, feedback[1], feedback_replies,
                            static_cast<std::size_t>(-1));
  const StepResult result =
      run_step(reads[0], feedback[0], step, 2'000'000'000, stall_ns,
               stall_every);
  ::shutdown(reads[0], SHUT_RDWR);
  ::shutdown(feedback[0], SHUT_RDWR);
  reads_peer.join();
  feedback_peer.join();
  ::close(reads[0]);
  ::close(feedback[0]);
  return result;
}

/// A scripted 2 s step at 20k rows/s over a pool of 1000 samples: long
/// enough that a few milliseconds of host preemption stay under 1 % of
/// its sends.
struct Script {
  std::vector<std::string> lines;
  std::vector<std::string> replies;
  DriverStep step;
};

void make_script(Script& script) {
  for (std::size_t k = 0; k < 1000; ++k) {
    script.lines.push_back("row " + std::to_string(k) + "\n");
    script.replies.push_back("reply " + std::to_string(k) + "\n");
  }
  DriverStep& step = script.step;
  step.spec = {"selftest", 20000.0, 2.0, 1000.0};
  step.events = make_schedule(7, step.spec, 0.5, script.lines.size());
  step.read_lines = &script.lines;
  step.read_replies = &script.replies;
  for (std::size_t i = 0; i < step.events.size(); ++i) {
    if (step.events[i].kind != EventKind::Read) {
      step.feedback.lines.push_back("feedback " + std::to_string(i) + "\n");
      step.feedback.replies.push_back("ack " + std::to_string(i) + "\n");
    }
  }
}

int run() {
  Script script;
  make_script(script);
  const DriverStep& step = script.step;

  const StepResult clean = drive(step, static_cast<std::size_t>(-1), 0);
  check(clean.failed == 0 && clean.answered == clean.sent && clean.sent > 0,
        "clean replies: " + std::to_string(clean.answered) + "/" +
            std::to_string(clean.sent) + " answered, 0 failed");
  check(clean.driver_valid,
        "undelayed driver is valid (late p99 " + number(clean.late_p99_us) +
            " us)");

  const StepResult corrupted = drive(step, 17, 0);
  check(corrupted.failed == 1 && corrupted.answered + 1 == corrupted.sent,
        "one corrupted reply counts as one failed row (failed=" +
            std::to_string(corrupted.failed) + ")");

  const StepResult delayed = drive(step, static_cast<std::size_t>(-1),
                                   5'000'000);
  check(delayed.late_p99_us > kMaxDriverLateUs && !delayed.driver_valid,
        "a driver stalled 5 ms per 1000 lines shows in driver.late_us_p99 (" +
            number(delayed.late_p99_us) + " us) and is invalid");

  // Two stalls in a 2 s step leave most of it on time; the p99 over all
  // sends must still see them.
  const StepResult stalled_twice = drive(step, static_cast<std::size_t>(-1),
                                         30'000'000, 15000);
  check(stalled_twice.late_p99_us > kMaxDriverLateUs &&
            !stalled_twice.driver_valid,
        "a driver stalled 30 ms twice in the step shows in "
        "driver.late_us_p99 (" +
            number(stalled_twice.late_p99_us) + " us) and is invalid");

  check(count_mismatched_lines("1\n2\n3\n", "1\n2\n3\n") == 0,
        "identical stdin output has no failed rows");
  check(count_mismatched_lines("1\nX\n3\n", "1\n2\n3\n") == 1,
        "one corrupted stdin line is one failed row");
  check(count_mismatched_lines("1\n2\n", "1\n2\n3\n") == 1,
        "one missing stdin line is one failed row");
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main() {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return perfbench::run();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_selftest: %s\n", error.what());
    return 2;
  }
}
