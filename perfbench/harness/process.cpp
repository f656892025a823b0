// Child-process control for driving the real `hdcgen serve` binary.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void make_pipe(int fds[2]) {
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    fail("pipe");
  }
}

}  // namespace

CpuSplit split_cpus() {
  CpuSplit split;
  if (::sched_getaffinity(0, sizeof(split.all), &split.all) != 0 ||
      CPU_COUNT(&split.all) < 3) {
    return split;
  }
  split.enabled = true;
  split.server = split.all;
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &split.all)) {
      last = cpu;
    }
  }
  CPU_CLR(last, &split.server);
  CPU_ZERO(&split.harness);
  CPU_SET(last, &split.harness);
  return split;
}

void pin(const CpuSplit& split, const cpu_set_t& set) {
  if (split.enabled && ::sched_setaffinity(0, sizeof(set), &set) != 0) {
    fail("sched_setaffinity");
  }
}

Child spawn(const std::vector<std::string>& argv,
            const std::string& stdin_path, bool pipe_err,
            const CpuSplit* split) {
  int in_pipe[2] = {-1, -1};
  int out_pipe[2] = {-1, -1};
  int err_pipe[2] = {-1, -1};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (stdin_path.empty()) {
    make_pipe(in_pipe);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  } else {
    posix_spawn_file_actions_addopen(&actions, 0, stdin_path.c_str(),
                                     O_RDONLY, 0);
  }
  make_pipe(out_pipe);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  if (pipe_err) {
    make_pipe(err_pipe);
    posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);
  } else {
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  // The child inherits the spawning thread's CPU affinity.
  cpu_set_t mine;
  const bool place = split != nullptr && split->enabled &&
                     ::sched_getaffinity(0, sizeof(mine), &mine) == 0;
  if (place) {
    pin(*split, split->server);
  }
  Child child;
  const int rc = ::posix_spawn(&child.pid, args[0], &actions, nullptr,
                               args.data(), environ);
  if (place) {
    pin(*split, mine);
  }
  posix_spawn_file_actions_destroy(&actions);
  for (const int fd : {in_pipe[0], out_pipe[1], err_pipe[1]}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  if (rc != 0) {
    errno = rc;
    fail("spawn " + argv[0]);
  }
  child.in = in_pipe[1];
  child.out = out_pipe[0];
  child.err = err_pipe[0];
  return child;
}

bool ExitInfo::ok() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

ExitInfo wait_child(Child& child) {
  for (int* fd : {&child.in, &child.out, &child.err}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  ExitInfo info;
  while (::waitpid(child.pid, &info.status, 0) < 0) {
    if (errno != EINTR) {
      fail("waitpid");
    }
  }
  child.pid = -1;
  return info;
}

long tree_peak_rss_kb(pid_t pid) {
  long peak = 0;
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      peak += std::stol(line.substr(6));
    }
  }
  const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
    std::ifstream children(task.path() / "children");
    pid_t child = 0;
    while (children >> child) {
      peak += tree_peak_rss_kb(child);
    }
  }
  return peak;
}

std::string read_all(int fd) {
  std::string out;
  char buffer[1 << 16];
  while (true) {
    const ssize_t got = ::read(fd, buffer, sizeof(buffer));
    if (got > 0) {
      out.append(buffer, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      return out;
    }
  }
}

std::string read_line_with(int fd, const std::string& prefix,
                           int timeout_ms) {
  std::string buffer;
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1000000;
  while (true) {
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.rfind(prefix, 0) == 0) {
        return line;
      }
    }
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms <= 0) {
      return {};
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left_ms)) <= 0) {
      continue;
    }
    // One byte at a time: nothing past the wanted line may be consumed.
    char c;
    const ssize_t got = ::read(fd, &c, 1);
    if (got == 0 || (got < 0 && errno != EINTR)) {
      return {};
    }
    if (got == 1) {
      buffer.push_back(c);
    }
  }
}

int connect_local(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    fail("socket");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    fail("connect 127.0.0.1:" + std::to_string(port));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::size_t count_mismatched_lines(const std::string& got,
                                   const std::string& expected) {
  if (got == expected) {
    return 0;
  }
  std::size_t mismatched = 0;
  std::size_t g = 0;
  std::size_t e = 0;
  while (g < got.size() || e < expected.size()) {
    const std::size_t g_end = std::min(got.find('\n', g), got.size());
    const std::size_t e_end = std::min(expected.find('\n', e), expected.size());
    const bool have_g = g < got.size();
    const bool have_e = e < expected.size();
    if (!have_g || !have_e ||
        got.compare(g, g_end - g, expected, e, e_end - e) != 0) {
      ++mismatched;
    }
    g = have_g ? g_end + 1 : g;
    e = have_e ? e_end + 1 : e;
  }
  return mismatched;
}

}  // namespace perfbench
