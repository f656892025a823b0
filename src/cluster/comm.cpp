#include "hdc/cluster/comm.hpp"

#include <cerrno>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#if !defined(_WIN32)
#include <csignal>
#include <ctime>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace hdc::cluster {

namespace {

/// Upper bound on one frame payload; a torn length prefix must not turn
/// into a multi-terabyte allocation.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 32;

}  // namespace

Worker::Config worker_config(const Worker::Config& base, std::size_t rank,
                             std::size_t replicas) {
  Worker::Config cfg = base;
  cfg.rank = rank;
  cfg.replicas = replicas;
  return cfg;
}

void Comm::barrier() {
  std::vector<std::string> requests(size(), encode_ping_request());
  const std::vector<std::string> responses = exchange(requests);
  for (std::size_t rank = 0; rank < responses.size(); ++rank) {
    const std::string& r = responses[rank];
    if (r.empty() || static_cast<std::uint8_t>(r[0]) != kWorkerOk) {
      throw ClusterError{"cluster rank " + std::to_string(rank) +
                         " failed barrier: " +
                         (r.size() > 1 ? r.substr(1) : "bad ping response")};
    }
    if (decode_ping_reply(r) != rank) {
      throw ClusterError{"cluster rank " + std::to_string(rank) +
                         " answered barrier with wrong rank"};
    }
  }
}

LoopbackComm::LoopbackComm(const Worker::Config& base, std::size_t replicas)
    : Comm(replicas) {
  if (replicas == 0) {
    throw std::invalid_argument{"cluster: replicas must be >= 1"};
  }
  workers_.reserve(replicas);
  for (std::size_t rank = 0; rank < replicas; ++rank) {
    workers_.push_back(
        std::make_unique<Worker>(worker_config(base, rank, replicas)));
  }
}

void LoopbackComm::scatter(const std::vector<std::string>& requests) {
  if (requests.size() != size()) {
    throw ClusterError{"cluster scatter: request count != size"};
  }
  pending_ = requests;
}

std::vector<std::string> LoopbackComm::gather() {
  std::vector<std::string> responses(size());
  for (std::size_t rank = 0; rank < size(); ++rank) {
    responses[rank] = workers_[rank]->handle(pending_[rank]);
  }
  pending_.clear();
  return responses;
}

#if !defined(_WIN32)

namespace {

[[nodiscard]] bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = send(fd, data, n, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

[[nodiscard]] bool read_all(int fd, char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t k = read(fd, data, n);
    if (k < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (k == 0) {
      return false;  // EOF: the peer is gone.
    }
    data += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

[[nodiscard]] bool write_frame(int fd, std::string_view payload) {
  std::uint64_t len = payload.size();
  char prefix[8];
  std::memcpy(prefix, &len, sizeof prefix);
  return write_all(fd, prefix, sizeof prefix) &&
         write_all(fd, payload.data(), payload.size());
}

[[nodiscard]] bool read_frame(int fd, std::string& out) {
  char prefix[8];
  if (!read_all(fd, prefix, sizeof prefix)) {
    return false;
  }
  std::uint64_t len = 0;
  std::memcpy(&len, prefix, sizeof len);
  if (len > kMaxFrameBytes) {
    return false;
  }
  out.resize(len);
  return len == 0 || read_all(fd, out.data(), len);
}

/// Body of a forked worker: answer frames until shutdown or the parent's
/// end closes.  Replies to the very first frame slot with a ready frame
/// (its ping reply) or an init-error frame, so the parent can fail
/// construction synchronously.
/// _exit() throughout — a forked child must never run the parent's atexit
/// handlers or flush its inherited stdio buffers.
[[noreturn]] void worker_child_main(int fd, Worker::Config cfg) {
  try {
    Worker worker{std::move(cfg)};
    if (!write_frame(fd, worker.handle(encode_ping_request()))) {
      _exit(3);
    }
    std::string request;
    while (read_frame(fd, request)) {
      const std::string response = worker.handle(request);
      if (!write_frame(fd, response)) {
        _exit(3);
      }
      if (worker.shutdown_requested()) {
        break;
      }
    }
    _exit(0);
  } catch (const std::exception& e) {
    std::string err(1, static_cast<char>(kWorkerErr));
    err.append(e.what());
    (void)write_frame(fd, err);
    _exit(2);
  } catch (...) {
    _exit(2);
  }
}

/// Reaps \p pid without blocking forever: polls waitpid for up to ~2 s.
/// Returns true with \p status filled if the child was reaped.
[[nodiscard]] bool try_reap(pid_t pid, int& status) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) {
      return true;
    }
    if (r < 0) {
      return false;  // Already reaped or not our child.
    }
    timespec delay{0, 10 * 1000 * 1000};
    nanosleep(&delay, nullptr);
  }
  return false;
}

[[nodiscard]] std::string exit_cause(int status) {
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    const char* name = strsignal(sig);
    return "killed by signal " + std::to_string(sig) + " (" +
           (name != nullptr ? name : "?") + ")";
  }
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "stopped abnormally";
}

}  // namespace

ForkComm::ForkComm(const Worker::Config& base, std::size_t replicas)
    : Comm(replicas) {
  if (replicas == 0) {
    throw std::invalid_argument{"cluster: replicas must be >= 1"};
  }
  remotes_.reserve(replicas - 1);
  try {
    // Fork ranks 1..P-1 first: the children must not inherit the rank-0
    // mapping (each maps the snapshot itself, sharing the page cache), and
    // this constructor must run before the process grows threads.
    for (std::size_t rank = 1; rank < replicas; ++rank) {
      int sv[2] = {-1, -1};
      if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        throw ClusterError{std::string{"cluster: socketpair failed: "} +
                           std::strerror(errno)};
      }
      const pid_t pid = fork();
      if (pid < 0) {
        const int err = errno;
        close(sv[0]);
        close(sv[1]);
        throw ClusterError{std::string{"cluster: fork failed: "} +
                           std::strerror(err)};
      }
      if (pid == 0) {
        close(sv[0]);
        for (const Remote& earlier : remotes_) {
          close(earlier.fd);
        }
        worker_child_main(sv[1], worker_config(base, rank, replicas));
      }
      close(sv[1]);
      remotes_.push_back(Remote{sv[0], pid});
    }
    local_ = std::make_unique<Worker>(worker_config(base, 0, replicas));
    // Collect every child's ready frame; an init failure arrives here as an
    // error frame (or as EOF if the child died outright).
    for (std::size_t i = 0; i < remotes_.size(); ++i) {
      std::string ready;
      if (!read_frame(remotes_[i].fd, ready) || ready.empty()) {
        throw rank_failure(i + 1, "startup");
      }
      if (static_cast<std::uint8_t>(ready[0]) != kWorkerOk) {
        throw ClusterError{"cluster rank " + std::to_string(i + 1) +
                           " failed to initialize: " + ready.substr(1)};
      }
    }
  } catch (...) {
    for (Remote& remote : remotes_) {
      if (remote.fd >= 0) {
        close(remote.fd);
      }
      if (remote.pid > 0) {
        kill(remote.pid, SIGKILL);
        int status = 0;
        (void)try_reap(remote.pid, status);
      }
    }
    remotes_.clear();
    throw;
  }
}

ForkComm::~ForkComm() {
  const std::string bye = encode_shutdown_request();
  for (Remote& remote : remotes_) {
    if (remote.fd >= 0) {
      (void)write_frame(remote.fd, bye);
      close(remote.fd);  // EOF unblocks the child's read loop either way.
      remote.fd = -1;
    }
  }
  for (Remote& remote : remotes_) {
    if (remote.pid <= 0) {
      continue;
    }
    int status = 0;
    if (!try_reap(remote.pid, status)) {
      kill(remote.pid, SIGKILL);
      (void)waitpid(remote.pid, &status, 0);
    }
    remote.pid = -1;
  }
}

std::vector<pid_t> ForkComm::worker_pids() const {
  std::vector<pid_t> pids;
  pids.reserve(remotes_.size());
  for (const Remote& remote : remotes_) {
    pids.push_back(remote.pid);
  }
  return pids;
}

ClusterError ForkComm::rank_failure(std::size_t rank, const char* during) {
  Remote& remote = remotes_[rank - 1];
  if (remote.fd >= 0) {
    close(remote.fd);
    remote.fd = -1;
  }
  std::string cause = "transport failed";
  if (remote.pid > 0) {
    int status = 0;
    if (try_reap(remote.pid, status)) {
      cause = exit_cause(status);
    }
    const pid_t pid = remote.pid;
    remote.pid = -1;
    return ClusterError{"cluster worker rank " + std::to_string(rank) +
                        " (pid " + std::to_string(pid) + ") died during " +
                        during + ": " + cause};
  }
  return ClusterError{"cluster worker rank " + std::to_string(rank) +
                      " unavailable during " + during + ": " + cause};
}

void ForkComm::scatter(const std::vector<std::string>& requests) {
  if (requests.size() != size()) {
    throw ClusterError{"cluster scatter: request count != size"};
  }
  if (inflight_) {
    throw ClusterError{"cluster scatter: previous gather still pending"};
  }
  for (std::size_t i = 0; i < remotes_.size(); ++i) {
    if (remotes_[i].fd < 0 || !write_frame(remotes_[i].fd, requests[i + 1])) {
      throw rank_failure(i + 1, "scatter");
    }
  }
  pending_local_ = requests[0];
  inflight_ = true;
}

std::vector<std::string> ForkComm::gather() {
  if (!inflight_) {
    throw ClusterError{"cluster gather: no scatter in flight"};
  }
  inflight_ = false;
  std::vector<std::string> responses(size());
  responses[0] = local_->handle(pending_local_);
  for (std::size_t i = 0; i < remotes_.size(); ++i) {
    if (remotes_[i].fd < 0 || !read_frame(remotes_[i].fd, responses[i + 1])) {
      throw rank_failure(i + 1, "gather");
    }
  }
  return responses;
}

#else  // _WIN32

ForkComm::ForkComm(const Worker::Config& /*base*/, std::size_t replicas)
    : Comm(replicas) {
  throw ClusterError{"cluster: fork backend is unavailable on this platform"};
}

ForkComm::~ForkComm() = default;

std::vector<pid_t> ForkComm::worker_pids() const { return {}; }

ClusterError ForkComm::rank_failure(std::size_t, const char*) {
  return ClusterError{"cluster: fork backend is unavailable"};
}

void ForkComm::scatter(const std::vector<std::string>&) {
  throw ClusterError{"cluster: fork backend is unavailable"};
}

std::vector<std::string> ForkComm::gather() {
  throw ClusterError{"cluster: fork backend is unavailable"};
}

#endif  // _WIN32

}  // namespace hdc::cluster
