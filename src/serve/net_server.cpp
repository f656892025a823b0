#include "hdc/serve/net_server.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <iostream>
#include <list>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "hdc/serve/micro_batcher.hpp"

#if !defined(_WIN32)
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

namespace hdc::serve {

namespace {

/// Shortest round-trip decimal of a double (the `!adapt` reply's predicted=
/// field; classifier labels print as integers this way too).
std::string format_double(double value) {
  char buffer[64];
  const auto [end, error] =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  return error == std::errc{} ? std::string(buffer, end) : std::string("?");
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

#if !defined(_WIN32)

namespace {

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// Sends the whole buffer, suppressing SIGPIPE; false when the peer is gone.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t sent = ::send(fd, data, size, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data += sent;
    size -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool send_all(int fd, const std::string& text) {
  return send_all(fd, text.data(), text.size());
}

/// The named rejection of a line over NetServer::kMaxLineBytes.
std::string line_too_long() {
  return "line too long (more than " +
         std::to_string(NetServer::kMaxLineBytes) + " bytes)";
}

/// Half-closes \p fd, then discards what the peer still sends for at most
/// a second (or until it closes, or \p stop_fd fires).  Closing over
/// unread input resets the connection, which can destroy the replies still
/// in flight — the rejection a peer most needs to read.
void linger(int fd, int stop_fd) {
  ::shutdown(fd, SHUT_WR);
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(1);
  char sink[4096];
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - std::chrono::steady_clock::now());
    pollfd fds[2] = {{fd, POLLIN, 0}, {stop_fd, POLLIN, 0}};
    if (left.count() <= 0 ||
        ::poll(fds, 2, static_cast<int>(left.count())) <= 0 ||
        fds[1].revents != 0 || ::recv(fd, sink, sizeof(sink), 0) <= 0) {
      return;
    }
  }
}

int make_tcp_listener(const std::string& host, std::uint16_t port,
                      std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("NetServer: socket");
  }
  set_cloexec(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("NetServer: '" + host +
                             "' is not an IPv4 address");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("NetServer: bind/listen on " + host + ":" +
                std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("NetServer: getsockname");
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

int make_unix_listener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("NetServer: unix socket path too long: " + path);
  }
  std::copy(path.begin(), path.end(), addr.sun_path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw_errno("NetServer: socket(AF_UNIX)");
  }
  set_cloexec(fd);
  ::unlink(path.c_str());  // A stale socket file would make bind fail.
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, SOMAXCONN) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("NetServer: bind/listen on " + path);
  }
  return fd;
}

}  // namespace

/// Connection registry + counters, kept out of the header so the header
/// stays free of <thread>/<list> and platform details.
struct NetServer::Impl {
  struct Conn {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  std::mutex conns_mutex;
  std::list<Conn> conns;  ///< Stable addresses for the `done` flags.
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> ran{false};
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> rows{0};
  std::atomic<std::uint64_t> batches{0};
  std::atomic<std::uint64_t> reloads{0};
  std::atomic<std::uint64_t> rejected_reloads{0};

  /// Joins (only) connections that have finished; called opportunistically
  /// from the accept loop so a long-lived server does not accumulate dead
  /// threads.
  void reap_finished() {
    const std::lock_guard<std::mutex> lock(conns_mutex);
    for (auto it = conns.begin(); it != conns.end();) {
      if (it->done.load(std::memory_order_acquire)) {
        it->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  void join_all() {
    const std::lock_guard<std::mutex> lock(conns_mutex);
    for (Conn& conn : conns) {
      conn.thread.join();
    }
    conns.clear();
  }
};

NetServer::NetServer(Predictor& predictor, NetServerOptions options)
    : predictor_(predictor), options_(std::move(options)), impl_(new Impl) {
  try {
    if (options_.batch_size == 0) {
      throw std::invalid_argument("NetServer: batch_size must be > 0");
    }
    const auto max = MicroBatcher::max_flush_interval();
    if (options_.flush_interval.count() < 0 || options_.flush_interval > max) {
      throw std::invalid_argument(
          "NetServer: flush_interval must be within 0.." +
          std::to_string(max.count()) + " us");
    }
    MicroBatcher::check(predictor_, options_.input, options_.head);
    if (options_.host.empty() && options_.unix_path.empty()) {
      throw std::invalid_argument(
          "NetServer: no listener configured (need a host or a unix path)");
    }
    if (::pipe(stop_pipe_) != 0 || ::pipe(reload_pipe_) != 0) {
      throw_errno("NetServer: pipe");
    }
    for (const int fd : {stop_pipe_[0], stop_pipe_[1], reload_pipe_[0],
                         reload_pipe_[1]}) {
      set_cloexec(fd);
    }
    // The notify write end must never block inside a signal handler.
    ::fcntl(reload_pipe_[1], F_SETFL, O_NONBLOCK);
    if (!options_.host.empty()) {
      tcp_fd_ = make_tcp_listener(options_.host, options_.port, port_);
    }
    if (!options_.unix_path.empty()) {
      unix_fd_ = make_unix_listener(options_.unix_path);
    }
  } catch (...) {
    for (const int fd : {tcp_fd_, unix_fd_, stop_pipe_[0], stop_pipe_[1],
                         reload_pipe_[0], reload_pipe_[1]}) {
      if (fd >= 0) {
        ::close(fd);
      }
    }
    delete impl_;
    throw;
  }
}

NetServer::~NetServer() {
  stop();
  impl_->join_all();
  for (const int fd : {tcp_fd_, unix_fd_, stop_pipe_[0], stop_pipe_[1],
                       reload_pipe_[0], reload_pipe_[1]}) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  if (!options_.unix_path.empty()) {
    ::unlink(options_.unix_path.c_str());
  }
  delete impl_;
}

void NetServer::stop() {
  if (!impl_->stop_requested.exchange(true)) {
    // One byte, never drained: level-triggered POLLIN keeps waking every
    // poller (accept loop and all connection loops) until they exit.
    const char byte = 's';
    [[maybe_unused]] const ssize_t ignored =
        ::write(stop_pipe_[1], &byte, 1);
  }
}

NetServer::Stats NetServer::stats() const noexcept {
  Stats out;
  out.connections = impl_->connections.load(std::memory_order_relaxed);
  out.rows = impl_->rows.load(std::memory_order_relaxed);
  out.batches = impl_->batches.load(std::memory_order_relaxed);
  out.reloads = impl_->reloads.load(std::memory_order_relaxed);
  out.rejected_reloads =
      impl_->rejected_reloads.load(std::memory_order_relaxed);
  return out;
}

std::uint64_t NetServer::counted_reload(const std::string& path) {
  try {
    const std::uint64_t generation = predictor_.reload(path);
    impl_->reloads.fetch_add(1, std::memory_order_relaxed);
    return generation;
  } catch (...) {
    impl_->rejected_reloads.fetch_add(1, std::memory_order_relaxed);
    throw;
  }
}

void NetServer::handle_async_reload() {
  // Coalesce queued notifications (several HUPs before we got scheduled)
  // into one reload; the read end saw POLLIN so this does not block.
  char drain[64];
  [[maybe_unused]] const ssize_t drained =
      ::read(reload_pipe_[0], drain, sizeof(drain));
  const std::string path = predictor_.source();
  try {
    const std::uint64_t generation = counted_reload("");
    std::cerr << "hdc::serve: reloaded " << path << " (generation "
              << generation << ")\n";
  } catch (const std::exception& e) {
    std::cerr << "hdc::serve: reload of " << path
              << " rejected, old model still serving: " << e.what() << "\n";
  }
}

void NetServer::run() {
  if (impl_->ran.exchange(true)) {
    throw std::logic_error("NetServer::run: already run");
  }
  accept_loop();
  impl_->join_all();
}

void NetServer::accept_loop() {
  std::vector<pollfd> fds;
  fds.push_back({stop_pipe_[0], POLLIN, 0});
  fds.push_back({reload_pipe_[0], POLLIN, 0});
  if (tcp_fd_ >= 0) {
    fds.push_back({tcp_fd_, POLLIN, 0});
  }
  if (unix_fd_ >= 0) {
    fds.push_back({unix_fd_, POLLIN, 0});
  }
  while (!impl_->stop_requested.load(std::memory_order_acquire)) {
    for (pollfd& p : fds) {
      p.revents = 0;
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw_errno("NetServer: poll");
    }
    if (fds[0].revents != 0) {
      break;  // stop(); the byte stays so connection pollers wake too.
    }
    if (fds[1].revents != 0) {
      handle_async_reload();
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) {
        continue;
      }
      const int conn = ::accept(fds[i].fd, nullptr, nullptr);
      if (conn < 0) {
        continue;  // Peer vanished between poll and accept; not fatal.
      }
      set_cloexec(conn);
      if (fds[i].fd == tcp_fd_) {
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
      impl_->reap_finished();
      {
        const std::lock_guard<std::mutex> lock(impl_->conns_mutex);
        if (impl_->conns.size() >= options_.max_connections) {
          send_all(conn, "!error server full\n");
          ::close(conn);
          continue;
        }
        impl_->connections.fetch_add(1, std::memory_order_relaxed);
        Impl::Conn& slot = impl_->conns.emplace_back();
        slot.thread = std::thread([this, conn, &slot] {
          serve_connection(conn);
          slot.done.store(true, std::memory_order_release);
        });
      }
    }
  }
}

void NetServer::serve_connection(int fd) {
  try {
    serve_connection_body(fd);
  } catch (const std::exception& e) {
    // Building the serving machinery (worker pool, batch engines) or a
    // cluster exchange failed: answer *something* instead of silently
    // closing, and drop only this connection — the server keeps running.
    send_all(fd, std::string("!error server error: ") + e.what() + "\n");
  }
  ::close(fd);
}

void NetServer::serve_connection_body(int fd) {
  RowReader reader(predictor_.num_features(), options_.input);
  std::ostringstream response;
  PredictionWriter writer(response, options_.output, options_.with_latency,
                          options_.head);
  MicroBatcher batcher(predictor_, reader, writer, options_.batch_size);
  // `!use adapted` routes this connection's data rows through the overlay;
  // other connections (and the default) keep reading the base — the A/B.
  bool use_adapted = false;
  // `!adapt` rows ride inside a control line, so they must not advance the
  // data reader's line accounting: separate reader, same format and arity.
  RowReader adapt_reader(predictor_.num_features(), options_.input);

  // Predicts the pending rows and sends the formatted batch; false when the
  // peer is gone.  The overlay is fetched per batch, so a reload retires it
  // at the very next micro-batch boundary.
  const auto flush = [&]() -> bool {
    const std::shared_ptr<Predictor> adapted =
        use_adapted ? predictor_.adapted() : nullptr;
    const std::size_t count = batcher.flush(adapted ? *adapted : predictor_);
    if (count == 0) {
      return true;
    }
    impl_->rows.fetch_add(count, std::memory_order_relaxed);
    impl_->batches.fetch_add(1, std::memory_order_relaxed);
    std::string text = response.str();
    response.str(std::string());
    return send_all(fd, text);
  };

  // Control replies are ordered after the predictions for every row the
  // client sent first, so `!stats` and `!reload` acks are sequencing
  // points; returns false when the connection should close.
  const auto handle_control = [&](const std::string& line) -> bool {
    if (!flush()) {
      return false;
    }
    const std::size_t space = line.find(' ');
    const std::string cmd = line.substr(0, space);
    const std::string arg =
        space == std::string::npos ? std::string() : line.substr(space + 1);
    std::string reply;
    bool keep_open = true;
    if (cmd == "!ping") {
      reply = "!ok pong generation=" +
              std::to_string(predictor_.generation()) + "\n";
    } else if (cmd == "!stats") {
      const Stats snap = stats();
      reply = "!ok rows=" + std::to_string(snap.rows) +
              " batches=" + std::to_string(snap.batches) +
              " generation=" + std::to_string(predictor_.generation()) +
              predictor_.stats() + "\n";
    } else if (cmd == "!reload") {
      try {
        const std::uint64_t generation = counted_reload(arg);
        reply = "!ok reloaded generation=" + std::to_string(generation) +
                " source=" + predictor_.source() + "\n";
      } catch (const std::exception& e) {
        reply = std::string("!error reload rejected: ") + e.what() + "\n";
      }
    } else if (cmd == "!adapt") {
      const std::size_t cut = arg.find(' ');
      double target = 0.0;
      if (cut == std::string::npos ||
          parse_strict_number(std::string_view(arg).substr(0, cut), target) !=
              NumberParse::Ok) {
        reply =
            "!error adapt rejected: expected '!adapt TARGET ROW' with a "
            "finite numeric TARGET\n";
      } else {
        try {
          const std::string row = arg.substr(cut + 1);
          std::vector<double> features;
          std::string text;
          const bool text_input = options_.input == RowFormat::Text;
          if (!(text_input ? adapt_reader.parse_text_line(row, text)
                           : adapt_reader.parse_line(row, features))) {
            throw RowError("adapt: ROW must not be blank");
          }
          const AdaptOutcome outcome = predictor_.adapt(
              text_input ? Sample(text) : Sample(features), target);
          reply = "!ok adapt predicted=" + format_double(outcome.predicted) +
                  " updated=" + std::to_string(outcome.updated ? 1 : 0) +
                  " feedback=" + std::to_string(outcome.feedback_rows) +
                  " updates=" + std::to_string(outcome.updates) +
                  " overlay_rows=" + std::to_string(outcome.overlay_rows) +
                  " generation=" + std::to_string(predictor_.generation()) +
                  "\n";
        } catch (const std::exception& e) {
          reply = std::string("!error adapt rejected: ") + e.what() + "\n";
        }
      }
    } else if (cmd == "!use") {
      if (!predictor_.adapted()) {
        reply =
            "!error use rejected: cluster ranks serve the adapted model as "
            "soon as feedback arrives (no per-connection A/B)\n";
      } else if (arg == "base") {
        use_adapted = false;
        reply = "!ok use base\n";
      } else if (arg == "adapted") {
        use_adapted = true;
        reply = "!ok use adapted\n";
      } else {
        reply = "!error use rejected: expected '!use base' or '!use "
                "adapted'\n";
      }
    } else if (cmd == "!delta") {
      if (arg.empty()) {
        reply = "!error delta rejected: expected '!delta PATH'\n";
      } else {
        try {
          const std::uint64_t changed = predictor_.export_delta(arg);
          reply = "!ok delta rows=" + std::to_string(changed) +
                  " path=" + arg + "\n";
        } catch (const std::exception& e) {
          reply = std::string("!error delta rejected: ") + e.what() + "\n";
        }
      }
    } else if (cmd == "!quit") {
      reply = "!ok bye\n";
      keep_open = false;
    } else {
      reply = "!error unknown control command '" + cmd +
              "' (expected !ping, !stats, !reload [PATH], !adapt TARGET "
              "ROW, !use base|adapted, !delta PATH, !quit)\n";
    }
    return send_all(fd, reply) && keep_open;
  };

  // Answers every admitted row, then \p error, and ends the connection:
  // the server and every other connection keep running.
  const auto close_with = [&](const std::string& error) {
    if (flush() && send_all(fd, "!error " + error + "\n")) {
      linger(fd, stop_pipe_[0]);
    }
    return false;
  };

  std::string inbuf;
  std::size_t scanned = 0;  // Bytes of inbuf already searched for '\n'.
  std::string line;
  char chunk[4096];
  bool open = true;
  while (open) {
    // The flush deadline *is* the poll timeout: a partial batch can wait at
    // most until the oldest admitted row's deadline, whether or not the
    // client ever sends another byte.  flush_interval == 0 degenerates to
    // "flush as soon as the socket has nothing more for us".
    timespec timeout{};
    const timespec* wait = nullptr;  // Nothing pending: block.
    if (!batcher.empty()) {
      const auto deadline = batcher.oldest() + options_.flush_interval;
      const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline - MicroBatcher::clock::now());
      const std::int64_t ns = std::max<std::int64_t>(0, left.count());
      timeout.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
      timeout.tv_nsec = static_cast<long>(ns % 1'000'000'000);
      wait = &timeout;
    }
    pollfd fds[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::ppoll(fds, 2, wait, nullptr);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (fds[1].revents != 0) {
      break;  // Server stopping; drop the connection.
    }
    if (ready == 0 || fds[0].revents == 0) {
      if (!flush()) {
        break;  // Deadline flush found the peer gone.
      }
      continue;
    }
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (got == 0) {
      // Clean shutdown from the client: answer everything admitted, then
      // close.  (A client that wants its tail predictions does
      // shutdown(SHUT_WR) and keeps reading.)
      flush();
      break;
    }
    inbuf.append(chunk, static_cast<std::size_t>(got));
    std::size_t begin = 0;
    while (open) {
      const std::size_t newline = inbuf.find('\n', std::max(begin, scanned));
      if (newline == std::string::npos) {
        break;
      }
      if (newline - begin > NetServer::kMaxLineBytes) {
        open = close_with(line_too_long());
        break;
      }
      line.assign(inbuf, begin, newline - begin);
      begin = newline + 1;
      if (!line.empty() && line.front() == '!') {
        open = handle_control(line);
        continue;
      }
      try {
        batcher.admit(line);
      } catch (const RowError& e) {
        open = close_with(e.what());
        break;
      }
      if (batcher.full() && !flush()) {
        open = false;
      }
    }
    inbuf.erase(0, begin);
    scanned = inbuf.size();
    if (open && inbuf.size() > NetServer::kMaxLineBytes) {
      open = close_with(line_too_long());
    }
  }
}

#else  // !defined(_WIN32)

struct NetServer::Impl {};

NetServer::NetServer(Predictor& predictor, NetServerOptions options)
    : predictor_(predictor), options_(std::move(options)), impl_(nullptr) {
  throw std::runtime_error("NetServer: POSIX sockets are not available");
}
NetServer::~NetServer() = default;
void NetServer::run() {}
void NetServer::stop() {}
NetServer::Stats NetServer::stats() const noexcept { return {}; }
std::uint64_t NetServer::counted_reload(const std::string&) { return 0; }
void NetServer::accept_loop() {}
void NetServer::serve_connection(int) {}
void NetServer::serve_connection_body(int) {}
void NetServer::handle_async_reload() {}

#endif  // !defined(_WIN32)

}  // namespace hdc::serve
