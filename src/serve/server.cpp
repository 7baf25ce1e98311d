#include "serve/server.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dpm::serve {

namespace {

/// Writes the whole buffer, retrying on short writes and EINTR.
/// MSG_NOSIGNAL: a client that disconnects mid-response must surface as
/// EPIPE here, not as a SIGPIPE that terminates the whole daemon.
bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Static shed line for connections refused at the max_connections cap:
/// built once, written whole, no allocation on the overload path.
constexpr char kOverloadedLine[] =
    "{\"id\":\"\",\"status\":\"error\",\"error\":{\"code\":\"overloaded\","
    "\"detail\":\"connection limit reached; retry later\"}}\n";

/// Static rejection for a request line exceeding the framing bound.
constexpr char kLineTooLongLine[] =
    "{\"id\":\"\",\"status\":\"error\",\"error\":{\"code\":\"bad-request\","
    "\"detail\":\"line too long (exceeds max_line_bytes)\"}}\n";

}  // namespace

bool configure_connection(int fd) {
  const int on = 1;
  return ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof on) == 0;
}

PolicyServer::PolicyServer(PolicyEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

PolicyServer::~PolicyServer() { stop(); }

bool PolicyServer::start(std::string* error, StartFailure* failure) {
  if (failure != nullptr) *failure = StartFailure::kSocket;
  const auto fail = [&](const std::string& what, bool with_errno = true) {
    if (error != nullptr) {
      *error = with_errno ? what + ": " + std::strerror(errno) : what;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  // Resolve like the client side: getaddrinfo accepts IPv4/IPv6 literals
  // and hostnames alike, so --bind ::1 and --bind localhost both work.
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE | AI_NUMERICSERV;
  addrinfo* results = nullptr;
  const std::string service = std::to_string(options_.port);
  const int rc = ::getaddrinfo(options_.bind_address.c_str(), service.c_str(),
                               &hints, &results);
  if (rc != 0) {
    if (failure != nullptr) *failure = StartFailure::kResolve;
    return fail("cannot resolve bind address '" + options_.bind_address +
                    "': " + ::gai_strerror(rc),
                /*with_errno=*/false);
  }

  std::string bind_error = "bind";
  for (const addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    listen_fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (listen_fd_ < 0) continue;
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listen_fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
    bind_error = "bind(" + options_.bind_address + ")";
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::freeaddrinfo(results);
  if (listen_fd_ < 0) return fail(bind_error);

  if (::listen(listen_fd_, options_.backlog) < 0) return fail("listen");

  sockaddr_storage bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    return fail("getsockname");
  }
  if (bound.ss_family == AF_INET6) {
    port_ = ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port);
  } else {
    port_ = ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);
  }

  if (failure != nullptr) *failure = StartFailure::kNone;
  stopping_.store(false);
  running_.store(true);
  acceptor_ = std::thread([this] { accept_loop(); });
  return true;
}

void PolicyServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> workers;
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    // Shut the sockets down so blocked reads return; the workers then
    // close their own fds and exit.
    for (const int fd : worker_fds_) ::shutdown(fd, SHUT_RDWR);
    for (auto& [fd, worker] : workers_) workers.push_back(std::move(worker));
    workers_.clear();
    for (std::thread& worker : reaped_) workers.push_back(std::move(worker));
    reaped_.clear();
  }
  for (std::thread& worker : workers) {
    if (worker.joinable()) worker.join();
  }
}

std::size_t PolicyServer::live_connections() const {
  std::lock_guard<std::mutex> lock(workers_mutex_);
  return workers_.size() + reaped_.size();
}

void PolicyServer::reap_finished() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    finished.swap(reaped_);
  }
  // These threads have already deregistered themselves; joining only
  // waits out their final close().
  for (std::thread& worker : finished) {
    if (worker.joinable()) worker.join();
  }
}

void PolicyServer::accept_loop() {
  while (!stopping_.load()) {
    reap_finished();
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR: re-check the stop flag
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    configure_connection(fd);
    std::lock_guard<std::mutex> lock(workers_mutex_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Connection cap: refuse with a static typed line before spawning
    // anything — a flood costs one write+close per connection, never a
    // thread or a tracked fd.  reaped_ counts too: those threads exist
    // until joined, and the cap bounds threads, not just open sockets.
    if (options_.max_connections > 0 &&
        workers_.size() + reaped_.size() >= options_.max_connections) {
      write_all(fd, kOverloadedLine, sizeof kOverloadedLine - 1);
      ::close(fd);
      shed_connections_.fetch_add(1);
      engine_.note_shed_connection();
      continue;
    }
    worker_fds_.push_back(fd);
    // The new thread cannot reach its own cleanup (which needs
    // workers_mutex_, held here) before this emplace completes.
    workers_.emplace(fd, std::thread([this, fd] { serve_connection(fd); }));
  }
}

void PolicyServer::serve_connection(int fd) {
  std::string pending;
  char buf[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, error, or shutdown() from stop()
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    // Framing bound: a peer streaming bytes with no newline must not
    // grow `pending` without limit.  Checked before line extraction so
    // a single oversized line is rejected even if later bytes contain
    // the terminator.
    if (options_.max_line_bytes > 0 &&
        pending.size() > options_.max_line_bytes) {
      write_all(fd, kLineTooLongLine, sizeof kLineTooLongLine - 1);
      engine_.note_oversized_line();
      break;
    }
    for (std::size_t nl = pending.find('\n', start); nl != std::string::npos;
         nl = pending.find('\n', start)) {
      std::string line = pending.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      std::string response;
      try {
        response = engine_.submit(line);
      } catch (...) {
        // Last-resort backstop (the engine's own error paths failed,
        // e.g. allocation exhaustion): answer with a static typed error
        // and drop the connection instead of letting the exception
        // terminate the daemon.
        static constexpr char kInternalError[] =
            "{\"id\":\"\",\"status\":\"error\",\"error\":{\"code\":"
            "\"internal\",\"detail\":\"request processing failed\"}}\n";
        write_all(fd, kInternalError, sizeof kInternalError - 1);
        open = false;
        break;
      }
      response.push_back('\n');
      if (!write_all(fd, response.data(), response.size())) {
        open = false;
        break;
      }
    }
    pending.erase(0, start);
  }
  // Deregister before closing so stop() never shuts down a reused
  // descriptor, and hand this thread's own handle to the acceptor for
  // joining — workers_ stays bounded by the live connection count under
  // arbitrary connection churn.
  {
    std::lock_guard<std::mutex> lock(workers_mutex_);
    for (std::size_t i = 0; i < worker_fds_.size(); ++i) {
      if (worker_fds_[i] == fd) {
        worker_fds_.erase(worker_fds_.begin() + static_cast<long>(i));
        break;
      }
    }
    const auto self = workers_.find(fd);
    if (self != workers_.end()) {
      reaped_.push_back(std::move(self->second));
      workers_.erase(self);
    }
  }
  ::close(fd);
}

}  // namespace dpm::serve
