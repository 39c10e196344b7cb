#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/json_reader.hpp"
#include "common/logging.hpp"
#include "common/telemetry/span.hpp"
#include "common/telemetry/trace_context.hpp"
#include "service/protocol.hpp"
#include "service/session_manager.hpp"

namespace glimpse::service {

namespace {

int make_listener_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    throw std::invalid_argument("unix socket path too long: " + path);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("bind(" + path + ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("listen(" + path + ") failed");
  }
  return fd;
}

int make_listener_tcp(int port, bool bind_any, int& bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_INET) failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(bind_any ? INADDR_ANY : INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("bind(tcp " + std::to_string(port) +
                             ") failed: " + std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("listen(tcp) failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    throw std::runtime_error("getsockname failed");
  }
  bound_port = ntohs(bound.sin_port);
  return fd;
}

}  // namespace

Server::Server(RequestHandler& handler, ServerOptions options)
    : handler_(handler), options_(std::move(options)) {}

Server::Server(SessionManager& manager, ServerOptions options)
    : Server(static_cast<RequestHandler&>(manager), std::move(options)) {}

Server::~Server() { stop(); }

void Server::start() {
  if (options_.tcp_bind_any && options_.auth_token.empty())
    throw std::invalid_argument(
        "refusing to bind TCP on all interfaces without an auth token");
  if (::pipe(wake_pipe_) != 0) throw std::runtime_error("pipe failed");
  if (!options_.unix_path.empty()) unix_fd_ = make_listener_unix(options_.unix_path);
  if (options_.tcp_port >= 0)
    tcp_fd_ = make_listener_tcp(options_.tcp_port, options_.tcp_bind_any,
                                bound_tcp_port_);
  if (unix_fd_ < 0 && tcp_fd_ < 0)
    throw std::invalid_argument("server has no listeners configured");
  acceptor_ = std::thread(&Server::accept_loop, this);
}

void Server::wait_shutdown() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_ || stopping_; });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  shutdown_cv_.notify_all();
  // Stop the handler first: it wakes any connection thread blocked in
  // result(wait=true)/drain so the socket shutdowns below can take effect.
  handler_.stop();
  if (wake_pipe_[1] >= 0) {
    char b = 'x';
    ssize_t ignored = ::write(wake_pipe_[1], &b, 1);
    (void)ignored;
  }
  if (acceptor_.joinable()) acceptor_.join();
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (auto& [fd, t] : connections_) ::shutdown(fd, SHUT_RDWR);
    shutdown_cv_.wait(lock, [&] { return connections_.empty(); });
  }
  for (std::thread& t : finished_)
    if (t.joinable()) t.join();
  finished_.clear();
  for (int* fd : {&unix_fd_, &tcp_fd_, &wake_pipe_[0], &wake_pipe_[1]}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

void Server::accept_loop() {
  while (true) {
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {wake_pipe_[0], POLLIN, 0};
    if (unix_fd_ >= 0) fds[n++] = {unix_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    if (::poll(fds, n, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) return;  // stop() wrote to the self-pipe
    for (nfds_t i = 1; i < n; ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      int fd = ::accept(fds[i].fd, nullptr, nullptr);
      if (fd < 0) continue;
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        ::close(fd);
        continue;
      }
      // The new thread's final cleanup also locks mu_, so it cannot finish
      // before this emplace lands.
      std::thread t(&Server::connection_loop, this, fd);
      connections_.emplace(fd, std::move(t));
    }
  }
}

bool Server::send_all(int fd, const std::string& payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    ssize_t n = ::send(fd, payload.data() + off, payload.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool Server::serve_line(int fd, const std::string& line) {
  Request req;
  std::string err;
  if (!parse_request(line, req, err))
    return send_all(fd, encode_response(error_response(err)) + "\n");
  // Every response for this request echoes the traceparent so the client
  // can correlate; the handler may emit several (v3 subscribe streams).
  const RequestHandler::Emit emit = [&](const Response& r) {
    Response out = r;
    out.traceparent = req.traceparent;
    return send_all(fd, encode_response(out) + "\n");
  };
  // Authentication gates everything below, shutdown included. A mismatch
  // answers with an error and keeps the conversation open, same as a
  // malformed line — a well-meaning client can retry with the right token.
  if (!options_.auth_token.empty() && req.auth != options_.auth_token)
    return emit(error_response("unauthorized"));
  // Adopt the client's trace context for the duration of this request: the
  // server.request span (and everything the handlers start underneath it,
  // down to per-attempt measurer spans) stitches under the client's request
  // span. parse_request already validated the traceparent field.
  telemetry::TraceContext inbound;
  if (telemetry::tracing_enabled() && !req.traceparent.empty())
    telemetry::parse_traceparent(req.traceparent, inbound);
  telemetry::ScopedTraceContext trace_scope(inbound);
  telemetry::Span request_span("server.request");
  request_span.set_note(to_string(req.type).data());
  switch (req.type) {
    case RequestType::kPing: {
      Response resp;
      resp.type = ResponseType::kPong;
      return emit(resp);
    }
    case RequestType::kShutdown: {
      Response resp;
      resp.type = ResponseType::kOk;
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
      shutdown_cv_.notify_all();
      emit(resp);
      return false;
    }
    default:
      // submit / status / result / cancel / subscribe / stats / drain all
      // belong to the handler behind this socket.
      return handler_.handle(req, emit);
  }
}

void Server::connection_loop(int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed, or stop() shut the socket down
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    while (open) {
      std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      if (line.size() > json::kMaxLineBytes) {
        // Same treatment as the no-newline overflow below: a peer that
        // frames lines this long is broken or hostile either way.
        send_all(fd, encode_response(error_response("line too long")) + "\n");
        open = false;
        break;
      }
      open = serve_line(fd, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > json::kMaxLineBytes) {
      // Either broken or hostile; resyncing mid-"line" helps neither.
      send_all(fd, encode_response(error_response("line too long")) + "\n");
      break;
    }
  }
  // Close under the lock: stop() shutdown()s fds it finds in connections_,
  // and the fd number must not be recycled while that can still happen.
  // Also take over any previously finished threads — swapped out before
  // this thread parks its own handle, so it never tries to join itself —
  // and reap them after unlocking. Every handle in finished_ belongs to a
  // thread already past this critical section, so those joins return
  // promptly and finished_ stays bounded on a long-running daemon instead
  // of accumulating one joinable thread per connection ever served.
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ::close(fd);
    reap.swap(finished_);
    auto it = connections_.find(fd);
    if (it != connections_.end()) {
      finished_.push_back(std::move(it->second));
      connections_.erase(it);
    }
    shutdown_cv_.notify_all();  // stop() waits for connections_ to empty
  }
  for (std::thread& t : reap)
    if (t.joinable()) t.join();
}

}  // namespace glimpse::service
