#include "service/client.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/json_reader.hpp"
#include "common/telemetry/span.hpp"
#include "common/telemetry/trace_context.hpp"

namespace glimpse::service {

Client Client::connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("unix socket path too long: " + path);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(AF_UNIX) failed");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    int e = errno;
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " + std::strerror(e));
  }
  return Client(fd);
}

Client Client::connect_tcp(const std::string& host, int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0)
    throw std::runtime_error("resolve " + host + " failed: " + gai_strerror(rc));
  int fd = -1;
  int err = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    err = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0)
    throw std::runtime_error("connect(" + host + ":" + service +
                             ") failed: " + std::strerror(err));
  return Client(fd);
}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      auth_(std::move(other.auth_)),
      buffer_(std::move(other.buffer_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    auth_ = std::move(other.auth_);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Request Client::decorate(const Request& req) const {
  Request wired = req;
  if (wired.auth.empty()) wired.auth = auth_;
  if (telemetry::tracing_enabled())
    wired.traceparent =
        telemetry::to_traceparent(telemetry::current_trace_context());
  return wired;
}

Response Client::call(const Request& req) {
  if (!telemetry::tracing_enabled()) return call_impl(decorate(req));
  // Client-side request span: the root of the distributed trace (or a child
  // of the caller's ambient context). The traceparent sent on the wire names
  // this span, so daemon-side spans stitch underneath it.
  telemetry::TraceContext ctx = telemetry::current_trace_context();
  if (!ctx.valid()) {
    ctx = telemetry::make_trace_context();
    ctx.span_id = 0;  // root pending: the request span becomes the trace root
  }
  telemetry::ScopedTraceContext scope(ctx);
  telemetry::Span span("client.request");
  span.set_note(to_string(req.type).data());
  return call_impl(decorate(req));
}

Response Client::subscribe(
    std::uint64_t job_id, const std::function<void(const Response&)>& on_update) {
  Request req;
  req.type = RequestType::kSubscribe;
  req.job_id = job_id;
  // Same span discipline as call(), held across the whole stream.
  telemetry::TraceContext ctx = telemetry::current_trace_context();
  if (telemetry::tracing_enabled() && !ctx.valid()) {
    ctx = telemetry::make_trace_context();
    ctx.span_id = 0;
  }
  telemetry::ScopedTraceContext scope(ctx);
  telemetry::Span span("client.request");
  span.set_note("subscribe");
  send_request(decorate(req));
  while (true) {
    Response r = read_response();
    if (r.type != ResponseType::kStatus) return r;  // kResult or kError
    if (on_update) on_update(r);
  }
}

Response Client::call_impl(const Request& req) {
  send_request(req);
  return read_response();
}

void Client::send_request(const Request& req) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  const std::string payload = encode_request(req) + "\n";
  std::size_t off = 0;
  while (off < payload.size()) {
    ssize_t n = ::send(fd_, payload.data() + off, payload.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

Response Client::read_response() {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  while (true) {
    std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      Response resp;
      std::string err;
      if (!parse_response(line, resp, err))
        throw std::runtime_error("bad response from daemon: " + err);
      return resp;
    }
    if (buffer_.size() > json::kMaxLineBytes)
      throw std::runtime_error("daemon response line too long");
    char chunk[4096];
    ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("connection closed by daemon");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

Response Client::ping() {
  Request r;
  r.type = RequestType::kPing;
  return call(r);
}

Response Client::submit(const std::string& client_name, std::int64_t priority,
                        const JobSpec& job) {
  Request r;
  r.type = RequestType::kSubmit;
  r.client = client_name;
  r.priority = priority;
  r.job = job;
  return call(r);
}

Response Client::status(std::uint64_t job_id) {
  Request r;
  r.type = RequestType::kStatus;
  r.job_id = job_id;
  return call(r);
}

Response Client::result(std::uint64_t job_id, bool wait) {
  Request r;
  r.type = RequestType::kResult;
  r.job_id = job_id;
  r.wait = wait;
  return call(r);
}

Response Client::cancel(std::uint64_t job_id) {
  Request r;
  r.type = RequestType::kCancel;
  r.job_id = job_id;
  return call(r);
}

Response Client::stats() {
  Request r;
  r.type = RequestType::kStats;
  return call(r);
}

Response Client::drain() {
  Request r;
  r.type = RequestType::kDrain;
  return call(r);
}

Response Client::shutdown() {
  Request r;
  r.type = RequestType::kShutdown;
  return call(r);
}

}  // namespace glimpse::service
