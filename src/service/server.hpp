// Socket front-end of the glimpsed daemon: accepts connections on a
// Unix-domain socket and/or a TCP port, frames the line-delimited protocol,
// and forwards each request to a RequestHandler (the SessionManager in
// glimpsed, the shard Router in glimpse-router).
//
// One accept thread polls the listeners (a self-pipe breaks the poll on
// stop), and each connection gets its own thread — connections are
// long-lived and may legitimately block for minutes inside
// result(wait=true) or drain, so multiplexing them onto one loop would let
// a single waiting client stall everyone else's traffic.
//
// Error discipline mirrors the protocol layer: a malformed line gets an
// `error` response and the conversation continues; an overlong line (cap
// json::kMaxLineBytes) gets an error and the connection is closed — the peer is
// either broken or hostile, and resynchronizing inside a multi-megabyte
// "line" helps neither.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/request_handler.hpp"

namespace glimpse::service {

class SessionManager;

struct ServerOptions {
  /// Unix-domain socket path; empty disables the UDS listener. A stale
  /// socket file from a crashed daemon is removed before binding.
  std::string unix_path;
  /// TCP port; -1 disables the TCP listener, 0 binds an ephemeral port
  /// (read it back with tcp_port()). Binds on 127.0.0.1 unless
  /// tcp_bind_any is set.
  int tcp_port = -1;
  /// Bind TCP on 0.0.0.0 instead of loopback. Refused by start() unless
  /// auth_token is set: the protocol must not face external interfaces
  /// unauthenticated.
  bool tcp_bind_any = false;
  /// Shared-secret token (protocol v3). Non-empty makes every request —
  /// on every listener, loopback included — carry the matching "auth"
  /// member or be refused with an "unauthorized" error.
  std::string auth_token;
};

class Server {
 public:
  /// Does not listen yet; call start(). `handler` must outlive the server.
  Server(RequestHandler& handler, ServerOptions options);
  /// Convenience for the common daemon shape (the manager is the handler).
  Server(SessionManager& manager, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen + spawn the accept thread. Throws on bind failure.
  void start();

  /// Block until a client sends `shutdown` or stop() is called.
  void wait_shutdown();

  /// Stop the handler (checkpoints persist), close every listener and
  /// connection, join all threads. Idempotent; the destructor calls it.
  void stop();

  /// Actual TCP port after start() (useful with tcp_port = 0). -1 if no
  /// TCP listener.
  int tcp_port() const { return bound_tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

 private:
  void accept_loop();
  void connection_loop(int fd);
  /// Serve one request line; false closes the connection.
  bool serve_line(int fd, const std::string& line);
  bool send_all(int fd, const std::string& payload);

  RequestHandler& handler_;
  ServerOptions options_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: stop() breaks the poll

  std::mutex mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
  bool stopping_ = false;
  std::map<int, std::thread> connections_;  ///< by fd
  std::vector<std::thread> finished_;  ///< reaped by later connections + stop()

  std::thread acceptor_;
};

}  // namespace glimpse::service
