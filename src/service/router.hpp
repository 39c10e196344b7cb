// Consistent-hash front door for a glimpsed fleet.
//
// The Router speaks the same wire protocol as glimpsed (it plugs into the
// same Server) but owns no scheduler: every submit is forwarded to the
// shard the ShardRing picks for the job's task/hardware key, and every
// status/result/cancel/subscribe follows the job to the shard that
// accepted it. Clients that can hash should embed a ShardRing and talk to
// shards directly; the router exists for clients that cannot (one socket,
// zero fleet knowledge) and as the place where fleet-wide stats/drain
// fan-out lives.
//
// Job ids: each shard numbers its own jobs from 1, so upstream ids
// collide across shards. The router hands out its own id space and keeps
// an id -> (shard, upstream id) route table; summaries are rewritten on
// the way back so a client only ever sees router ids.
//
// Failover: a forward that fails at the transport level (shard SIGKILLed
// mid-call) is retried against the same shard — the ring maps the job
// there and its spool lives there, so the job resumes bit-identically
// once the shard is restarted. Retries are bounded (~connect_retries *
// retry_delay_s seconds) and then surface an "unavailable" error.
//
// Upstream connections are per-forward (connect, call, close): strictly
// correct under any downstream concurrency — no head-of-line blocking on
// a shared upstream socket while a forwarded result(wait=true) blocks for
// minutes. Fleet control traffic is not the hot path; the hot path
// (cache-warm sweeps) talks to shards directly via the ring.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/request_handler.hpp"
#include "service/shard_ring.hpp"

namespace glimpse::service {

class Client;

/// One shard's address. Exactly one of unix_path / (host, port) is used;
/// a non-empty unix_path wins.
struct ShardEndpoint {
  std::string name;       ///< ring identity; must be unique in the fleet
  std::string unix_path;  ///< UDS address
  std::string host;       ///< TCP address (with port)
  int port = -1;
};

struct RouterOptions {
  std::vector<ShardEndpoint> shards;
  /// Token the router presents to shards (their --auth). Independent of
  /// whatever token the router's own Server demands from clients.
  std::string upstream_auth;
  /// Transport-failure retries per forward before giving up.
  int connect_retries = 40;
  /// Pause between retries (wall seconds).
  double retry_delay_s = 0.25;
};

class Router : public RequestHandler {
 public:
  explicit Router(RouterOptions options);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Dispatch one request (the Server keeps ping/shutdown). submit routes
  /// by ring; status/result/cancel/subscribe follow the route table;
  /// stats aggregates and drain fans out across every shard.
  bool handle(const Request& req, const Emit& emit) override;

  /// Break every in-flight upstream call so connection threads unblock.
  void stop() override;

  const ShardRing& ring() const { return ring_; }

 private:
  /// Forward one request to `shard` with bounded transport-failure retry.
  /// kSubscribe streams interim responses through `emit` (nullptr emit for
  /// the single-response types). job ids in `req` must already be the
  /// shard's; responses come back unrewritten.
  Response forward(const std::string& shard, const Request& req,
                   const Emit* emit);
  Client connect_shard(const std::string& shard);
  /// Track an upstream socket so stop() can shut it down mid-call.
  void track(int fd);
  void untrack(int fd);

  RouterOptions options_;
  ShardRing ring_;
  std::map<std::string, ShardEndpoint> endpoints_;  ///< by shard name

  std::mutex mu_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  /// Router job id -> (shard name, upstream job id).
  std::map<std::uint64_t, std::pair<std::string, std::uint64_t>> routes_;
  std::set<int> upstream_fds_;  ///< live upstream sockets (for stop())
};

}  // namespace glimpse::service
