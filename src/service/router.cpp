#include "service/router.hpp"

#include <sys/socket.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/telemetry/span.hpp"
#include "service/client.hpp"

namespace glimpse::service {

Router::Router(RouterOptions options) : options_(std::move(options)) {
  for (const ShardEndpoint& ep : options_.shards) {
    if (ep.name.empty())
      throw std::invalid_argument("shard endpoint needs a name");
    if (ep.unix_path.empty() && (ep.host.empty() || ep.port < 0))
      throw std::invalid_argument("shard '" + ep.name + "' has no address");
    if (!endpoints_.emplace(ep.name, ep).second)
      throw std::invalid_argument("duplicate shard name '" + ep.name + "'");
    ring_.add(ep.name);
  }
  if (ring_.empty())
    throw std::invalid_argument("router needs at least one shard");
}

Router::~Router() { stop(); }

void Router::stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  // Connection threads may be blocked inside a forwarded result(wait=true);
  // shutting the upstream sockets down fails those calls promptly so the
  // Server can join the threads.
  for (int fd : upstream_fds_) ::shutdown(fd, SHUT_RDWR);
}

void Router::track(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  upstream_fds_.insert(fd);
}

void Router::untrack(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  upstream_fds_.erase(fd);
}

Client Router::connect_shard(const std::string& shard) {
  const ShardEndpoint& ep = endpoints_.at(shard);
  Client c = ep.unix_path.empty() ? Client::connect_tcp(ep.host, ep.port)
                                  : Client::connect_unix(ep.unix_path);
  c.set_auth(options_.upstream_auth);
  return c;
}

Response Router::forward(const std::string& shard, const Request& req,
                         const Emit* emit) {
  Request wired = req;
  wired.auth.clear();  // the router's credential replaces the client's
  for (int attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return error_response("router stopping");
    }
    try {
      Client up = connect_shard(shard);
      track(up.native_handle());
      struct Untrack {
        Router* r;
        int fd;
        ~Untrack() { r->untrack(fd); }
      } guard{this, up.native_handle()};
      telemetry::Span span("router.forward");
      span.set_note(endpoints_.at(shard).name.c_str());
      if (wired.type == RequestType::kSubscribe && emit != nullptr)
        return up.subscribe(wired.job_id,
                            [&](const Response& interim) { (*emit)(interim); });
      return up.call(wired);
    } catch (const std::exception& e) {
      // Transport failure: the shard died or restarted under us. The ring
      // still maps the job here and its spool lives here, so retrying the
      // same shard is what makes failover resume bit-identically.
      if (attempt >= options_.connect_retries)
        return error_response("shard '" + shard + "' unavailable: " + e.what());
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.retry_delay_s));
    }
  }
}

bool Router::handle(const Request& req, const Emit& emit) {
  switch (req.type) {
    case RequestType::kSubmit: {
      const std::string shard = ring_.node_for_job(req.job);
      Response r = forward(shard, req, nullptr);
      if (r.type == ResponseType::kAccepted) {
        std::lock_guard<std::mutex> lock(mu_);
        const std::uint64_t rid = next_id_++;
        routes_[rid] = {shard, r.job_id};
        r.job_id = rid;
      }
      return emit(r);
    }
    case RequestType::kStatus:
    case RequestType::kResult:
    case RequestType::kCancel:
    case RequestType::kSubscribe: {
      std::pair<std::string, std::uint64_t> route;
      bool known = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = routes_.find(req.job_id);
        if (it != routes_.end()) {
          route = it->second;
          known = true;
        }
      }
      if (!known) return emit(error_response("unknown job_id"));
      const std::uint64_t rid = req.job_id;
      Request up = req;
      up.job_id = route.second;
      if (req.type == RequestType::kSubscribe) {
        const Emit rewrap = [&](const Response& interim) {
          Response out = interim;
          out.summary.job_id = rid;
          return emit(out);
        };
        Response fin = forward(route.first, up, &rewrap);
        if (fin.type == ResponseType::kResult ||
            fin.type == ResponseType::kStatus)
          fin.summary.job_id = rid;
        return emit(fin);
      }
      Response r = forward(route.first, up, nullptr);
      if (r.type == ResponseType::kStatus || r.type == ResponseType::kResult)
        r.summary.job_id = rid;
      return emit(r);
    }
    case RequestType::kStats: {
      // Fleet-wide stats: counters sum, flags OR. endpoints_ is a sorted
      // map, so shard visit order (and failure attribution) is stable.
      Response agg;
      agg.type = ResponseType::kStats;
      for (const auto& [name, ep] : endpoints_) {
        Request sreq;
        sreq.type = RequestType::kStats;
        Response r = forward(name, sreq, nullptr);
        if (r.type != ResponseType::kStats)
          return emit(error_response("stats from shard '" + name +
                                     "' failed: " + r.reason));
        accumulate_stats(agg.stats, r.stats);
      }
      return emit(agg);
    }
    case RequestType::kDrain: {
      for (const auto& [name, ep] : endpoints_) {
        Request dreq;
        dreq.type = RequestType::kDrain;
        Response r = forward(name, dreq, nullptr);
        if (r.type != ResponseType::kOk)
          return emit(error_response("drain of shard '" + name +
                                     "' failed: " + r.reason));
      }
      Response ok;
      ok.type = ResponseType::kOk;
      return emit(ok);
    }
    default:
      // kPing/kShutdown stay with the Server; nothing else exists.
      return emit(error_response("unsupported request type"));
  }
}

}  // namespace glimpse::service
