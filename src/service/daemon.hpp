// BundleDaemon: serves the wire protocol over loopback TCP on top of a
// ServingEndpoint (a single BundleServer, or a ClusterRouter fanning out
// to N shards -- the daemon itself is endpoint-agnostic).
//
// One acceptor thread hands each connection to a util/thread_pool worker,
// so up to `workers` clients are served concurrently; further connections
// queue inside the pool. Each connection is a strict request/reply loop:
// AcquireRequest -> AcquireReply, ReleaseRequest -> ReleaseReply,
// StatsRequest -> StatsReply, and the one two-reply exchange,
// ReserveRequest -> AcquireReply (reserved, written out at once) ->
// AcquireReply (granted, once staged). Leases granted -- or reserved --
// over a connection that disconnects without releasing them are
// auto-released, so a crashed client can never wedge the cache with
// orphaned pins.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "service/endpoint.hpp"
#include "service/net.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_pool.hpp"

namespace fbc::service {

/// TCP front-end for one ServingEndpoint.
class BundleDaemon {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting.
  /// `endpoint` must outlive the daemon. `workers` bounds concurrently
  /// served connections.
  BundleDaemon(ServingEndpoint& endpoint, std::uint16_t port,
               std::size_t workers);

  /// Stops accepting, closes the server and every live connection, joins.
  ~BundleDaemon();

  BundleDaemon(const BundleDaemon&) = delete;
  BundleDaemon& operator=(const BundleDaemon&) = delete;

  /// The bound port (useful with port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Total connections ever accepted.
  [[nodiscard]] std::uint64_t connections_accepted() const noexcept {
    return accepted_.load(std::memory_order_relaxed);
  }

  /// Leases auto-released because their connection died holding them.
  [[nodiscard]] std::uint64_t leases_reclaimed() const noexcept {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  /// Initiates shutdown (idempotent; the destructor calls it too).
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  ServingEndpoint& endpoint_;
  UniqueFd listen_fd_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> reclaimed_{0};

  // Live connection fds, so stop() can shutdown() them and unblock the
  // workers parked in recv. Held only over map ops and the (non-blocking)
  // shutdown() syscall, never across server_ calls.
  // fbc:lock-level(70)
  // fbc:guards(live_fds_)
  OrderedMutex conn_mu_{70, "BundleDaemon::conn_mu_"};
  std::unordered_map<int, bool> live_fds_;

  std::unique_ptr<ThreadPool> pool_;
  std::thread acceptor_;
};

}  // namespace fbc::service
