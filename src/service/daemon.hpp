// BundleDaemon: serves the wire protocol on top of a ServingEndpoint (a
// single BundleServer, or a ClusterRouter fanning out to N shards -- the
// daemon itself is endpoint-agnostic).
//
// A daemon on port P serves the abstract Unix socket "@fbcd.P", which is
// what BundleClient dials, and holds TCP 127.0.0.1:P bound without
// listening, so the port stays its unique public name. One acceptor
// thread starts one thread per accepted connection, so a client is served
// however many others hold their connections open; the thread ends with
// its connection. Each connection holds a descriptor, so RLIMIT_NOFILE
// bounds the thread count. Each connection is a strict request/reply loop:
// AcquireRequest -> AcquireReply, ReleaseRequest -> ReleaseReply,
// StatsRequest -> StatsReply, and the one two-reply exchange,
// ReserveRequest -> AcquireReply (reserved, written out at once) ->
// AcquireReply (granted, once staged). A lease belongs to the connection
// that acquired (or reserved) it until a release over any connection
// clears it; the leases a connection still owns when it disconnects are
// auto-released, so a crashed client can never wedge the cache with
// orphaned pins.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "service/endpoint.hpp"
#include "service/net.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::service {

/// Socket front-end for one ServingEndpoint.
class BundleDaemon {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral) and then listens on
  /// "@fbcd.<bound port>" before this returns, so a client may dial at
  /// once. `endpoint` must outlive the daemon.
  BundleDaemon(ServingEndpoint& endpoint, std::uint16_t port);

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

  /// Live leases with an owning connection (tests: a lease released over
  /// another connection than its own is no longer tracked).
  [[nodiscard]] std::size_t tracked_leases() const;

  /// Initiates shutdown (idempotent; the destructor calls it too).
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  /// Records `fd` as the owner of `lease`.
  void track(LeaseId lease, int fd);
  /// Forgets `lease`, whichever connection owned it.
  void untrack(LeaseId lease);

  ServingEndpoint& endpoint_;
  UniqueFd name_fd_;    ///< holds 127.0.0.1:port_ (bound, not listening)
  UniqueFd listen_fd_;  ///< "@fbcd.<port_>"
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> reclaimed_{0};

  // The thread of each live connection by fd, so stop() can shutdown()
  // them and unblock the threads parked in recv; the thread of the last
  // connection to end, which the next one to end joins; and the owning
  // connection of each live lease. A connection is named by its fd, which
  // cannot be reused before serve_connection has claimed that
  // connection's leases, left connections_ and closed it. Held only over
  // map ops, thread creation and the (non-blocking) shutdown() syscall,
  // never across endpoint_ calls or a join.
  // fbc:lock-level(70)
  // fbc:guards(connections_, finished_, lease_owner_)
  mutable OrderedMutex conn_mu_{70, "BundleDaemon::conn_mu_"};
  std::unordered_map<int, std::thread> connections_;
  std::thread finished_;
  std::unordered_map<LeaseId, int> lease_owner_;

  std::thread acceptor_;
};

}  // namespace fbc::service
