// Shard: the router's view of one BundleServer.
//
// Two transports behind one interface: LocalShard calls an in-process
// BundleServer directly (fbcgrid's default -- N shards in one process),
// RemoteShard speaks the wire protocol to a shard daemon on another
// port/host (the socket-backed deployment). The router never knows which
// it has, so the placement/lease logic is transport-agnostic and the
// fuzz harness can drive it entirely in-process.
//
// Besides the one-call acquire(), every shard offers the split acquire
// of service/endpoint.hpp: reserve() returns once the sub-bundle is
// pinned, and finish() on the returned Reservation waits for the grant.
// The router's scatter reserves every part first, in shard order, and
// only then finishes them, so the parts' fetches overlap.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "service/client.hpp"
#include "service/endpoint.hpp"
#include "service/server.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::cluster {

using service::LeaseId;

/// One BundleServer as seen by the router. Thread-safe: the router calls
/// acquire/reserve/release from many daemon connection threads at once.
class Shard {
 public:
  virtual ~Shard() = default;

  virtual service::AcquireResult acquire(const Request& request) = 0;
  /// Split acquire (see ServingEndpoint::reserve): returns once the
  /// request is reserved or refused. `request` must outlive the finish.
  virtual service::Reservation reserve(const Request& request) = 0;
  virtual bool release(LeaseId lease) = 0;
  [[nodiscard]] virtual service::ServiceStats stats() const = 0;
  [[nodiscard]] virtual service::MetricsSnapshot metrics() const = 0;
  virtual void close() = 0;

  /// Hook the router calls when it marks this shard down: transports with
  /// cached connections drop them so recovery probes dial fresh (a
  /// restarted daemon never answers on old sockets). Default: no-op.
  virtual void invalidate_pool() {}
};

/// In-process shard: forwards to a BundleServer the caller owns.
class LocalShard final : public Shard {
 public:
  /// `server` must outlive the shard.
  explicit LocalShard(service::BundleServer& server) : server_(&server) {}

  service::AcquireResult acquire(const Request& request) override {
    return server_->acquire(request);
  }
  service::Reservation reserve(const Request& request) override {
    return server_->reserve(request);
  }
  bool release(LeaseId lease) override { return server_->release(lease); }
  [[nodiscard]] service::ServiceStats stats() const override {
    return server_->stats();
  }
  [[nodiscard]] service::MetricsSnapshot metrics() const override {
    return server_->metrics();
  }
  void close() override { server_->close(); }

  /// The wrapped server, for tests that audit() shards directly.
  [[nodiscard]] service::BundleServer& server() noexcept { return *server_; }

 private:
  service::BundleServer* server_;
};

/// Socket-backed shard: a checkout pool of BundleClient connections to a
/// shard daemon on port `port`. Each call checks a connection out, runs
/// the round trip outside the pool lock, and returns it; broken
/// connections are dropped (the daemon reclaims their leases). reserve()
/// sends a ReserveRequest and keeps its connection checked out until the
/// reservation is finished (the grant is the same connection's second
/// reply).
///
/// The daemon releases every lease a closing connection still owns, so
/// the pool closes a healthy connection only while it owns no live lease:
/// the shard records which connection acquired or reserved each lease and
/// clears the record on release, over whichever connection carries it.
class RemoteShard final : public Shard {
 public:
  /// Bounds the lease-free idle pool, so a burst of stats calls cannot
  /// grow it without limit: a checkin past the cap closes the connection
  /// unless it owns a live lease (the daemon would reclaim that lease),
  /// and a connection idle past the cap closes once its last lease is
  /// released.
  static constexpr std::size_t kPoolCap = 8;

  explicit RemoteShard(std::uint16_t port) : port_(port) {}

  service::AcquireResult acquire(const Request& request) override;
  service::Reservation reserve(const Request& request) override;
  bool release(LeaseId lease) override;
  [[nodiscard]] service::ServiceStats stats() const override;
  [[nodiscard]] service::MetricsSnapshot metrics() const override;
  void close() override;

  /// Takes every idle connection out of service (the shard stays usable;
  /// the next call dials fresh). Called when the router marks the shard
  /// down, since pooled sockets to a crashed daemon are all poisoned.
  /// Lease-free ones close; the others are parked, never handed out
  /// again, and close once their last lease is released.
  void invalidate_pool() override;

  /// Idle connections currently pooled (tests assert the cap holds).
  [[nodiscard]] std::size_t idle_connections() const;

  /// Connections recorded as owning a live lease (tests).
  [[nodiscard]] std::size_t lease_owning_connections() const;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  /// One connection. `serial` names it in the lease records, which may
  /// outlive it: a connection that breaks dies with its exception, and
  /// its records go when the router releases their (reclaimed) leases.
  struct Connection {
    Connection(std::uint16_t port, std::uint64_t id)
        : client(port), serial(id) {}
    service::BundleClient client;
    std::uint64_t serial;
  };
  using ConnectionPtr = std::unique_ptr<Connection>;

  /// A reserved sub-bundle: holds the connection that carries its grant.
  class Grant;

  /// Pops an idle connection or dials a new one. Never holds remote_mu_
  /// across the connect. (const: stats()/metrics() check out too.)
  ConnectionPtr checkout() const;
  /// Returns a healthy connection to the pool, or closes it when the
  /// shard is closed or the pool is full and it owns no live lease.
  void checkin(ConnectionPtr conn) const;
  /// Records `conn` as the owner of `lease`, replacing a stale record of
  /// the same id.
  void record(LeaseId lease, const Connection& conn);
  /// Clears the record of `lease`; closes its connection if that leaves
  /// it lease-free while parked or idle past the cap.
  void forget(LeaseId lease);
  /// Counts one lease fewer for connection `serial`; returns the
  /// connection for the caller to close after the unlock if that leaves
  /// it lease-free while parked or idle past the cap.
  // fbc:requires(remote_mu_)
  ConnectionPtr disown(std::uint64_t serial);

  std::uint16_t port_;

  // Pool-only lock, below every shard-internal level and never held
  // across a wire round trip.
  // fbc:lock-level(7)
  // fbc:guards(idle_, parked_, owner_, owned_, next_serial_, closed_)
  mutable OrderedMutex remote_mu_{7, "RemoteShard::remote_mu_"};
  mutable std::vector<ConnectionPtr> idle_;
  std::vector<ConnectionPtr> parked_;  ///< out of service, owning leases
  std::unordered_map<LeaseId, std::uint64_t> owner_;    ///< lease -> serial
  std::unordered_map<std::uint64_t, std::size_t> owned_;  ///< serial -> live
  mutable std::uint64_t next_serial_ = 1;
  mutable bool closed_ = false;
};

/// Test/harness seam: wraps any Shard and, while killed, makes every call
/// throw NetError -- exactly what a crashed shard daemon looks like to
/// the router. cluster_sim's kill/revive waves, the failover tests, and
/// the bench fault leg all inject failures through this instead of
/// tearing down real processes.
///
/// A split acquire can fail in either phase: reserve() like any call,
/// and finish() when the shard is killed -- or fail_on_finish() is set --
/// by the time the grant is due: the daemon died between Reserved and
/// Granted. The inner reservation is then finished and its lease
/// released, as a real daemon reclaims the leases of a dead connection,
/// before finish() throws NetError.
class FaultInjectionShard final : public Shard {
 public:
  explicit FaultInjectionShard(std::unique_ptr<Shard> inner)
      : inner_(std::move(inner)) {}

  /// Subsequent calls throw NetError until revive().
  void kill() noexcept { killed_.store(true, std::memory_order_release); }
  void revive() noexcept { killed_.store(false, std::memory_order_release); }
  [[nodiscard]] bool killed() const noexcept {
    return killed_.load(std::memory_order_acquire);
  }

  /// While on, every finish of a reservation throws NetError (see class
  /// comment); other calls are unaffected.
  void fail_on_finish(bool on) noexcept {
    fail_finish_.store(on, std::memory_order_release);
  }

  service::AcquireResult acquire(const Request& request) override {
    check();
    return inner_->acquire(request);
  }
  service::Reservation reserve(const Request& request) override;
  bool release(LeaseId lease) override {
    check();
    return inner_->release(lease);
  }
  [[nodiscard]] service::ServiceStats stats() const override {
    check();
    return inner_->stats();
  }
  [[nodiscard]] service::MetricsSnapshot metrics() const override {
    check();
    return inner_->metrics();
  }
  /// Close always reaches the inner shard: shutdown must not depend on
  /// the injected fault state.
  void close() override { inner_->close(); }
  void invalidate_pool() override { inner_->invalidate_pool(); }

  [[nodiscard]] Shard& inner() noexcept { return *inner_; }

 private:
  /// Wraps the inner reservation's fetch phase with the finish fault.
  class Grant;

  void check() const {
    if (killed())
      throw service::NetError("injected fault: shard daemon is down");
  }

  std::unique_ptr<Shard> inner_;
  std::atomic<bool> killed_{false};
  std::atomic<bool> fail_finish_{false};
};

}  // namespace fbc::cluster
