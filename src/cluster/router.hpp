// ClusterRouter: one ServingEndpoint fronting N BundleServer shards.
//
// Acquire flow:
//   1. Placement splits the bundle into per-shard sub-requests, skipping
//      shards currently marked down (degraded placement -- see below).
//   2. Single part  -> forward to its shard; the shard lease comes back
//      tagged with the shard index in the top byte (lock-free fast path).
//   3. Several parts -> scatter, in two rounds. Reserve: each part is
//      reserved (pinned and leased, fetch in flight) in increasing shard
//      order, part k+1 only once part k is reserved -- the order that
//      keeps two contending scatters from deadlocking. Finish: then every
//      part's grant is awaited, so the parts stage in parallel and the
//      scatter waits for its slowest part. The cluster grant is the
//      *conjunction* of per-shard grants -- if any shard refuses
//      (QueueFull, Timeout, ...), every part already reserved is rolled
//      back (finished, then released) and the client sees the failing
//      shard's status with no residual pins. Gathered grants are
//      recorded in a scatter-lease map under route_mu_ and released
//      shard-by-shard on release().
//
// Shard health: a shard whose call throws NetError `down_threshold`
// consecutive times is marked down. Down shards are planned around --
// requests re-route to the next live shard on the consistent-hash ring
// (affinity bundles fall back to their hash partition) and a NetError
// mid-acquire triggers a transparent re-plan, so clients never see a
// dead shard as anything but a reroute. Every `probe_ms` one request is
// let through to the dead shard as an opportunistic recovery probe (its
// failure is invisible: the router just reroutes again); the first
// successful call marks the shard up and flushes releases deferred while
// it was gone. probe() forces such a probe explicitly. A shard that dies
// between a part's reservation and its grant is handled the same way:
// the other parts roll back and the bundle is re-planned.
//
// Releases that cannot reach their shard are *deferred*, not dropped:
// the lease id is parked under route_mu_ and replayed when the shard
// recovers, so a shard crash never leaks pins held on survivors and a
// rebooted shard that kept its state is fully drained.
//
// Lease encoding: the top byte of a router LeaseId is shard index + 1
// for single-shard leases (release needs no router state), and 0 for
// scatter leases (dense ids into the scatter map). Shards themselves
// allocate small dense ids, so the top byte is free in practice; the
// router rejects a shard lease that collides with the tag space.
//
// Lock levels: route_mu_ = 5 and grid_obs_mu_ = 6 sit *below* every
// server-internal level (BundleServer::mu_ = 10...) in the documented
// hierarchy, so holding them while calling into a shard would be legal;
// the router still never does -- shard calls block on staging I/O, and
// no lock should span them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/catalog.hpp"
#include "cluster/config.hpp"
#include "cluster/placement.hpp"
#include "cluster/shard.hpp"
#include "grid/backend.hpp"
#include "obs/counter.hpp"
#include "obs/histogram.hpp"
#include "service/endpoint.hpp"
#include "service/server.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::cluster {

/// Routes acquire/release over N shards; implements ServingEndpoint so a
/// BundleDaemon can serve a whole cluster on one port.
class ClusterRouter final : public service::ServingEndpoint {
 public:
  /// `shards.size()` must equal `config.shards` (1..128). `catalog` must
  /// outlive the router; `shard_capacity` is one shard's cache size (the
  /// affinity spill threshold is relative to it).
  ClusterRouter(const ClusterConfig& config, const FileCatalog& catalog,
                Bytes shard_capacity,
                std::vector<std::unique_ptr<Shard>> shards);

  ~ClusterRouter() override;

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  service::AcquireResult acquire(const Request& request) override;
  bool release(LeaseId lease) override;

  /// Field-wise sum of per-shard stats (capacity_bytes is the cluster
  /// total). Scattered acquires count once per touched shard. Shards
  /// that are down (or fail the snapshot call) are skipped and flagged
  /// under grid.stats.partial instead of failing the whole snapshot.
  [[nodiscard]] service::ServiceStats stats() const override;

  /// Merged per-shard snapshots plus the router's own grid.* counters
  /// and its scatter histograms (grid.scatter.reserve_us: plan until
  /// every part is reserved; grid.scatter.grant_us: from then until every
  /// part is granted -- one observation per grid.acquire.scatter). Dead
  /// shards are skipped, same as stats().
  [[nodiscard]] service::MetricsSnapshot metrics() const override;

  [[nodiscard]] service::EndpointInfo info() const override {
    return {service::EndpointRole::Router, 0,
            static_cast<std::uint32_t>(shards_.size()), down_count()};
  }

  /// Closes every shard and fails subsequent acquires.
  void close() override;

  /// The placement function (exposed so tests and the fuzz oracle can
  /// predict routing without reaching into the router).
  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }

  /// Shard `index`, for per-shard audits in tests.
  [[nodiscard]] Shard& shard(std::size_t index) { return *shards_.at(index); }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Scatter leases currently outstanding (router-held state; single-
  /// shard leases are stateless here).
  [[nodiscard]] std::size_t scatter_leases() const;

  /// Whether shard `index` is currently marked down.
  [[nodiscard]] bool shard_down(std::size_t index) const;

  /// Shards currently marked down.
  [[nodiscard]] std::uint32_t down_count() const;

  /// Releases deferred for down shards, awaiting recovery flush.
  [[nodiscard]] std::size_t pending_releases() const;

  /// Forces a recovery probe of shard `index` (one stats round trip),
  /// regardless of the probe_ms schedule: on success the shard is marked
  /// up and its deferred releases are flushed. Returns true when the
  /// shard is up afterwards. The replay harnesses use this to make
  /// recovery deterministic; fbcgrid could drive it from a supervisor.
  bool probe(std::size_t index);

 private:
  using Clock = std::chrono::steady_clock;

  /// Thrown internally when a shard call dies with NetError; carries the
  /// shard index so acquire() can exclude it and re-plan. Never escapes
  /// the router.
  struct ShardUnreachable {
    std::uint32_t shard;
  };

  /// Top byte of a LeaseId: shard index + 1, or 0 for scatter leases.
  static constexpr int kShardShift = 56;
  static constexpr LeaseId kPayloadMask = (LeaseId{1} << kShardShift) - 1;

  service::AcquireResult acquire_single(const SubRequest& part);
  service::AcquireResult acquire_scatter(const PlacementPlan& plan);

  /// One shard acquire with health accounting: success (any status)
  /// resets the failure streak, NetError becomes ShardUnreachable.
  service::AcquireResult shard_acquire(std::uint32_t shard,
                                       const Request& request);

  /// shard_acquire's split twin: the reserve round trip, with the same
  /// health accounting.
  service::Reservation shard_reserve(std::uint32_t shard,
                                     const Request& request);

  /// Waits for a reserved part's grant; NetError (the shard died between
  /// Reserved and Granted) becomes ShardUnreachable.
  service::AcquireResult shard_finish(std::uint32_t shard,
                                      service::Reservation& reservation);

  /// Delivers one sub-release, deferring it if the shard is down or the
  /// call dies with NetError. Returns true when delivered; `*ok`
  /// receives the shard's verdict (valid only when delivered).
  bool try_release(std::uint32_t shard, LeaseId lease, bool* ok) const;

  /// Routable shards: up, or down with a probe slot claimed, minus
  /// `excluded` (shards that already failed this request).
  [[nodiscard]] std::vector<bool> routable_snapshot(
      const std::vector<bool>& excluded) const;

  /// Whether a non-acquire call (release/stats) should attempt this
  /// shard now: up, or down with a probe slot claimed.
  [[nodiscard]] bool should_attempt(std::uint32_t shard) const;

  /// Health accounting around every shard round trip. record_success
  /// resets the failure streak and, on a down -> up transition, flushes
  /// the shard's deferred releases. record_failure marks the shard down
  /// (and drops its connection pool) after down_threshold consecutive
  /// NetErrors.
  void record_success(std::uint32_t shard) const;
  void record_failure(std::uint32_t shard) const;

  /// Parks a release for a currently unreachable shard (replayed by
  /// record_success on recovery).
  void defer_release(std::uint32_t shard, LeaseId lease) const;

  void bump(const char* counter) const;

  ClusterConfig config_;
  Placement placement_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> closed_{false};

  /// Per-shard health (guarded by route_mu_): consecutive NetErrors,
  /// down flag, and the next probe admission time while down.
  struct ShardHealth {
    std::uint32_t consecutive = 0;
    bool down = false;
    Clock::time_point next_probe{};
  };

  // Scatter-lease table, shard health, and deferred releases: held only
  // over map/vector ops, never across shard calls.
  // fbc:lock-level(5)
  // fbc:guards(scatter_)
  // fbc:guards(next_scatter_id_)
  // fbc:guards(health_)
  // fbc:guards(pending_release_)
  mutable OrderedMutex route_mu_{5, "ClusterRouter::route_mu_"};
  std::unordered_map<LeaseId, std::vector<std::pair<std::uint32_t, LeaseId>>>
      scatter_;
  LeaseId next_scatter_id_ = 1;
  mutable std::vector<ShardHealth> health_;
  mutable std::vector<std::vector<LeaseId>> pending_release_;

  // Router-level counters (job-level view, vs the shards' sub-request
  // view): grid.acquire.single / .scatter / .rollback / .rerouted,
  // grid.release.unknown / .partial / .deferred, grid.shard.down /
  // .recovered, grid.stats.partial; and the two scatter histograms.
  // fbc:lock-level(6)
  // fbc:guards(grid_counters_, scatter_reserve_us_, scatter_grant_us_)
  mutable OrderedMutex grid_obs_mu_{6, "ClusterRouter::grid_obs_mu_"};
  mutable obs::CounterRegistry grid_counters_;
  obs::Histogram scatter_reserve_us_;  ///< plan -> every part reserved
  obs::Histogram scatter_grant_us_;    ///< then -> every part granted
};

/// One in-process cluster: N BundleServers (shard_id = 0..N-1, each with
/// its own staging cache) behind a ClusterRouter. The router is declared
/// last, so it is destroyed before the servers it routes to.
struct ClusterStack {
  std::vector<std::unique_ptr<service::BundleServer>> servers;
  std::unique_ptr<ClusterRouter> router;
};

/// Builds an in-process cluster of `cluster_config.shards` servers that
/// all fetch from `backend`. `service_config.cache_bytes` is the
/// per-shard capacity; each server gets its index as shard_id. `backend`
/// (and its catalog) must outlive the stack.
[[nodiscard]] ClusterStack make_local_cluster(
    const ClusterConfig& cluster_config, service::ServiceConfig service_config,
    const StorageBackend& backend);

}  // namespace fbc::cluster
