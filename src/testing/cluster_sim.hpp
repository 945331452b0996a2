// Deterministic schedule replay for a sharded serving cluster.
//
// Extends sched_sim to a ClusterRouter over N in-process BundleServer
// shards. The same SchedInstance drives two replays:
//
//  - serial-router: a single thread issues the ops in schedule order
//    through ClusterRouter::acquire/release. Fully deterministic for any
//    placement, including scatter/gather -- sub-acquires of one op run
//    to completion before the next op starts.
//
//  - concurrent-router: the sched_sim wave protocol generalized to N
//    shards. Admission is paused on *every* shard, the wave's releases
//    run first, one thread per acquire is spawned (the driver waits for
//    each to be visibly queued somewhere -- summed queue depth -- or
//    already finished), then all shards unpause and the wave drains.
//
// Both replays also check every granted scatter: each of its parts was
// reserved before any part was granted (the router's two-round scatter).
//
// With wave == 1 the concurrent replay degenerates to sequential arrival
// and the two outcomes must be bit-identical (strict oracle: statuses,
// hit flags, per-shard residency, counters). With wave > 1 per-shard
// admission order within a wave is scheduler-dependent by design, so the
// oracle relaxes to what must still hold under any interleaving: the
// per-wave multiset of (client, status), the total grant count, both
// replays' per-shard audits, and no scatter lease left behind.
#pragma once

#include <optional>
#include <string>

#include "cluster/config.hpp"
#include "testing/sched_sim.hpp"

namespace fbc::testing {

/// One planned shard fault, applied at a wave boundary: before any op of
/// wave `wave` (0-based, ops [wave * instance.wave, ...)) is issued, the
/// shard's FaultInjectionShard wrapper starts (kill) or stops (revive)
/// throwing NetError. A revive also probes the shard through the router,
/// so recovery -- and the deferred-release flush it triggers -- lands at
/// a deterministic point in both replays.
struct FaultEvent {
  std::size_t wave = 0;
  std::uint32_t shard = 0;
  bool kill = true;  ///< false = revive + probe
};

/// The kill/revive schedule a replay injects. With probe_ms forced to 0
/// (see run_cluster_schedule) routing stays a pure function of the
/// request and the wave's killed set, so a faulted replay is as
/// deterministic as a clean one.
struct FaultPlan {
  std::vector<FaultEvent> events;
  [[nodiscard]] bool empty() const { return events.empty(); }
};

/// What the cluster equivalence oracle compares between replays.
struct ClusterOutcome {
  std::vector<GrantRecord> grants;  ///< one per op, schedule order
  std::vector<std::vector<FileId>> resident;  ///< per shard, sorted
  std::uint64_t requests = 0;       ///< summed shard stats
  std::uint64_t request_hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t single_acquires = 0;   ///< grid.acquire.single
  std::uint64_t scatter_acquires = 0;  ///< grid.acquire.scatter
  std::uint64_t rollbacks = 0;         ///< grid.acquire.rollback
  std::uint64_t rerouted = 0;          ///< grid.acquire.rerouted
  std::uint64_t shard_down_events = 0;   ///< grid.shard.down
  std::uint64_t shard_recoveries = 0;    ///< grid.shard.recovered

  bool operator==(const ClusterOutcome&) const = default;
};

/// Renders an outcome for mismatch diagnostics.
[[nodiscard]] std::string to_string(const ClusterOutcome& outcome);

/// Capacity floor under which a *concurrent* cluster replay could stall:
/// within a wave, per-shard admission order is interleaving-dependent, so
/// feasibility must hold for any order -- pinned bytes at wave start plus
/// the whole wave's bundle bytes must fit. (Stronger than sched_sim's
/// feasible_cache_floor, which assumes op-order admission; it is an upper
/// bound for every shard since a shard sees at most the full bundles.)
[[nodiscard]] Bytes cluster_feasible_floor(const SchedInstance& instance);

/// Replays `instance` against a ClusterRouter over `cluster.shards` real
/// BundleServers (each with max(instance.cache_bytes,
/// cluster_feasible_floor) capacity; order forced to Fifo, time_scale 0,
/// probe_ms forced to 0 so fault routing is interleaving-independent).
/// Every shard is wrapped in a FaultInjectionShard and `faults` is
/// applied at wave boundaries; at the end all shards are revived and
/// probed, leftover leases are released, and any shard audit violation,
/// surviving scatter lease, or undelivered deferred release throws
/// std::runtime_error -- a kill/revive wave must not lose a lease.
[[nodiscard]] ClusterOutcome run_cluster_schedule(
    const SchedInstance& instance, service::ServiceConfig config,
    const cluster::ClusterConfig& cluster, bool concurrent,
    const FaultPlan& faults = {});

/// Runs the serial-router and concurrent-router replays and describes the
/// first divergence the applicable oracle (strict for wave == 1, relaxed
/// otherwise -- see file comment) finds, or std::nullopt when equivalent.
[[nodiscard]] std::optional<std::string> check_cluster_equivalence(
    const SchedInstance& instance, const service::ServiceConfig& config,
    const cluster::ClusterConfig& cluster, const FaultPlan& faults = {});

/// Serializes a cluster schedule as a v3 trace (kind=cluster): the
/// sched_sim trace plus the cluster topology meta entries and, when the
/// fault plan is non-empty, a `faults` entry ("wave:shard:kill;..." --
/// one clause per event) plus the health knobs that shape its metrics.
[[nodiscard]] Trace cluster_instance_to_trace(
    const SchedInstance& instance, const cluster::ClusterConfig& cluster,
    const FaultPlan& faults = {});

/// Everything a kind=cluster trace round-trips.
struct ClusterTraceParts {
  SchedInstance instance;
  cluster::ClusterConfig cluster;
  FaultPlan faults;
};

/// Parses a trace produced by cluster_instance_to_trace(). Traces from
/// before fault injection (no `faults` meta) parse to an empty plan.
[[nodiscard]] ClusterTraceParts cluster_instance_from_trace(
    const Trace& trace);

}  // namespace fbc::testing
