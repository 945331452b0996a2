// Cluster scheduling-harness tests: cluster feasibility-floor math,
// serial-replay determinism, serial-vs-concurrent equivalence across
// random schedules / placements / policies (the fbcfuzz --cluster-diff
// oracle), leak detection for held leases, and reproducer-trace
// round-trips through the fuzzer's replay dispatch.
#include "testing/cluster_sim.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "testing/fuzzer.hpp"
#include "util/rng.hpp"

namespace fbc::testing {
namespace {

service::ServiceConfig replay_config(const std::string& policy,
                                     std::uint64_t seed) {
  service::ServiceConfig config;
  config.policy = policy;
  config.seed = seed;
  return config;
}

cluster::ClusterConfig cluster_config(std::uint32_t shards,
                                      cluster::PlacementMode placement) {
  cluster::ClusterConfig config;
  config.shards = shards;
  config.placement = placement;
  config.vnodes = 16;
  config.spill_threshold = 0.1;  // small fuzz caches: force real scatters
  return config;
}

/// Two disjoint single-file ops on one client; op 1 releases op 0 first.
SchedInstance two_op_instance(std::size_t wave) {
  SchedInstance instance;
  instance.catalog = FileCatalog({10, 20});
  instance.wave = wave;
  SchedOp first;
  first.client = 0;
  first.request = Request({0});
  SchedOp second;
  second.client = 0;
  second.release_oldest = true;
  second.request = Request({1});
  instance.ops = {first, second};
  instance.cache_bytes = cluster_feasible_floor(instance);
  return instance;
}

TEST(ClusterFeasibleFloor, WaveOfOneReleasesBetweenOps) {
  // Serial waves: op 0 pins 10, op 1 releases it first, so the floor is
  // the larger single bundle.
  EXPECT_EQ(cluster_feasible_floor(two_op_instance(1)), 20u);
}

TEST(ClusterFeasibleFloor, WaveOfTwoSumsTheWholeWave)  {
  // Both ops land in one wave. The release runs during the paused phase
  // -- but unlike sched_sim's per-op floor, the cluster floor charges the
  // whole wave's bundles at once (intra-wave admission order is racy), so
  // it needs 10 + 20.
  EXPECT_EQ(cluster_feasible_floor(two_op_instance(2)), 30u);
}

TEST(ClusterFeasibleFloor, AtLeastTheSchedFloor) {
  SchedGenConfig gen;
  gen.max_ops = 16;
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const SchedInstance instance = generate_sched_instance(gen, rng);
    EXPECT_GE(cluster_feasible_floor(instance),
              feasible_cache_floor(instance));
  }
}

TEST(ClusterSim, SerialReplayIsDeterministic) {
  SchedGenConfig gen;
  gen.max_ops = 20;
  Rng rng(11);
  const SchedInstance instance = generate_sched_instance(gen, rng);
  const cluster::ClusterConfig cluster =
      cluster_config(3, cluster::PlacementMode::HashFile);
  const ClusterOutcome a =
      run_cluster_schedule(instance, replay_config("optfb", 1), cluster,
                           /*concurrent=*/false);
  const ClusterOutcome b =
      run_cluster_schedule(instance, replay_config("optfb", 1), cluster,
                           /*concurrent=*/false);
  EXPECT_EQ(a, b) << "--- first ---\n"
                  << to_string(a) << "--- second ---\n"
                  << to_string(b);
}

TEST(ClusterSim, ScatterLeasesAreGatheredAndReleased) {
  // A hash-placed multi-file bundle must scatter on a 4-shard cluster
  // (16 files cannot all live on one ring shard with high probability at
  // this seed) and the replay must end with zero outstanding leases.
  SchedInstance instance;
  for (int i = 0; i < 16; ++i) instance.catalog.add_file(10);
  instance.wave = 1;
  SchedOp op;
  op.client = 0;
  op.request = Request({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  instance.ops = {op};
  instance.cache_bytes = cluster_feasible_floor(instance);
  const cluster::ClusterConfig cluster =
      cluster_config(4, cluster::PlacementMode::HashFile);
  const ClusterOutcome outcome = run_cluster_schedule(
      instance, replay_config("optfb", 1), cluster, /*concurrent=*/false);
  EXPECT_EQ(outcome.scatter_acquires + outcome.single_acquires, 1u);
  EXPECT_EQ(outcome.rollbacks, 0u);
  // Every file landed somewhere and nowhere twice (hash partition).
  std::size_t resident_total = 0;
  for (const auto& shard : outcome.resident) resident_total += shard.size();
  EXPECT_EQ(resident_total, 16u);
}

TEST(ClusterSim, SerialAndConcurrentAgreeAcrossSeeds) {
  // The fbcfuzz --cluster-diff oracle on a deterministic mini-campaign:
  // random schedules, both placements, 2..4 shards, three policies.
  SchedGenConfig gen;
  gen.max_ops = 16;
  gen.max_files = 12;
  Rng rng(0xc1a57e4ULL);
  const char* policies[] = {"optfb", "landlord", "dist-online"};
  for (int i = 0; i < 12; ++i) {
    const SchedInstance instance = generate_sched_instance(gen, rng);
    const cluster::ClusterConfig cluster = cluster_config(
        2 + static_cast<std::uint32_t>(rng.index(3)),
        rng.bernoulli(0.5) ? cluster::PlacementMode::BundleAffinity
                           : cluster::PlacementMode::HashFile);
    const std::optional<std::string> diff = check_cluster_equivalence(
        instance,
        replay_config(policies[i % 3], static_cast<std::uint64_t>(1 + i)),
        cluster);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

TEST(ClusterSim, TraceRoundTripsWithTopologyMeta) {
  SchedGenConfig gen;
  gen.max_ops = 8;
  Rng rng(23);
  const SchedInstance instance = generate_sched_instance(gen, rng);
  cluster::ClusterConfig cluster =
      cluster_config(3, cluster::PlacementMode::BundleAffinity);
  cluster.spill_threshold = 0.25;
  const Trace trace = cluster_instance_to_trace(instance, cluster);
  const std::string* kind = trace.meta_value("kind");
  ASSERT_NE(kind, nullptr);
  EXPECT_EQ(*kind, "cluster");  // rewritten, not shadowed

  const auto [parsed, parsed_cluster, parsed_faults] =
      cluster_instance_from_trace(trace);
  EXPECT_TRUE(parsed_faults.empty());  // no faults meta -> empty plan
  EXPECT_EQ(parsed.cache_bytes, instance.cache_bytes);
  EXPECT_EQ(parsed.wave, instance.wave);
  ASSERT_EQ(parsed.ops.size(), instance.ops.size());
  for (std::size_t i = 0; i < parsed.ops.size(); ++i)
    EXPECT_EQ(parsed.ops[i], instance.ops[i]);
  EXPECT_EQ(parsed_cluster.shards, 3u);
  EXPECT_EQ(parsed_cluster.placement, cluster::PlacementMode::BundleAffinity);
  EXPECT_EQ(parsed_cluster.vnodes, 16u);
  EXPECT_DOUBLE_EQ(parsed_cluster.spill_threshold, 0.25);
}

TEST(ClusterSim, ReplayDispatchRunsClusterReproducers) {
  // A healthy schedule round-trips through the fuzzer's replay entry
  // point and reports no violations.
  SchedGenConfig gen;
  gen.max_ops = 6;
  Rng rng(31);
  const SchedInstance instance = generate_sched_instance(gen, rng);
  const cluster::ClusterConfig cluster =
      cluster_config(2, cluster::PlacementMode::HashFile);
  Trace trace = cluster_instance_to_trace(instance, cluster);
  trace.set_meta("policy", "landlord");
  trace.set_meta("cluster_seed", "42");
  const std::vector<Violation> violations = replay_reproducer(trace);
  EXPECT_TRUE(violations.empty());
}

TEST(ClusterSim, MissingTopologyMetaThrows) {
  SchedInstance instance = two_op_instance(1);
  const Trace trace = sched_instance_to_trace(instance);  // kind=serve
  EXPECT_THROW((void)cluster_instance_from_trace(trace), std::runtime_error);
}

TEST(ClusterSim, KillWaveReroutesAndLosesNoLease) {
  // Kill one shard for the middle of the schedule. Every request still
  // gets served (re-routed to the survivors), the replay's end-state
  // audits pass (run_cluster_schedule throws on a leaked lease, a
  // surviving scatter entry, or an undelivered deferred release), and
  // the health counters record the down/recover round trip.
  SchedGenConfig gen;
  gen.max_ops = 24;
  Rng rng(67);
  const SchedInstance instance = generate_sched_instance(gen, rng);
  cluster::ClusterConfig cluster =
      cluster_config(3, cluster::PlacementMode::HashFile);
  cluster.down_threshold = 1;
  FaultPlan faults;
  faults.events.push_back({1, 1, true});    // kill shard 1 at wave 1
  faults.events.push_back({3, 1, false});   // revive + probe at wave 3
  const ClusterOutcome outcome =
      run_cluster_schedule(instance, replay_config("optfb", 1), cluster,
                           /*concurrent=*/false, faults);
  for (const GrantRecord& g : outcome.grants)
    EXPECT_NE(g.status,
              static_cast<std::uint8_t>(service::AcquireStatus::ShardsDown));
  if (outcome.shard_down_events > 0) {
    EXPECT_GT(outcome.rerouted, 0u);
    EXPECT_EQ(outcome.shard_recoveries, outcome.shard_down_events);
  }
}

TEST(ClusterSim, FaultedReplayIsDeterministic) {
  SchedGenConfig gen;
  gen.max_ops = 20;
  Rng rng(71);
  const SchedInstance instance = generate_sched_instance(gen, rng);
  cluster::ClusterConfig cluster =
      cluster_config(3, cluster::PlacementMode::BundleAffinity);
  cluster.down_threshold = 2;
  FaultPlan faults;
  faults.events.push_back({0, 2, true});
  faults.events.push_back({2, 2, false});
  faults.events.push_back({3, 0, true});
  const ClusterOutcome a =
      run_cluster_schedule(instance, replay_config("optfb", 1), cluster,
                           /*concurrent=*/false, faults);
  const ClusterOutcome b =
      run_cluster_schedule(instance, replay_config("optfb", 1), cluster,
                           /*concurrent=*/false, faults);
  EXPECT_EQ(a, b) << "--- first ---\n"
                  << to_string(a) << "--- second ---\n"
                  << to_string(b);
}

TEST(ClusterSim, SerialAndConcurrentAgreeUnderFaults) {
  // The faulted arm of the fbcfuzz --cluster-diff oracle: kill/revive
  // waves must not open a divergence between the serial and concurrent
  // replays (probe_ms = 0 keeps fault routing interleaving-independent).
  SchedGenConfig gen;
  gen.max_ops = 16;
  gen.max_files = 12;
  Rng rng(0xfa171e57ULL);
  const char* policies[] = {"optfb", "landlord", "dist-online"};
  for (int i = 0; i < 8; ++i) {
    const SchedInstance instance = generate_sched_instance(gen, rng);
    cluster::ClusterConfig cluster = cluster_config(
        2 + static_cast<std::uint32_t>(rng.index(3)),
        rng.bernoulli(0.5) ? cluster::PlacementMode::BundleAffinity
                           : cluster::PlacementMode::HashFile);
    cluster.down_threshold = 1 + static_cast<std::uint32_t>(rng.index(2));
    FaultPlan faults;
    faults.events.push_back(
        {rng.index(4), static_cast<std::uint32_t>(rng.index(cluster.shards)),
         true});
    if (rng.bernoulli(0.5))
      faults.events.push_back(
          {faults.events[0].wave + 1 + rng.index(3), faults.events[0].shard,
           false});
    const std::optional<std::string> diff = check_cluster_equivalence(
        instance,
        replay_config(policies[i % 3], static_cast<std::uint64_t>(1 + i)),
        cluster, faults);
    EXPECT_FALSE(diff.has_value()) << *diff;
  }
}

TEST(ClusterSim, FaultPlanRoundTripsThroughTrace) {
  SchedGenConfig gen;
  gen.max_ops = 8;
  Rng rng(29);
  const SchedInstance instance = generate_sched_instance(gen, rng);
  cluster::ClusterConfig cluster =
      cluster_config(3, cluster::PlacementMode::HashFile);
  cluster.down_threshold = 2;
  FaultPlan faults;
  faults.events.push_back({1, 2, true});
  faults.events.push_back({4, 2, false});
  const Trace trace = cluster_instance_to_trace(instance, cluster, faults);
  const auto [parsed, parsed_cluster, parsed_faults] =
      cluster_instance_from_trace(trace);
  EXPECT_EQ(parsed_cluster.down_threshold, 2u);
  ASSERT_EQ(parsed_faults.events.size(), 2u);
  EXPECT_EQ(parsed_faults.events[0].wave, 1u);
  EXPECT_EQ(parsed_faults.events[0].shard, 2u);
  EXPECT_TRUE(parsed_faults.events[0].kill);
  EXPECT_EQ(parsed_faults.events[1].wave, 4u);
  EXPECT_EQ(parsed_faults.events[1].shard, 2u);
  EXPECT_FALSE(parsed_faults.events[1].kill);
}

}  // namespace
}  // namespace fbc::testing
