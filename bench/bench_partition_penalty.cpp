// Cluster extension bench: the partitioning penalty of running the SRM's
// disk cache as N independent shard caches (paper §1 deployment note)
// versus one cache of the same total capacity, for both OptFileBundle and
// Landlord. Each configuration is an in-process ClusterRouter over N
// BundleServer shards at time_scale 0, and the job stream is replayed
// serially: acquire a job, release it, take the next. The 1-shard row is
// the monolithic reference. Hash rows split every bundle file by file over
// the shards; affinity rows keep each bundle on one home shard.
//
// Exits 1 when any acquire is not Ok, a release fails, a scatter lease is
// left over, or a shard audit finds a violation.
#include <cstdint>
#include <iostream>
#include <string>

#include "cluster/config.hpp"
#include "cluster/router.hpp"
#include "common/harness.hpp"
#include "grid/mss.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

using namespace fbc;
using namespace fbc::bench;

namespace {

WorkloadConfig base_workload(std::size_t jobs) {
  WorkloadConfig config;
  config.seed = 1;
  config.cache_bytes = 64 * MiB;
  config.num_files = 1500;  // working set ~4x the cache: real pressure
  config.min_file_bytes = 64 * KiB;
  config.max_file_frac = 0.005;  // small files: shard parts always fit
  config.num_requests = 600;
  config.min_bundle_files = 2;
  config.max_bundle_files = 8;
  config.num_jobs = jobs;
  config.popularity = Popularity::Zipf;
  return config;
}

/// Post-warm-up quality of one serial replay.
struct Quality {
  double byte_miss = 0.0;
  double request_hit = 0.0;
};

/// Replays the job stream serially through `shards` shards that share
/// `total_bytes` equally. Request hit comes from the acquire results, byte
/// miss from the router's stats after the warm-up prefix. Every problem is
/// reported on stderr and counted in `*violations`.
Quality replay(const Workload& w, Bytes total_bytes, std::uint32_t shards,
               cluster::PlacementMode placement, const std::string& policy,
               std::uint64_t seed, std::size_t warmup, int* violations) {
  MassStorageSystem mss(default_tiers(), w.catalog);
  service::ServiceConfig service;
  service.cache_bytes = total_bytes / shards;
  service.policy = policy;
  service.time_scale = 0.0;
  service.seed = seed;
  cluster::ClusterConfig config;
  config.shards = shards;
  config.placement = placement;
  const cluster::ClusterStack stack =
      cluster::make_local_cluster(config, service, mss);
  cluster::ClusterRouter& router = *stack.router;

  const std::string where = std::to_string(shards) + "-shard/" +
                            cluster::to_string(placement) + "/" + policy;
  service::ServiceStats at_warmup;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (i == warmup) at_warmup = router.stats();
    const service::AcquireResult result = router.acquire(w.jobs[i]);
    if (result.status != service::AcquireStatus::Ok) {
      std::cerr << "bench_partition_penalty: " << where << ": job " << i
                << ": " << service::to_string(result.status) << "\n";
      ++*violations;
      continue;
    }
    if (i >= warmup && result.request_hit) ++hits;
    if (!router.release(result.lease)) {
      std::cerr << "bench_partition_penalty: " << where << ": job " << i
                << ": release refused\n";
      ++*violations;
    }
  }
  if (router.scatter_leases() != 0) {
    std::cerr << "bench_partition_penalty: " << where << ": "
              << router.scatter_leases() << " scatter leases left over\n";
    ++*violations;
  }
  for (std::size_t s = 0; s < stack.servers.size(); ++s)
    for (const std::string& v : stack.servers[s]->audit()) {
      std::cerr << "bench_partition_penalty: " << where << ": shard " << s
                << ": " << v << "\n";
      ++*violations;
    }

  const service::ServiceStats end = router.stats();
  const std::uint64_t requested =
      end.bytes_requested - at_warmup.bytes_requested;
  const std::size_t measured = w.jobs.size() - warmup;
  Quality quality;
  if (requested > 0)
    quality.byte_miss =
        static_cast<double>(end.bytes_missed - at_warmup.bytes_missed) /
        static_cast<double>(requested);
  if (measured > 0)
    quality.request_hit =
        static_cast<double>(hits) / static_cast<double>(measured);
  return quality;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_partition_penalty",
                "One cache vs N independent shard caches of the same total");
  add_common_options(cli);
  cli.parse(argc, argv);

  const std::size_t jobs = cli.get_u64("jobs");
  const std::uint64_t seed = cli.get_u64("seed");
  WorkloadConfig wconfig = base_workload(jobs);
  wconfig.seed = seed;
  const Workload w = generate_workload(wconfig);
  const std::size_t warmup = default_warmup(jobs);

  TextTable table({"configuration", "policy", "byte_miss", "request_hit"});
  int violations = 0;
  for (const std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (const cluster::PlacementMode placement :
         {cluster::PlacementMode::HashFile,
          cluster::PlacementMode::BundleAffinity}) {
      // One shard places every bundle alike: a single monolithic row.
      if (shards == 1 && placement != cluster::PlacementMode::HashFile)
        continue;
      const std::string configuration =
          shards == 1 ? "1-shard"
                      : std::to_string(shards) + "-shard/" +
                            cluster::to_string(placement);
      for (const std::string policy : {"optfb", "landlord"}) {
        const Quality q = replay(w, wconfig.cache_bytes, shards, placement,
                                 policy, seed, warmup, &violations);
        table.add_row({configuration, policy, format_double(q.byte_miss),
                       format_double(q.request_hit)});
      }
    }
  }

  std::cout << "Cluster partitioning penalty (total capacity fixed at "
            << format_bytes(wconfig.cache_bytes) << ", Zipf workload)\n";
  emit(cli, table);
  std::cout << "Expectations: request hit falls at every shard step under "
               "both placements (a job hits only when every shard holds its "
               "part); byte miss need not rise monotonically; OptFileBundle "
               "leads Landlord on both metrics in every row.\n";
  return violations == 0 ? 0 : 1;
}
