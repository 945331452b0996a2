// Full data-grid site walk-through: every substrate working together.
//
// Models a realistic SRM deployment end to end:
//   * a bitmap-index query workload (paper §1.1),
//   * files originating at a remote WAN site, with a bounded local
//     replica pool filled by popularity (ReplicaManager),
//   * an SRM with THREE concurrent service slots whose in-flight working
//     sets stay pinned in the staging cache (paper §6 retention),
//   * OptFileBundle vs Landlord replacement underneath it all,
//   * and the same workload on a 4-shard ClusterRouter of independent
//     caches.
//
// Run: ./build/examples/grid_site [--jobs=N]
#include <iostream>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/router.hpp"
#include "core/registry.hpp"
#include "grid/replica.hpp"
#include "grid/srm.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/scenarios.hpp"

int main(int argc, char** argv) {
  using namespace fbc;

  CliParser cli("grid_site", "Full data-grid site demo (SRM + replication + "
                             "multi-slot service + cluster)");
  cli.add_option("jobs", "number of query jobs", "2500");
  cli.add_option("seed", "workload seed", "42");
  cli.parse(argc, argv);

  BitmapConfig config;
  config.seed = cli.get_u64("seed");
  config.num_jobs = cli.get_u64("jobs");
  const Workload w = generate_bitmap_workload(config);
  const Bytes cache_bytes = w.catalog.total_bytes() / 6;

  std::cout << "Workload: " << w.pool.size()
            << " distinct bitmap range queries over "
            << format_bytes(w.catalog.total_bytes()) << "; staging cache "
            << format_bytes(cache_bytes) << "\n\n";

  // --- replica pool fed from historical access counts -------------------
  std::vector<std::uint64_t> access_counts(w.catalog.count(), 0);
  for (const Request& job : w.jobs) {
    for (FileId id : job.files) ++access_counts[id];
  }
  std::vector<ReplicaSite> sites{
      ReplicaSite{"origin-wan", StorageTier{"wan", 2.0, 25.0 * MiB}, 0},
      ReplicaSite{"local-pool", StorageTier{"disk", 0.05, 400.0 * MiB},
                  w.catalog.total_bytes() / 4},
  };
  ReplicaManager replicas(sites, w.catalog);
  replicas.replicate_by_popularity(access_counts);
  std::cout << "Local replica pool: "
            << format_bytes(replicas.replica_bytes(1)) << " of hot bitmaps "
            << "replicated from the WAN origin.\n\n";

  // --- timed SRM with 3 concurrent service slots ------------------------
  Rng rng(config.seed + 7);
  std::vector<GridJob> jobs;
  double arrival = 0.0;
  for (const Request& r : w.jobs) {
    jobs.push_back(GridJob{r, arrival, rng.uniform_double(0.5, 2.0)});
    arrival += rng.uniform_double(0.0, 3.0);
  }

  TextTable srm_table({"policy", "slots", "throughput_jobs_per_h",
                       "mean_response_s", "data_staged"});
  for (const std::string name : {"optfb", "landlord"}) {
    for (std::size_t slots : {std::size_t{1}, std::size_t{3}}) {
      PolicyContext context;
      context.catalog = &w.catalog;
      PolicyPtr policy = make_policy(name, context);
      SrmConfig srm_config{.cache_bytes = cache_bytes,
                           .transfers = TransferModel{.max_parallel = 4}};
      srm_config.service_slots = slots;
      StorageResourceManager srm(srm_config, replicas, *policy);
      const SrmReport report = srm.run(jobs);
      srm_table.add_row({name, std::to_string(slots),
                         format_double(report.throughput_jobs_per_hour()),
                         format_double(report.response_s.mean()),
                         format_bytes(report.bytes_staged)});
    }
  }
  std::cout << "Timed SRM (replica-aware staging, pinned in-flight "
               "working sets):\n";
  srm_table.print(std::cout);

  // --- the same stream over a 4-shard cluster of independent caches -----
  // Four in-process BundleServer shards behind a ClusterRouter, each with
  // a quarter of the capacity, fetching from the same replica pool; the
  // jobs are replayed one at a time with no staging sleep.
  std::cout << "\n4-shard cluster (same total capacity, hash placement):\n";
  TextTable cluster_table({"policy", "request_hit", "byte_miss"});
  const std::size_t warmup = w.jobs.size() / 10;
  for (const std::string name : {"optfb", "landlord"}) {
    service::ServiceConfig service_config;
    service_config.cache_bytes = cache_bytes / 4;
    service_config.policy = name;
    service_config.time_scale = 0.0;
    cluster::ClusterConfig cluster_config;
    cluster_config.shards = 4;
    cluster_config.placement = cluster::PlacementMode::HashFile;
    const cluster::ClusterStack stack =
        cluster::make_local_cluster(cluster_config, service_config, replicas);
    service::ServiceStats at_warmup;
    std::size_t hits = 0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      if (i == warmup) at_warmup = stack.router->stats();
      // A bundle part larger than its shard is refused (Unserviceable)
      // and counts as a miss.
      const service::AcquireResult result = stack.router->acquire(w.jobs[i]);
      if (result.status != service::AcquireStatus::Ok) continue;
      if (i >= warmup && result.request_hit) ++hits;
      stack.router->release(result.lease);
    }
    const service::ServiceStats end = stack.router->stats();
    const double measured = static_cast<double>(w.jobs.size() - warmup);
    const double requested =
        static_cast<double>(end.bytes_requested - at_warmup.bytes_requested);
    cluster_table.add_row(
        {name, format_double(static_cast<double>(hits) / measured),
         format_double(
             static_cast<double>(end.bytes_missed - at_warmup.bytes_missed) /
             requested)});
  }
  cluster_table.print(std::cout);
  std::cout << "\nEverything composes: replica placement cuts WAN fetches, "
               "multi-slot service overlaps staging with processing, and "
               "bundle-aware replacement keeps whole query working sets "
               "resident.\n";
  return 0;
}
