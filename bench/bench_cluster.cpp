// Serving-cluster scaling bench: aggregate acquire/release throughput of
// a ClusterRouter fronting N in-process BundleServer shards, driven
// directly through the ServingEndpoint interface (no sockets), so the
// measured quantity is the serving stack itself -- router placement,
// per-shard admission, policy eviction work -- not loopback TCP.
//
// The N=1 configuration runs the same router code path over a single
// shard, so the N-shard speedup isolates what sharding buys: N
// independent admission locks and N policy instances evicting in
// parallel. It is the harness behind EXPERIMENTS.md's "Cluster" table;
// the benchmark that gates the router is perfbench's henp-fleet workload.
//
//   bench_cluster --shards=4 --connections=16 -n 40000 --json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/router.hpp"
#include "common/harness.hpp"
#include "grid/mss.hpp"
#include "service/endpoint.hpp"
#include "service/server.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

using namespace fbc;

namespace {

using Clock = std::chrono::steady_clock;

/// Tallies of one driver thread.
struct WorkerResult {
  std::vector<double> latencies_ms;
  std::uint64_t ok = 0;
  std::uint64_t hits = 0;
  std::uint64_t failed = 0;
  std::uint64_t queue_retries = 0;
};

/// Replays job indices i with i % connections == worker against the
/// endpoint, releasing each lease as soon as it is granted. QueueFull is
/// backpressure, not failure: back off briefly and retry a bounded
/// number of times.
void run_worker(service::ServingEndpoint* endpoint, const Workload& workload,
                std::size_t worker, std::size_t connections,
                std::size_t total_requests, WorkerResult* out) {
  constexpr int kMaxQueueRetries = 1000;
  for (std::size_t i = worker; i < total_requests; i += connections) {
    const Request& job = workload.jobs[i % workload.jobs.size()];
    const Clock::time_point start = Clock::now();
    service::AcquireResult r = endpoint->acquire(job);
    for (int retry = 0;
         r.status == service::AcquireStatus::QueueFull &&
         retry < kMaxQueueRetries;
         ++retry) {
      ++out->queue_retries;
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      r = endpoint->acquire(job);
    }
    if (r.status != service::AcquireStatus::Ok) {
      ++out->failed;
      continue;
    }
    const std::chrono::duration<double, std::milli> lat =
        Clock::now() - start;
    out->latencies_ms.push_back(lat.count());
    ++out->ok;
    if (r.request_hit) ++out->hits;
    if (!endpoint->release(r.lease)) ++out->failed;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-n") arg = "--requests";
    args.push_back(std::move(arg));
  }

  CliParser cli("bench_cluster",
                "Aggregate serving throughput vs shard count");
  cli.add_option("shards", "cluster shard count", "4");
  cli.add_option("placement", "file placement: hash|affinity", "affinity");
  cli.add_option("vnodes", "hash-ring virtual nodes per shard", "64");
  cli.add_option("spill-threshold",
                 "bundle-affinity spill fraction of shard capacity", "0.5");
  cli.add_option("connections", "concurrent driver threads", "16");
  cli.add_option("requests", "total acquire requests (-n)", "40000");
  cli.add_option("cache", "per-shard cache bytes", "4194304");
  cli.add_option("policy", "per-shard replacement policy", "optfb");
  cli.add_option("seed", "workload seed", "42");
  cli.add_flag("json", "emit the report as JSON");
  cli.add_flag("csv", "emit the report as CSV");

  try {
    cli.parse(args);
    const auto shard_count = static_cast<std::uint32_t>(cli.get_u64("shards"));
    const std::size_t connections = cli.get_u64("connections");
    const std::size_t total_requests = cli.get_u64("requests");
    if (connections == 0) throw std::invalid_argument("need --connections>0");

    // Size the workload against the aggregate capacity so every shard
    // count sees the same per-capacity pressure: ~6x the aggregate cache
    // in distinct bytes keeps the eviction path (the CPU-heavy part of
    // admission) hot without making every job a full restage.
    const Bytes shard_cache = cli.get_u64("cache");
    WorkloadConfig wconfig;
    wconfig.seed = cli.get_u64("seed");
    wconfig.cache_bytes = shard_cache * shard_count;
    wconfig.num_files = 600;
    wconfig.min_file_bytes = wconfig.cache_bytes / 100;
    wconfig.max_file_frac = 0.02;
    wconfig.num_requests = 400;
    wconfig.min_bundle_files = 1;
    wconfig.max_bundle_files = 4;
    wconfig.num_jobs = 4000;
    wconfig.popularity = Popularity::Zipf;
    wconfig.zipf_alpha = 0.8;
    const Workload workload = generate_workload(wconfig);

    service::ServiceConfig config;
    config.cache_bytes = shard_cache;
    config.policy = cli.get_string("policy");
    config.time_scale = 0.0;  // no simulated staging sleeps: CPU-bound
    config.seed = wconfig.seed;

    cluster::ClusterConfig cluster_config;
    cluster_config.shards = shard_count;
    cluster_config.placement = cluster::parse_placement(
        cli.get_string("placement"));
    cluster_config.vnodes = static_cast<std::uint32_t>(cli.get_u64("vnodes"));
    cluster_config.spill_threshold = cli.get_double("spill-threshold");

    MassStorageSystem mss(default_tiers(), workload.catalog);
    const cluster::ClusterStack stack =
        cluster::make_local_cluster(cluster_config, config, mss);
    cluster::ClusterRouter& router = *stack.router;

    std::vector<WorkerResult> results(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    const auto wall_start = Clock::now();
    for (std::size_t w = 0; w < connections; ++w)
      threads.emplace_back(run_worker, &router, std::cref(workload), w,
                           connections, total_requests, &results[w]);
    for (std::thread& t : threads) t.join();
    const std::chrono::duration<double> wall = Clock::now() - wall_start;

    WorkerResult total;
    for (WorkerResult& r : results) {
      total.ok += r.ok;
      total.hits += r.hits;
      total.failed += r.failed;
      total.queue_retries += r.queue_retries;
      total.latencies_ms.insert(total.latencies_ms.end(),
                                r.latencies_ms.begin(), r.latencies_ms.end());
    }

    // Post-run invariants: every shard audit clean, no scatter leases
    // outstanding. A bench that leaks leases reports garbage throughput.
    int violations = 0;
    for (std::size_t s = 0; s < stack.servers.size(); ++s)
      for (const std::string& v : stack.servers[s]->audit()) {
        std::cerr << "bench_cluster: shard " << s << ": " << v << "\n";
        ++violations;
      }
    if (router.scatter_leases() != 0) {
      std::cerr << "bench_cluster: " << router.scatter_leases()
                << " scatter leases outstanding\n";
      ++violations;
    }

    const service::ServiceStats stats = router.stats();
    const double wall_s = std::max(wall.count(), 1e-9);
    TextTable table({"shards", "placement", "policy", "connections",
                     "requests", "ok", "failed", "request_hit_pct",
                     "queue_retries", "evictions", "throughput_rps", "p50_ms",
                     "p99_ms"});
    table.add_row(
        {std::to_string(shard_count), cli.get_string("placement"),
         config.policy, std::to_string(connections),
         std::to_string(total_requests), std::to_string(total.ok),
         std::to_string(total.failed),
         format_double(total.ok == 0
                           ? 0.0
                           : 100.0 * static_cast<double>(total.hits) /
                                 static_cast<double>(total.ok)),
         std::to_string(total.queue_retries), std::to_string(stats.evictions),
         format_double(static_cast<double>(total.ok) / wall_s),
         format_double(quantile(total.latencies_ms, 0.50)),
         format_double(quantile(total.latencies_ms, 0.99))});
    if (cli.get_flag("json")) {
      table.print_json(std::cout);
    } else {
      table.print(std::cout);
    }
    return violations == 0 && total.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_cluster: " << e.what() << "\n";
    return 2;
  }
}
