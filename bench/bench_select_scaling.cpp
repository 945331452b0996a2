// Per-miss selection cost: Reference vs Incremental engine, sweeping
// history length x cache size (the paper's §5.2 scaling concern).
//
// For each sweep point the same workload is replayed twice -- once per
// engine -- and the deterministic per-decision effort counters
// (candidates scanned, entries rescored, heap ops; see SelectionCost) are
// reported next to wall-clock ns/decision. The engines must agree on the
// byte miss ratio bit for bit; the bench aborts if they do not.
//
// The claim to verify: the reference engine's per-miss work grows
// ~linearly with the history length, the incremental engine's
// rescored-entry count stays sublinear. The test
// IncrementalSelect.RescoresFewerEntriesThanReference pins the smoke
// sweep's largest point (history 400, 64 MiB) for both policies.
//
//   bench_select_scaling            # full sweep
//   bench_select_scaling --smoke    # CI: quick sweep
#include <chrono>
#include <iostream>
#include <vector>

#include "common/harness.hpp"

using namespace fbc;
using namespace fbc::bench;

namespace {

struct EngineRun {
  SelectionCost cost;
  double byte_miss = 0.0;
  double ns_per_decision = 0.0;
};

struct Point {
  std::string policy;
  std::size_t history_entries = 0;  ///< request-pool size == |L(R)| plateau
  Bytes cache_bytes = 0;
  EngineRun engine[2];  ///< indexed by SelectEngine
};

WorkloadConfig make_workload(std::size_t pool, Bytes cache, std::size_t jobs,
                             std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.cache_bytes = cache;
  config.num_files = 300;
  config.min_file_bytes = 64 * KiB;
  config.max_file_frac = 0.01;
  config.num_requests = pool;
  config.min_bundle_files = 1;
  config.max_bundle_files = 8;
  config.num_jobs = jobs;
  config.popularity = Popularity::Zipf;
  return config;
}

EngineRun run_engine(const Workload& workload, const std::string& policy_name,
                     SelectEngine engine, Bytes cache, std::uint64_t seed) {
  PolicyContext context;
  context.catalog = &workload.catalog;
  context.jobs = workload.jobs;
  context.seed = seed;
  context.select_engine = engine;
  PolicyPtr policy = make_policy(policy_name, context);

  SimulatorConfig sim;
  sim.cache_bytes = cache;
  sim.warmup_jobs = 0;  // count every decision

  const auto start = std::chrono::steady_clock::now();
  const SimulationResult result =
      simulate(sim, workload.catalog, *policy, workload.jobs);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EngineRun run;
  run.cost = result.metrics.selection_cost();
  run.byte_miss = result.metrics.byte_miss_ratio();
  if (run.cost.decisions > 0) {
    run.ns_per_decision =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        static_cast<double>(run.cost.decisions);
  }
  return run;
}

double per_decision(std::uint64_t total, std::uint64_t decisions) {
  return decisions == 0 ? 0.0
                        : static_cast<double>(total) /
                              static_cast<double>(decisions);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_select_scaling",
                "Per-miss selection cost: Reference vs Incremental engine "
                "over history length x cache size");
  cli.add_option("jobs", "jobs per simulation run", "3000");
  cli.add_option("seed", "workload seed", "1");
  cli.add_flag("smoke", "quick CI sweep (fewer points, fewer jobs)");
  cli.add_flag("csv", "emit CSV instead of the aligned table");

  try {
    cli.parse(argc, argv);
    const bool smoke = cli.get_flag("smoke");
    const std::size_t jobs =
        cli.was_set("jobs") ? cli.get_u64("jobs") : (smoke ? 800 : 3000);
    const std::uint64_t seed = cli.get_u64("seed");

    const std::vector<std::size_t> pools =
        smoke ? std::vector<std::size_t>{100, 400}
              : std::vector<std::size_t>{100, 200, 400, 800, 1600};
    const std::vector<Bytes> caches =
        smoke ? std::vector<Bytes>{64 * MiB}
              : std::vector<Bytes>{32 * MiB, 128 * MiB};
    // optfb: CacheResident candidates (the paper's recommendation) --
    // the incremental engine additionally avoids the full history scan.
    // optfb-full: untruncated history, the §5.2 worst case.
    const std::vector<std::string> policies{"optfb", "optfb-full"};

    std::vector<Point> points;
    for (const std::string& policy : policies) {
      for (std::size_t pool : pools) {
        for (Bytes cache : caches) {
          const Workload workload =
              generate_workload(make_workload(pool, cache, jobs, seed));
          Point point;
          point.policy = policy;
          point.history_entries = pool;
          point.cache_bytes = cache;
          for (int e = 0; e < 2; ++e) {
            point.engine[e] = run_engine(
                workload, policy, static_cast<SelectEngine>(e), cache, seed);
          }
          const EngineRun& ref = point.engine[0];
          const EngineRun& inc = point.engine[1];
          if (ref.byte_miss != inc.byte_miss ||
              ref.cost.decisions != inc.cost.decisions) {
            std::cerr << "bench_select_scaling: ENGINES DIVERGED at policy="
                      << policy << " pool=" << pool
                      << " cache=" << format_bytes(cache)
                      << " (byte_miss " << ref.byte_miss << " vs "
                      << inc.byte_miss << ", decisions "
                      << ref.cost.decisions << " vs " << inc.cost.decisions
                      << ")\n";
            return 1;
          }
          points.push_back(std::move(point));
        }
      }
    }

    TextTable table({"policy", "history", "cache", "engine", "decisions",
                     "scanned/dec", "rescored/dec", "heap/dec", "ns/dec",
                     "byte_miss"});
    for (const Point& point : points) {
      for (int e = 0; e < 2; ++e) {
        const EngineRun& run = point.engine[e];
        table.add_row(
            {point.policy, std::to_string(point.history_entries),
             format_bytes(point.cache_bytes),
             to_string(static_cast<SelectEngine>(e)),
             std::to_string(run.cost.decisions),
             format_double(
                 per_decision(run.cost.candidates_scanned, run.cost.decisions)),
             format_double(
                 per_decision(run.cost.entries_rescored, run.cost.decisions)),
             format_double(
                 per_decision(run.cost.heap_ops, run.cost.decisions)),
             std::to_string(
                 static_cast<std::uint64_t>(run.ns_per_decision)),
             format_double(run.byte_miss)});
      }
    }
    std::cout << "Per-miss selection cost by engine (byte_miss must match "
                 "between engines at every point)\n";
    if (cli.get_flag("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_select_scaling: " << e.what() << "\n";
    return 1;
  }
}
