// Per-decision cost of the incremental BundleOPTgen oracle vs the
// brute-force interval-scan reference, sweeping the trace length.
//
// Both implementations count the same deterministic cost unit -- ring-
// buffer / occupancy-vector quanta visited while scanning and committing
// reuse gaps (OptgenStats::slices_scanned). The incremental oracle's
// per-job cost is bounded by the reuse-gap lengths (clipped to the
// window), so it plateaus as the trace grows; the reference re-scans the
// whole prefix per job and grows linearly. The two must agree on every
// hit count at every sweep point; the bench aborts if they do not. The
// test BundleOPTgenTest.IncrementalCostPerJobIsSubLinearInTraceLength
// pins the smoke sweep's cost counters.
//
//   bench_optgen            # full sweep
//   bench_optgen --smoke    # CI: quick sweep
#include <chrono>
#include <iostream>
#include <vector>

#include "common/harness.hpp"
#include "core/optgen.hpp"
#include "testing/optgen_reference.hpp"

using namespace fbc;
using namespace fbc::bench;

namespace {

struct Run {
  std::uint64_t slices = 0;
  double slices_per_job = 0.0;
  double ns_per_job = 0.0;
};

struct Point {
  std::size_t jobs = 0;
  Run incremental;
  Run reference;
  OptgenStats stats;  ///< the agreed-upon hit counts
};

WorkloadConfig make_workload(std::size_t jobs, Bytes cache,
                             std::uint64_t seed) {
  WorkloadConfig config;
  config.seed = seed;
  config.cache_bytes = cache;
  config.num_files = 300;
  config.min_file_bytes = 64 * KiB;
  config.max_file_frac = 0.01;
  config.num_requests = 400;
  config.min_bundle_files = 1;
  config.max_bundle_files = 8;
  config.num_jobs = jobs;
  config.popularity = Popularity::Zipf;
  return config;
}

double per_job(std::uint64_t total, std::size_t jobs) {
  return jobs == 0 ? 0.0
                   : static_cast<double>(total) / static_cast<double>(jobs);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_optgen",
                "Per-job cost of the incremental BundleOPTgen oracle vs the "
                "brute-force reference over the trace length");
  cli.add_option("cache", "cache capacity", "64MiB");
  cli.add_option("window", "oracle ring-buffer horizon, in jobs", "1024");
  cli.add_option("seed", "workload seed", "1");
  cli.add_flag("smoke", "quick CI sweep (fewer, shorter traces)");
  cli.add_flag("csv", "emit CSV instead of the aligned table");

  try {
    cli.parse(argc, argv);
    const Bytes cache = parse_bytes(cli.get_string("cache"));
    const auto window =
        static_cast<std::size_t>(cli.get_u64("window"));
    const std::uint64_t seed = cli.get_u64("seed");
    const std::vector<std::size_t> sweeps =
        cli.get_flag("smoke") ? std::vector<std::size_t>{250, 1000, 4000}
                              : std::vector<std::size_t>{500, 2000, 8000};
    const OptgenConfig config{cache, window};

    std::vector<Point> points;
    for (std::size_t jobs : sweeps) {
      const Workload workload =
          generate_workload(make_workload(jobs, cache, seed));
      Point point;
      point.jobs = workload.jobs.size();

      auto start = std::chrono::steady_clock::now();
      const OptgenStats inc =
          replay_optgen(workload.catalog, workload.jobs, config);
      auto elapsed = std::chrono::steady_clock::now() - start;
      point.incremental.slices = inc.slices_scanned;
      point.incremental.slices_per_job = per_job(inc.slices_scanned, jobs);
      point.incremental.ns_per_job = per_job(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          jobs);

      start = std::chrono::steady_clock::now();
      const testing::OptgenReferenceResult ref =
          testing::reference_optgen(workload.catalog, workload.jobs, config);
      elapsed = std::chrono::steady_clock::now() - start;
      point.reference.slices = ref.stats.slices_scanned;
      point.reference.slices_per_job = per_job(ref.stats.slices_scanned, jobs);
      point.reference.ns_per_job = per_job(
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                  .count()),
          jobs);

      if (inc.opt_hits != ref.stats.opt_hits ||
          inc.demand_hits != ref.stats.demand_hits ||
          inc.reuse_hits != ref.stats.reuse_hits) {
        std::cerr << "bench_optgen: ORACLES DIVERGED at jobs=" << jobs
                  << " (opt " << inc.opt_hits << " vs " << ref.stats.opt_hits
                  << ", demand " << inc.demand_hits << " vs "
                  << ref.stats.demand_hits << ", reuse " << inc.reuse_hits
                  << " vs " << ref.stats.reuse_hits << ")\n";
        return 1;
      }
      point.stats = inc;
      points.push_back(point);
    }

    TextTable table({"jobs", "impl", "slices", "slices/job", "ns/job",
                     "opt", "demand", "reuse"});
    for (const Point& point : points) {
      const struct {
        const char* name;
        const Run* run;
      } rows[] = {{"incremental", &point.incremental},
                  {"reference", &point.reference}};
      for (const auto& [name, run] : rows) {
        table.add_row({std::to_string(point.jobs), name,
                       std::to_string(run->slices),
                       format_double(run->slices_per_job),
                       std::to_string(
                           static_cast<std::uint64_t>(run->ns_per_job)),
                       std::to_string(point.stats.opt_hits),
                       std::to_string(point.stats.demand_hits),
                       std::to_string(point.stats.reuse_hits)});
      }
    }
    std::cout << "BundleOPTgen per-job cost, incremental vs brute-force "
                 "reference (hit counts must match at every point)\n";
    if (cli.get_flag("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "bench_optgen: " << e.what() << "\n";
    return 1;
  }
}
