// Grand comparison: every registered online policy x popularity x cache
// scale, with repetition seeds and thread-pool fan-out, reported as
// mean +- 95% CI byte miss and request-hit ratios.
//
// This is the kitchen-sink leaderboard the paper's pairwise
// OptFileBundle-vs-Landlord plots imply; the clairvoyant lookahead bound
// is included as the floor.
//
// Trials are paired: repetition rep of every point with the same
// popularity runs on the same workload, seeded by (popularity, rep) from
// the master seed, so the policies and cache scales at a point are
// compared on identical job streams and the tables do not depend on
// --threads.
#include <iostream>
#include <string>
#include <vector>

#include "common/harness.hpp"
#include "util/thread_pool.hpp"

using namespace fbc;
using namespace fbc::bench;

namespace {

struct Point {
  std::string policy;
  std::size_t popularity = 0;  ///< index into the popularity list
  std::string cache_scale;
};

struct Trial {
  double byte_miss = 0.0;
  double request_hit = 0.0;
};

WorkloadConfig workload_for(const std::string& popularity,
                            std::uint64_t seed, std::size_t jobs) {
  WorkloadConfig config;
  config.seed = seed;
  config.cache_bytes = 64 * MiB;
  config.num_files = 300;
  config.min_file_bytes = 64 * KiB;
  config.max_file_frac = 0.01;
  config.num_requests = 200;
  config.max_bundle_files = 8;
  config.num_jobs = jobs;
  config.popularity =
      popularity == "zipf" ? Popularity::Zipf : Popularity::Uniform;
  return config;
}

Trial run_trial(const Point& point, const std::string& popularity,
                std::uint64_t seed, std::size_t jobs) {
  const WorkloadConfig wconfig = workload_for(popularity, seed, jobs);
  const Workload w = generate_workload(wconfig);
  PolicyContext context;
  context.catalog = &w.catalog;
  context.jobs = w.jobs;
  context.seed = seed;
  PolicyPtr policy = make_policy(point.policy, context);
  const double scale = std::stod(point.cache_scale);
  SimulatorConfig config{
      .cache_bytes =
          static_cast<Bytes>(scale * static_cast<double>(wconfig.cache_bytes)),
      .warmup_jobs = default_warmup(jobs)};
  const CacheMetrics m = simulate(config, w.catalog, *policy, w.jobs).metrics;
  return {m.byte_miss_ratio(), m.request_hit_ratio()};
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_grand_comparison",
                "All policies x popularity x cache scale leaderboard");
  cli.add_option("jobs", "jobs per simulation", "3000");
  cli.add_option("seeds", "repetitions per point", "3");
  cli.add_option("seed", "master seed", "1");
  cli.add_option("threads", "worker threads (0 = hardware)", "0");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);
  const std::size_t jobs = cli.get_u64("jobs");
  const std::size_t reps = cli.get_u64("seeds");
  if (reps == 0) {
    std::cerr << "bench_grand_comparison: --seeds must be >= 1\n";
    return 2;
  }

  const std::vector<std::string> popularities = {"uniform", "zipf"};
  std::vector<Point> points;
  for (const std::string policy :
       {"optfb", "optfb-basic", "optfb-bytes", "landlord", "landlord-size",
        "lru", "lru-2", "lfu", "fifo", "gds-unit", "gdsf", "random",
        "lookahead"}) {
    for (std::size_t pop = 0; pop < popularities.size(); ++pop) {
      for (const std::string scale : {"0.5", "1", "2"}) {
        points.push_back({policy, pop, scale});
      }
    }
  }

  // Seed (popularity, rep) is seeds[popularity * reps + rep].
  const std::vector<std::uint64_t> seeds =
      make_seeds(cli.get_u64("seed"), popularities.size() * reps);
  std::vector<Trial> trials(points.size() * reps);
  {
    ThreadPool pool(cli.get_u64("threads"));
    pool.parallel_for(trials.size(), [&](std::size_t i) {
      const Point& point = points[i / reps];
      trials[i] = run_trial(point, popularities[point.popularity],
                            seeds[point.popularity * reps + i % reps], jobs);
    });
  }

  const auto print = [&](const std::string& popularity, const char* title,
                         const TextTable& table) {
    std::cout << title << ", " << popularity << " popularity (mean over "
              << reps << " seeds):\n";
    if (cli.get_flag("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    std::cout << "\n";
  };
  for (std::size_t pop = 0; pop < popularities.size(); ++pop) {
    TextTable byte_miss(
        {"policy", "cache_scale", "byte_miss_mean", "byte_miss_ci95"});
    TextTable request_hit(
        {"policy", "cache_scale", "request_hit_mean", "request_hit_ci95"});
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (points[p].popularity != pop) continue;
      RunningStats miss;
      RunningStats hit;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        miss.add(trials[p * reps + rep].byte_miss);
        hit.add(trials[p * reps + rep].request_hit);
      }
      byte_miss.add_row({points[p].policy, points[p].cache_scale,
                         format_double(miss.mean()),
                         format_double(miss.ci95_halfwidth())});
      request_hit.add_row({points[p].policy, points[p].cache_scale,
                           format_double(hit.mean()),
                           format_double(hit.ci95_halfwidth())});
    }
    print(popularities[pop], "Byte miss ratio", byte_miss);
    print(popularities[pop], "Request-hit ratio", request_hit);
  }
  std::cout << "Expectations: lookahead floors every column; optfb leads "
               "the online policies under Zipf; random/fifo trail.\n";
  return 0;
}
