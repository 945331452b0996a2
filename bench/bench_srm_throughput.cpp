// Section 6 (future work) extension: transfer- and processing-time-aware
// SRM service. Measures job throughput and response times for
// OptFileBundle vs Landlord when files live on realistic MSS tiers, and
// contrasts the bundle-at-a-time service model with one-file-at-a-time
// and a hybrid mix.
#include <iostream>
#include <vector>

#include "common/harness.hpp"
#include "grid/srm.hpp"
#include "grid/mss.hpp"
#include "util/rng.hpp"

using namespace fbc;
using namespace fbc::bench;

namespace {

std::vector<GridJob> make_jobs(const Workload& w, double arrival_gap_s,
                               double file_at_a_time_fraction,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<GridJob> jobs;
  jobs.reserve(w.jobs.size());
  double arrival = 0.0;
  for (const Request& r : w.jobs) {
    GridJob job;
    job.request = r;
    job.arrival_s = arrival;
    job.service_s = rng.uniform_double(1.0, 5.0);
    job.model = rng.bernoulli(file_at_a_time_fraction)
                    ? ServiceModel::FileAtATime
                    : ServiceModel::BundleAtATime;
    jobs.push_back(job);
    arrival += rng.uniform_double(0.0, 2.0 * arrival_gap_s);
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_srm_throughput",
                "SRM throughput/response time with MSS cost model");
  cli.add_option("jobs", "jobs per run", "1500");
  cli.add_option("seed", "master seed", "1");
  cli.add_flag("csv", "emit CSV");
  cli.parse(argc, argv);

  WorkloadConfig wconfig;
  wconfig.seed = cli.get_u64("seed");
  wconfig.cache_bytes = 32 * GiB;
  wconfig.num_files = 300;
  wconfig.min_file_bytes = 256 * MiB;
  wconfig.max_file_frac = 0.02;
  wconfig.num_requests = 150;
  wconfig.max_bundle_files = 6;
  wconfig.num_jobs = cli.get_u64("jobs");
  wconfig.popularity = Popularity::Zipf;
  const Workload w = generate_workload(wconfig);

  // Spread files over the three default tiers: 1/2 local tape, 1/3
  // remote, the rest on the fast disk pool.
  MassStorageSystem mss(default_tiers(), w.catalog);
  place_tier_mix(mss, "0.5,0.33", wconfig.seed);

  TextTable table({"policy", "service_mix", "throughput_jobs_per_h",
                   "mean_response_s", "p95_response_s", "data_staged",
                   "request_hit_pct"});

  struct Case {
    const char* policy;
    const char* label;
    double file_at_a_time_fraction;
  };
  const std::vector<Case> cases{
      {"optfb", "bundle", 0.0},     {"landlord", "bundle", 0.0},
      {"lru", "bundle", 0.0},       {"optfb", "hybrid-30%file", 0.3},
      {"landlord", "hybrid-30%file", 0.3},
  };

  for (const Case& c : cases) {
    const std::vector<GridJob> jobs =
        make_jobs(w, /*arrival_gap_s=*/20.0, c.file_at_a_time_fraction,
                  wconfig.seed + 99);
    PolicyContext context;
    context.catalog = &w.catalog;
    PolicyPtr policy = make_policy(c.policy, context);
    SrmConfig config{.cache_bytes = wconfig.cache_bytes,
                     .transfers = TransferModel{.max_parallel = 4}};
    StorageResourceManager srm(config, mss, *policy);
    const SrmReport report = srm.run(jobs);

    std::vector<double> responses;
    responses.reserve(report.outcomes.size());
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      responses.push_back(report.outcomes[i].finish_s - jobs[i].arrival_s);
    }
    table.add_row(
        {c.policy, c.label,
         format_double(report.throughput_jobs_per_hour()),
         format_double(report.response_s.mean()),
         format_double(quantile(responses, 0.95)),
         format_bytes(report.bytes_staged),
         format_double(100.0 * static_cast<double>(report.request_hits) /
                       static_cast<double>(jobs.size()))});
  }

  std::cout << "SRM service with MSS tiers (tape/remote/disk), Zipf "
               "workload\n";
  if (cli.get_flag("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nExpectation: OptFileBundle stages less data, so it sees "
               "higher throughput and lower response times than per-file "
               "policies under the same arrival stream.\n";
  return 0;
}
