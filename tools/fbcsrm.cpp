// fbcsrm: replay a (preferably timed, v2) trace through the timed
// StorageResourceManager with configurable MSS tiers, service slots and
// start order, reporting throughput and response times.
//
//   fbcgen --out=t.txt --kind=henp --timed --mean-gap=20
//   fbcsrm --trace=t.txt --cache=10GiB --policy=optfb --slots=2
//   fbcsrm --trace=t.txt --cache=10GiB --policy=all --order=sjf
//
// Untimed (v1) traces are replayed back-to-back (arrival 0, zero service
// time), which still exercises staging costs.
#include <iostream>
#include <stdexcept>

#include "core/registry.hpp"
#include "grid/mss.hpp"
#include "grid/srm.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace.hpp"

using namespace fbc;

int main(int argc, char** argv) {
  CliParser cli("fbcsrm", "Replay a trace through the timed SRM");
  cli.add_option("trace", "input trace path", "trace.txt");
  cli.add_option("policy", "policy name or 'all'", "optfb");
  cli.add_option("cache", "staging cache capacity", "10GiB");
  cli.add_option("slots", "concurrent service slots", "1");
  cli.add_option("order", "fcfs|sjf start order", "fcfs");
  cli.add_option("streams", "parallel transfer streams", "4");
  cli.add_option("tier-mix",
                 "fraction of files on tape,remote (rest on disk pool)",
                 "0.5,0.33");
  cli.add_option("seed", "placement/policy seed", "1");
  cli.add_flag("csv", "emit CSV");

  try {
    cli.parse(argc, argv);
    const Trace trace = load_trace(cli.get_string("trace"));

    MassStorageSystem mss(default_tiers(), trace.catalog);
    place_tier_mix(mss, cli.get_string("tier-mix"), cli.get_u64("seed"));

    std::vector<GridJob> jobs;
    jobs.reserve(trace.jobs.size());
    for (std::size_t j = 0; j < trace.jobs.size(); ++j) {
      GridJob job;
      job.request = trace.jobs[j];
      if (trace.is_timed()) {
        job.arrival_s = trace.arrival_s[j];
        job.service_s = trace.service_s[j];
      }
      jobs.push_back(std::move(job));
    }
    if (!trace.is_timed()) {
      std::cerr << "fbcsrm: note: untimed v1 trace, replaying back-to-back\n";
    }

    SrmConfig config{.cache_bytes = parse_bytes(cli.get_string("cache")),
                     .transfers = TransferModel{
                         .max_parallel = cli.get_u64("streams")}};
    config.service_slots = cli.get_u64("slots");
    const std::string order = cli.get_string("order");
    if (order == "sjf") {
      config.order = ServiceOrder::ShortestBundleFirst;
    } else if (order != "fcfs") {
      throw std::invalid_argument("unknown --order: " + order);
    }

    std::vector<std::string> policies;
    if (cli.get_string("policy") == "all") {
      policies = policy_names();
    } else {
      policies.push_back(cli.get_string("policy"));
    }

    TextTable table({"policy", "jobs", "throughput_jobs_per_h",
                     "mean_response_s", "mean_stage_s", "data_staged",
                     "request_hit_pct"});
    for (const std::string& name : policies) {
      PolicyContext context;
      context.catalog = &trace.catalog;
      context.jobs = trace.jobs;
      context.seed = cli.get_u64("seed");
      PolicyPtr policy = make_policy(name, context);
      StorageResourceManager srm(config, mss, *policy);
      const SrmReport report = srm.run(jobs);
      table.add_row(
          {name, std::to_string(report.outcomes.size()),
           format_double(report.throughput_jobs_per_hour()),
           format_double(report.response_s.mean()),
           format_double(report.stage_s.mean()),
           format_bytes(report.bytes_staged),
           format_double(100.0 * static_cast<double>(report.request_hits) /
                         static_cast<double>(jobs.size()))});
    }
    if (cli.get_flag("csv")) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fbcsrm: " << e.what() << "\n";
    return 1;
  }
}
