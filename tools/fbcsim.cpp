// fbcsim: replay a trace file through the cache simulator under any
// registered policy and print the metrics.
//
//   fbcsim --trace=trace.txt --policy=optfb --cache=10GiB
//   fbcsim --trace=trace.txt --policy=all --cache=10GiB --csv
//   fbcsim --trace=trace.txt --policy=optfb --obs
//   fbcsim --trace=trace.txt --policy=adaptive --duel-sample=4 --duel-phase=32
//   fbcsim --trace=trace.txt --cache=10GiB --optgen
//
// --policy=all compares every registered policy on the same trace;
// --obs appends per-decision selection-effort distributions (p50/p95/p99
// from the CacheMetrics histograms, not just totals); --optgen appends
// the BundleOPTgen offline upper bounds (opt/demand/reuse occupancy
// levels plus the clairvoyant repeat bound) for the same capacity, the
// yardstick every policy row can be read against.
#include <iostream>
#include <stdexcept>

#include "cache/simulator.hpp"
#include "core/bounds.hpp"
#include "core/optgen.hpp"
#include "core/registry.hpp"
#include "obs/histogram.hpp"
#include "config_cli.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/trace.hpp"

using namespace fbc;
using namespace fbc::tools;

namespace {

void add_result_row(TextTable& table, const std::string& name,
                    const CacheMetrics& m, std::uint64_t decisions) {
  table.add_row({name, std::to_string(m.jobs()),
                 format_double(m.request_hit_ratio()),
                 format_double(m.byte_miss_ratio()),
                 format_bytes(static_cast<Bytes>(m.avg_bytes_moved_per_job())),
                 std::to_string(m.evictions()), std::to_string(decisions)});
}

void add_obs_rows(TextTable& table, const std::string& policy,
                  const CacheMetrics& m) {
  const struct {
    const char* metric;
    const obs::Histogram* hist;
  } rows[] = {
      {"candidates_scanned", &m.scanned_hist()},
      {"entries_rescored", &m.rescored_hist()},
      {"heap_ops", &m.heap_ops_hist()},
  };
  for (const auto& [metric, hist] : rows) {
    table.add_row({policy, metric, std::to_string(hist->count()),
                   format_double(hist->mean()),
                   format_double(hist->quantile(0.50)),
                   format_double(hist->quantile(0.95)),
                   format_double(hist->quantile(0.99)),
                   std::to_string(hist->max())});
  }
}

/// Registers one flag per FBC_POLICY_CONTEXT_FIELDS row.
void add_policy_options(CliParser& cli) {
  const PolicyContext defaults;
  FBC_POLICY_CONTEXT_FIELDS(FBC_ADD_FIELD)
}

/// A PolicyContext holding the tunables set by those flags.
PolicyContext policy_context_from_cli(const CliParser& cli) {
  PolicyContext config;
  FBC_POLICY_CONTEXT_FIELDS(FBC_READ_FIELD)
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fbcsim", "Replay a file-bundle trace through the simulator");
  cli.add_option("trace", "input trace path (from fbcgen or your own logs)",
                 "trace.txt");
  cli.add_option("policy", "policy name (see registry) or 'all'", "optfb");
  cli.add_option("cache", "cache capacity", "10GiB");
  cli.add_option("queue", "admission queue length (1 = FCFS)", "1");
  cli.add_option("queue-mode", "batch|sliding (for queue > 1)", "batch");
  cli.add_option("warmup", "warm-up jobs excluded from metrics", "0");
  // fbcsim's seed defaults to 1, not PolicyContext's own default.
  cli.add_option("seed", "seed for stochastic policies", "1");
  add_policy_options(cli);
  cli.add_option("optgen-window",
                 "BundleOPTgen ring-buffer horizon, in jobs (--optgen)",
                 "4096");
  cli.add_flag("csv", "emit CSV");
  cli.add_flag("obs", "report per-decision selection-effort distributions");
  cli.add_flag("optgen",
               "append the BundleOPTgen offline upper bounds (FCFS replay "
               "at --cache capacity) and the clairvoyant repeat bound");

  try {
    cli.parse(argc, argv);
    const Trace trace = load_trace(cli.get_string("trace"));
    const Bytes cache = parse_bytes(cli.get_string("cache"));

    SimulatorConfig config{.cache_bytes = cache,
                           .queue_length = cli.get_u64("queue"),
                           .warmup_jobs = cli.get_u64("warmup")};
    const std::string queue_mode = cli.get_string("queue-mode");
    if (queue_mode == "sliding") {
      config.queue_mode = QueueMode::Sliding;
    } else if (queue_mode != "batch") {
      throw std::invalid_argument("unknown --queue-mode: " + queue_mode);
    }

    PolicyContext context = policy_context_from_cli(cli);
    context.catalog = &trace.catalog;
    context.jobs = trace.jobs;
    context.seed = cli.get_u64("seed");

    std::vector<std::string> policies;
    if (cli.get_string("policy") == "all") {
      policies = policy_names();
    } else {
      policies.push_back(cli.get_string("policy"));
    }

    TextTable table({"policy", "jobs", "request_hit", "byte_miss",
                     "moved_per_job", "evictions", "decisions"});
    TextTable obs_table({"policy", "metric", "count", "mean", "p50", "p95",
                         "p99", "max"});
    for (const std::string& name : policies) {
      PolicyPtr policy = make_policy(name, context);
      const SimulationResult result =
          simulate(config, trace.catalog, *policy, trace.jobs);
      add_result_row(table, name, result.metrics, result.decisions);
      if (cli.get_flag("obs")) add_obs_rows(obs_table, name, result.metrics);
    }
    // Offline upper bounds for the same capacity: the three OPTgen
    // occupancy levels (nested opt <= demand <= reuse) and the clairvoyant
    // repeat bound that dominates all of them.
    TextTable bound_table(
        {"bound", "hits", "hit_ratio", "hit_bytes", "density_value"});
    if (cli.get_flag("optgen")) {
      const OptgenConfig optgen_config{
          cache, static_cast<std::size_t>(cli.get_u64("optgen-window"))};
      const OptgenStats og =
          replay_optgen(trace.catalog, trace.jobs, optgen_config);
      const RepeatBound clair =
          clairvoyant_upper_bound(trace.catalog, trace.jobs, cache);
      const double jobs = static_cast<double>(og.jobs);
      const auto add_bound = [&](const std::string& name, std::uint64_t hits,
                                 Bytes hit_bytes, double density) {
        bound_table.add_row(
            {name, std::to_string(hits),
             format_double(jobs > 0 ? static_cast<double>(hits) / jobs : 0.0),
             format_bytes(hit_bytes), format_double(density)});
      };
      add_bound("optgen-opt", og.opt_hits, og.opt_hit_bytes,
                og.opt_density_value);
      add_bound("optgen-demand", og.demand_hits, og.demand_hit_bytes,
                og.demand_density_value);
      add_bound("optgen-reuse", og.reuse_hits, og.reuse_hit_bytes,
                og.reuse_density_value);
      add_bound("clairvoyant", clair.hits, clair.hit_bytes,
                clair.density_value);
    }
    if (cli.get_flag("csv")) {
      table.print_csv(std::cout);
      if (cli.get_flag("obs")) obs_table.print_csv(std::cout);
      if (cli.get_flag("optgen")) bound_table.print_csv(std::cout);
    } else {
      table.print(std::cout);
      if (cli.get_flag("obs")) {
        std::cout << "\n";
        obs_table.print(std::cout);
      }
      if (cli.get_flag("optgen")) {
        std::cout << "\n";
        bound_table.print(std::cout);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fbcsim: " << e.what() << "\n";
    return 1;
  }
}
