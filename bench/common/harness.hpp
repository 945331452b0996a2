// Shared sweep driver for the figure/table reproduction benches.
//
// Every bench declares a set of sweep points (a workload + simulator
// configuration) and a set of policies; the harness runs each
// (point, policy, seed) simulation serially and aggregates the metrics
// the paper reports. Only bench_grand_comparison fans its trials out
// across a ThreadPool, using make_seeds, RunningStats and TextTable
// directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/simulator.hpp"
#include "core/registry.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "workload/workload.hpp"

namespace fbc::bench {

/// One simulation to run.
struct RunSpec {
  WorkloadConfig workload;
  SimulatorConfig sim;
  std::string policy = "optfb";
  /// Window length for optfb-window.
  std::uint64_t history_window_jobs = 1000;
  /// Queue-scheduling aging factor for optfb* policies (0 = off).
  double aging_factor = 0.0;
};

/// Aggregated over repetition seeds.
struct Aggregate {
  RunningStats byte_miss;     ///< byte miss ratio per run
  RunningStats request_hit;   ///< request-hit ratio per run
  RunningStats moved_mib;     ///< MiB moved into the cache per job
  RunningStats mean_wait;     ///< mean queue wait (services) per run
  RunningStats max_wait;      ///< worst queue wait per run
};

/// Runs one simulation (workload generated from spec.workload with its
/// seed) and returns the measured (post-warm-up) metrics.
[[nodiscard]] CacheMetrics run_one(const RunSpec& spec);

/// Runs `spec` once per seed (the seed replaces spec.workload.seed) and
/// aggregates. Runs serially; for sweep-level parallelism submit
/// independent run_seeds calls to a ThreadPool.
[[nodiscard]] Aggregate run_seeds(RunSpec spec,
                                  std::span<const std::uint64_t> seeds);

/// Derives `count` repetition seeds from a master seed.
[[nodiscard]] std::vector<std::uint64_t> make_seeds(std::uint64_t master,
                                                    std::size_t count);

/// Registers the options shared by all figure benches
/// (--jobs, --seeds, --seed, --csv, --json).
void add_common_options(CliParser& cli);

/// Emits a finished table honoring --json (JSON array of row objects,
/// the standard machine-readable bench format) and --csv.
void emit(const CliParser& cli, const TextTable& table);

/// Standard per-figure warm-up: 10% of the job stream.
[[nodiscard]] std::size_t default_warmup(std::size_t jobs);

}  // namespace fbc::bench
