// Stress: long randomized runs across every online policy, queue mode
// and cache pressure level, asserting the global invariants that every
// other test checks only locally. Sized to stay within a few seconds.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>

#include "cache/simulator.hpp"
#include "core/registry.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace fbc {
namespace {

struct StressCase {
  const char* policy;
  std::size_t queue_length;
  QueueMode mode;
  double cache_scale;
};

// Prints a case by its fields, e.g. "optfb_q25_batch_c50". The default
// printer dumps the raw bytes of the struct, policy pointer included, which
// change with the load address, so the listed case names would differ
// from one run to the next.
void PrintTo(const StressCase& sc, std::ostream* os) {
  std::string policy = sc.policy;
  std::replace(policy.begin(), policy.end(), '-', '_');
  *os << policy << "_q" << sc.queue_length
      << (sc.mode == QueueMode::Batch ? "_batch" : "_sliding") << "_c"
      << static_cast<int>(sc.cache_scale * 100);
}

class Stress : public ::testing::TestWithParam<StressCase> {};

TEST_P(Stress, LongRunHoldsAllInvariants) {
  const StressCase& sc = GetParam();
  WorkloadConfig wconfig;
  wconfig.seed = 0xbeef;
  wconfig.cache_bytes = 8 * MiB;
  wconfig.num_files = 400;
  wconfig.min_file_bytes = 4 * KiB;
  wconfig.max_file_frac = 0.03;
  wconfig.num_requests = 500;
  wconfig.max_bundle_files = 7;
  wconfig.num_jobs = 6000;
  wconfig.popularity = Popularity::Zipf;
  wconfig.drift_period_jobs = 1500;  // non-stationary for extra churn
  wconfig.drift_rotate = 40;
  const Workload w = generate_workload(wconfig);

  PolicyContext context;
  context.catalog = &w.catalog;
  context.jobs = w.jobs;
  context.seed = 0xbeef;
  PolicyPtr policy = make_policy(sc.policy, context);

  SimulatorConfig config{
      .cache_bytes = static_cast<Bytes>(
          sc.cache_scale * static_cast<double>(wconfig.cache_bytes)),
      .queue_length = sc.queue_length,
      .warmup_jobs = 500,
      .queue_mode = sc.mode};
  Simulator sim(config, w.catalog, *policy);
  const SimulationResult result = sim.run(w.jobs);  // throws on violations

  CacheMetrics all = result.warmup;
  all.merge(result.metrics);
  EXPECT_EQ(all.jobs() + all.unserviceable(), w.jobs.size());
  EXPECT_LE(sim.cache().used_bytes(), sim.cache().capacity());
  EXPECT_GE(all.byte_hit_ratio(), 0.0);
  EXPECT_LE(all.byte_miss_ratio(), 1.0 + 1e-12);
  EXPECT_LE(all.file_hits(), all.files_requested());
  // Byte conservation across the whole run.
  EXPECT_EQ(sim.cache().used_bytes(),
            all.bytes_missed() + all.bytes_prefetched() - all.bytes_evicted());
}

INSTANTIATE_TEST_SUITE_P(
    Mix, Stress,
    ::testing::Values(
        StressCase{"optfb", 1, QueueMode::Batch, 1.0},
        StressCase{"optfb", 25, QueueMode::Batch, 0.5},
        StressCase{"optfb", 25, QueueMode::Sliding, 1.0},
        StressCase{"optfb-full", 1, QueueMode::Batch, 1.0},
        StressCase{"optfb-bytes", 10, QueueMode::Sliding, 2.0},
        StressCase{"landlord", 1, QueueMode::Batch, 1.0},
        StressCase{"landlord", 25, QueueMode::Sliding, 0.5},
        StressCase{"lru-2", 1, QueueMode::Batch, 1.0},
        StressCase{"gdsf", 25, QueueMode::Batch, 1.0},
        StressCase{"fifo", 1, QueueMode::Batch, 0.5},
        StressCase{"random", 10, QueueMode::Sliding, 1.0}));

}  // namespace
}  // namespace fbc
