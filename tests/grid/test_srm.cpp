// Tests for the StorageResourceManager timed service loop.
#include "grid/srm.hpp"

#include "grid/mss.hpp"

#include <gtest/gtest.h>

#include "cache/simulator.hpp"
#include "core/registry.hpp"
#include "policies/lru.hpp"
#include "workload/workload.hpp"

namespace fbc {
namespace {

/// Zero-latency unit-bandwidth tier: staging time == bytes.
MassStorageSystem byte_clock_mss(const FileCatalog& catalog) {
  return MassStorageSystem({StorageTier{"t", 0.0, 1.0}}, catalog);
}

TEST(Srm, SingleJobTimeline) {
  FileCatalog catalog({100, 50});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 200,
                   .transfers = TransferModel{.max_parallel = 1}};
  StorageResourceManager srm(config, mss, policy);
  std::vector<GridJob> jobs{
      GridJob{Request({0, 1}), /*arrival_s=*/5.0, /*service_s=*/10.0}};
  const SrmReport report = srm.run(jobs);
  ASSERT_EQ(report.outcomes.size(), 1u);
  const JobOutcome& o = report.outcomes[0];
  EXPECT_DOUBLE_EQ(o.start_s, 5.0);
  EXPECT_DOUBLE_EQ(o.staged_s, 5.0 + 150.0);  // serial staging of 150 bytes
  EXPECT_DOUBLE_EQ(o.finish_s, 165.0);
  EXPECT_EQ(o.bytes_staged, 150u);
  EXPECT_FALSE(o.request_hit);
  EXPECT_DOUBLE_EQ(report.response_s.mean(), 160.0);
}

TEST(Srm, SecondIdenticalJobIsAHit) {
  FileCatalog catalog({100});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 100};
  StorageResourceManager srm(config, mss, policy);
  std::vector<GridJob> jobs{GridJob{Request({0}), 0.0, 1.0},
                            GridJob{Request({0}), 0.0, 1.0}};
  const SrmReport report = srm.run(jobs);
  EXPECT_FALSE(report.outcomes[0].request_hit);
  EXPECT_TRUE(report.outcomes[1].request_hit);
  EXPECT_EQ(report.request_hits, 1u);
  // Job 2 queues behind job 1 (single server) and stages nothing.
  EXPECT_DOUBLE_EQ(report.outcomes[1].start_s, report.outcomes[0].finish_s);
  EXPECT_DOUBLE_EQ(report.outcomes[1].finish_s,
                   report.outcomes[0].finish_s + 1.0);
}

TEST(Srm, ServerIdlesUntilArrival) {
  FileCatalog catalog({10});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 100};
  StorageResourceManager srm(config, mss, policy);
  std::vector<GridJob> jobs{GridJob{Request({0}), 0.0, 1.0},
                            GridJob{Request({0}), 100.0, 1.0}};
  const SrmReport report = srm.run(jobs);
  EXPECT_DOUBLE_EQ(report.outcomes[1].start_s, 100.0);
}

TEST(Srm, ParallelStagingShortensResponse) {
  FileCatalog catalog({100, 100, 100});
  const auto mss = byte_clock_mss(catalog);
  SrmConfig serial{.cache_bytes = 300,
                   .transfers = TransferModel{.max_parallel = 1}};
  SrmConfig parallel{.cache_bytes = 300,
                     .transfers = TransferModel{.max_parallel = 3}};
  std::vector<GridJob> jobs{GridJob{Request({0, 1, 2}), 0.0, 0.0}};
  LruPolicy p1, p2;
  const double serial_time =
      StorageResourceManager(serial, mss, p1).run(jobs).makespan_s;
  const double parallel_time =
      StorageResourceManager(parallel, mss, p2).run(jobs).makespan_s;
  EXPECT_DOUBLE_EQ(serial_time, 300.0);
  EXPECT_DOUBLE_EQ(parallel_time, 100.0);
}

TEST(Srm, EvictionKeepsCapacityInvariant) {
  FileCatalog catalog({100, 100, 100, 100});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 200};
  StorageResourceManager srm(config, mss, policy);
  std::vector<GridJob> jobs;
  for (FileId i = 0; i < 4; ++i) {
    jobs.push_back(GridJob{Request({i}), 0.0, 0.0});
  }
  srm.run(jobs);
  EXPECT_LE(srm.cache().used_bytes(), srm.cache().capacity());
}

TEST(Srm, FileAtATimeStagesSerially) {
  FileCatalog catalog({100, 100});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 200,
                   .transfers = TransferModel{.max_parallel = 2}};
  StorageResourceManager srm(config, mss, policy);
  GridJob job{Request({0, 1}), 0.0, 0.0};
  job.model = ServiceModel::FileAtATime;
  const SrmReport report = srm.run(std::vector<GridJob>{job});
  // One file at a time cannot exploit the two streams: 100 + 100.
  EXPECT_DOUBLE_EQ(report.outcomes[0].staged_s, 200.0);
  EXPECT_EQ(report.outcomes[0].bytes_staged, 200u);
}

TEST(Srm, UnserviceableJobSkipped) {
  FileCatalog catalog({500});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 100};
  StorageResourceManager srm(config, mss, policy);
  const SrmReport report =
      srm.run(std::vector<GridJob>{GridJob{Request({0}), 0.0, 1.0}});
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].bytes_staged, 0u);
  EXPECT_EQ(report.response_s.count(), 0u);  // not counted as serviced
}

TEST(Srm, ThroughputComputation) {
  FileCatalog catalog({3600});
  const auto mss = byte_clock_mss(catalog);
  LruPolicy policy;
  SrmConfig config{.cache_bytes = 3600};
  StorageResourceManager srm(config, mss, policy);
  const SrmReport report =
      srm.run(std::vector<GridJob>{GridJob{Request({0}), 0.0, 0.0}});
  // One job finishing at t = 3600 s -> exactly 1 job/hour.
  EXPECT_DOUBLE_EQ(report.throughput_jobs_per_hour(), 1.0);
}

// One slot, jobs back to back: the SRM runs simulate()'s admissions for
// every registered policy, the prefetching optfb-full and optfb-window
// included, and stages exactly the missed plus the prefetched bytes.
TEST(Srm, SingleSlotBackToBackMatchesSimulateForEveryPolicy) {
  WorkloadConfig wconfig;
  wconfig.seed = 1;
  wconfig.cache_bytes = 64 * MiB;
  wconfig.num_files = 400;
  wconfig.min_file_bytes = 64 * KiB;
  wconfig.max_file_frac = 0.02;
  wconfig.num_requests = 150;
  wconfig.num_jobs = 600;
  wconfig.popularity = Popularity::Zipf;
  const Workload w = generate_workload(wconfig);
  MassStorageSystem mss(default_tiers(), w.catalog);
  std::vector<GridJob> jobs;
  for (const Request& job : w.jobs) jobs.push_back(GridJob{job, 0.0, 0.0});

  for (const std::string& name : policy_names()) {
    SCOPED_TRACE(name);
    PolicyContext context;
    context.catalog = &w.catalog;
    context.jobs = w.jobs;
    const PolicyPtr served = make_policy(name, context);
    const SrmReport report =
        StorageResourceManager(SrmConfig{.cache_bytes = wconfig.cache_bytes},
                               mss, *served)
            .run(jobs);

    const PolicyPtr simulated = make_policy(name, context);
    const CacheMetrics sim =
        simulate(SimulatorConfig{.cache_bytes = wconfig.cache_bytes},
                 w.catalog, *simulated, w.jobs)
            .metrics;
    EXPECT_EQ(report.request_hits, sim.request_hits());
    EXPECT_EQ(report.bytes_staged, sim.bytes_missed() + sim.bytes_prefetched());
    EXPECT_GT(sim.evictions(), 0u);  // the cache was under pressure
  }
}

TEST(SrmReport, EmptyThroughputIsZero) {
  SrmReport report;
  EXPECT_DOUBLE_EQ(report.throughput_jobs_per_hour(), 0.0);
}

}  // namespace
}  // namespace fbc
