// Tests for the OptFileBundle replacement policy (paper Algorithm 2).
#include "core/opt_file_bundle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>

#include "cache/simulator.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace fbc {
namespace {

FileCatalog unit_catalog(std::size_t n, Bytes each = 100) {
  FileCatalog catalog;
  for (std::size_t i = 0; i < n; ++i) catalog.add_file(each);
  return catalog;
}

TEST(OptFileBundle, NameEncodesConfiguration) {
  FileCatalog catalog = unit_catalog(1);
  EXPECT_EQ(OptFileBundlePolicy(catalog).name(), "optfb");
  OptFileBundleConfig basic;
  basic.variant = SelectVariant::Basic;
  EXPECT_EQ(OptFileBundlePolicy(catalog, basic).name(), "optfb-basic");
  OptFileBundleConfig full;
  full.history.mode = HistoryMode::Full;
  EXPECT_EQ(OptFileBundlePolicy(catalog, full).name(), "optfb-full");
}

TEST(OptFileBundle, KeepsTheValuableBundleCombination) {
  // Cache of 3 unit files; bundles {0,1} (popular) and lone files 2,3.
  // When 3 arrives, OptFileBundle must keep the popular {0,1} pair and
  // sacrifice 2, while a per-file policy might split the pair.
  FileCatalog catalog = unit_catalog(4);
  OptFileBundlePolicy policy(catalog);
  SimulatorConfig config{.cache_bytes = 300};
  std::vector<Request> jobs{
      Request({0, 1}), Request({0, 1}), Request({0, 1}),  // popular pair
      Request({2}),                                       // filler
      Request({3}),                                       // forces eviction
      Request({0, 1}),                                    // must be a hit
  };
  Simulator sim(config, catalog, policy);
  const SimulationResult result = sim.run(jobs);
  EXPECT_TRUE(sim.cache().contains(0));
  EXPECT_TRUE(sim.cache().contains(1));
  EXPECT_FALSE(sim.cache().contains(2));
  // Hits: jobs 2, 3 (repeat pair) and the final pair request.
  EXPECT_EQ(result.metrics.request_hits(), 3u);
}

TEST(OptFileBundle, EvictsEverythingOutsideSelectionAndRequest) {
  // A fresh policy with no useful history evicts all non-requested files
  // when pressed (nothing in the candidate set is worth keeping).
  FileCatalog catalog = unit_catalog(5);
  OptFileBundlePolicy policy(catalog);
  SimulatorConfig config{.cache_bytes = 300};
  std::vector<Request> jobs{
      Request({0}), Request({1}), Request({2}),
      Request({3, 4}),  // needs 200: eviction decision
  };
  Simulator sim(config, catalog, policy);
  sim.run(jobs);
  EXPECT_TRUE(sim.cache().contains(3));
  EXPECT_TRUE(sim.cache().contains(4));
  // With CacheResident candidates {0},{1},{2} all value 1 and budget 100,
  // exactly one single-file request survives alongside {3,4}.
  EXPECT_EQ(sim.cache().file_count(), 3u);
}

TEST(OptFileBundle, ChooseNextPicksHighestRelativeValue) {
  FileCatalog catalog = unit_catalog(6);
  OptFileBundlePolicy policy(catalog);
  DiskCache cache(600, catalog);

  // Build history: {0} seen three times, {1,2} once.
  for (int i = 0; i < 3; ++i) policy.on_job_arrival(Request({0}), cache);
  policy.on_job_arrival(Request({1, 2}), cache);

  std::vector<Request> queue{Request({1, 2}), Request({0}), Request({3})};
  // v'({0}) = (3+1)/s'(0); v'({1,2}) = (1+1)/(...); v'({3}) = 1/100.
  // {0} wins by popularity.
  EXPECT_EQ(policy.choose_next(queue, cache), 1u);
}

TEST(OptFileBundle, ChooseNextFallsBackToFcfsAmongUnseen) {
  FileCatalog catalog = unit_catalog(4);
  OptFileBundlePolicy policy(catalog);
  DiskCache cache(400, catalog);
  // All unseen singletons tie at 1/s'(f); the first wins.
  std::vector<Request> queue{Request({0}), Request({1}), Request({2})};
  EXPECT_EQ(policy.choose_next(queue, cache), 0u);
}

TEST(OptFileBundle, PrefetchDisabledByDefault) {
  FileCatalog catalog = unit_catalog(4);
  OptFileBundlePolicy policy(catalog);
  DiskCache cache(400, catalog);
  EXPECT_TRUE(policy.prefetch(Request({0}), cache).empty());
}

TEST(OptFileBundle, FullHistoryPrefetchRestoresEvictedBundles) {
  // Under Full history with prefetching, a valuable historical bundle that
  // was displaced is pulled back into leftover space even though nobody
  // demanded it on this job (Algorithm 2 step 3 verbatim:
  // load F(Opt) \ F(C)).
  FileCatalog catalog = unit_catalog(6);
  OptFileBundleConfig config;
  config.history.mode = HistoryMode::Full;
  config.prefetch_selected = true;
  OptFileBundlePolicy policy(catalog, config);
  SimulatorConfig sim_config{.cache_bytes = 300};
  std::vector<Request> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(Request({0, 1}));  // precious
  jobs.push_back(Request({2, 3, 4}));  // displaces {0,1} entirely
  jobs.push_back(Request({2}));        // hit, builds {2}'s history
  jobs.push_back(Request({5}));        // decision: selection re-picks {0,1}
  jobs.push_back(Request({0, 1}));     // hit thanks to the prefetch
  Simulator sim(sim_config, catalog, policy);
  const SimulationResult result = sim.run(jobs);
  // The {5} admission selects the high-value non-resident {0,1} bundle for
  // the 200-byte budget, evicts {2,3,4}, loads 5 and prefetches 0 and 1.
  EXPECT_EQ(result.metrics.bytes_prefetched(), 200u);
  EXPECT_TRUE(sim.cache().contains(0));
  EXPECT_TRUE(sim.cache().contains(1));
  EXPECT_TRUE(sim.cache().contains(5));
  // The final {0,1} job is a request-hit.
  EXPECT_GE(result.metrics.request_hits(), 10u);
}

TEST(OptFileBundle, PrefetchBytesAreCharged) {
  // Deterministic prefetch scenario: after {3} displaces part of the
  // cache, the selection keeps the popular {0,1} pair -- including file 1
  // that was just evicted -- so 1 comes back as a prefetch.
  FileCatalog catalog = unit_catalog(5);
  OptFileBundleConfig config;
  config.history.mode = HistoryMode::Full;
  config.prefetch_selected = true;
  OptFileBundlePolicy policy(catalog, config);
  SimulatorConfig sim_config{.cache_bytes = 300};
  std::vector<Request> jobs{
      Request({0, 1}), Request({0, 1}), Request({0, 1}), Request({0, 1}),
      Request({2}),        // cache now {0,1,2}
      Request({3, 4}),     // eviction decision with budget 100
  };
  Simulator sim(sim_config, catalog, policy);
  const SimulationResult result = sim.run(jobs);
  // Budget for the selection is 100 bytes: the {0,1} pair (200 bytes,
  // naive or union) cannot be kept; no prefetch is possible either since
  // free space after loading is 0. The decision itself must still satisfy
  // all contracts and account every byte.
  const CacheMetrics& m = result.metrics;
  EXPECT_EQ(m.bytes_requested(),
            200u * 4 + 100 + 200);
  EXPECT_LE(sim.cache().used_bytes(), sim.cache().capacity());
}

TEST(OptFileBundle, HistoryIntrospection) {
  FileCatalog catalog = unit_catalog(3);
  OptFileBundlePolicy policy(catalog);
  DiskCache cache(300, catalog);
  policy.on_job_arrival(Request({0, 1}), cache);
  policy.on_job_arrival(Request({0, 1}), cache);
  EXPECT_EQ(policy.history().observed_jobs(), 2u);
  EXPECT_DOUBLE_EQ(policy.history().value(Request({0, 1})), 2.0);
  policy.reset();
  EXPECT_EQ(policy.history().observed_jobs(), 0u);
}

TEST(OptFileBundle, LastCandidateCountTracksDecisions) {
  FileCatalog catalog = unit_catalog(4);
  OptFileBundlePolicy policy(catalog);
  SimulatorConfig config{.cache_bytes = 200};
  std::vector<Request> jobs{Request({0}), Request({1}), Request({2})};
  Simulator sim(config, catalog, policy);
  sim.run(jobs);
  // The last decision (admitting {2}) saw the cache-resident candidates.
  EXPECT_LE(policy.last_candidate_count(), 2u);
}

// The reserved set, the budget and the victim derivation are shared by both
// engines, so the engine-diff oracle cannot see a bug there. Drive the
// policy by hand with the bundles of other in-flight jobs pinned on the
// cache, and check every decision against a from-scratch derivation:
// selection = OptCacheSelect over the history candidates with budget
// capacity - bundle - foreign pinned bytes and the request plus foreign
// pins free; victims = resident - request - foreign pins - kept files, in
// resident order.
class OptFileBundleForeignPins
    : public ::testing::TestWithParam<SelectEngine> {};

TEST_P(OptFileBundleForeignPins, VictimsAndBudgetMatchNaiveDerivation) {
  Rng rng(31);
  FileCatalog catalog;
  for (int i = 0; i < 40; ++i) catalog.add_file(rng.uniform_u64(50, 400));
  std::vector<Request> pool;
  for (int i = 0; i < 30; ++i) {
    std::vector<FileId> files;
    const std::size_t n = 1 + rng.index(4);
    for (std::size_t j = 0; j < n; ++j)
      files.push_back(static_cast<FileId>(rng.index(catalog.count())));
    pool.emplace_back(std::move(files));
  }

  OptFileBundleConfig config;
  config.engine = GetParam();
  OptFileBundlePolicy policy(catalog, config);
  DiskCache cache(2500, catalog);
  std::deque<Request> in_flight;  // bundles pinned by running jobs
  std::size_t pinned_decisions = 0;

  for (int step = 0; step < 600; ++step) {
    const Request& request = pool[rng.index(pool.size())];
    policy.on_job_arrival(request, cache);
    const std::vector<FileId> missing = cache.missing_files(request);
    const Bytes missing_bytes = catalog.bundle_bytes(missing);
    if (missing_bytes > cache.free_bytes()) {
      std::vector<FileId> foreign;
      Bytes foreign_bytes = 0;
      for (FileId id : cache.resident_files()) {
        if (cache.pinned(id) && !request.contains(id)) {
          foreign.push_back(id);
          foreign_bytes += catalog.size_of(id);
        }
      }
      if (foreign_bytes > 0) ++pinned_decisions;
      const Bytes reserved = catalog.request_bytes(request) + foreign_bytes;
      const Bytes budget =
          reserved < cache.capacity() ? cache.capacity() - reserved : 0;
      std::vector<FileId> free_files(request.files);
      free_files.insert(free_files.end(), foreign.begin(), foreign.end());
      std::vector<SelectionItem> items;
      for (const HistoryEntry* entry :
           policy.history().candidates(cache, &request)) {
        items.push_back(SelectionItem{&entry->request, entry->value});
      }
      const SelectionResult expected =
          OptCacheSelect(catalog, policy.history().degrees())
              .select(items, budget, SelectVariant::Resort, free_files);

      const std::vector<FileId> victims = policy.select_victims(
          request, missing_bytes - cache.free_bytes(), cache);
      const SelectionResult& keep = policy.last_selection();
      ASSERT_EQ(keep.chosen, expected.chosen) << "step " << step;
      ASSERT_EQ(keep.files, expected.files) << "step " << step;
      ASSERT_EQ(keep.file_bytes, expected.file_bytes) << "step " << step;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(keep.total_value),
                std::bit_cast<std::uint64_t>(expected.total_value))
          << "step " << step;
      ASSERT_LE(keep.file_bytes, budget) << "step " << step;

      std::vector<FileId> naive;
      for (FileId id : cache.resident_files()) {
        if (request.contains(id)) continue;
        if (std::find(foreign.begin(), foreign.end(), id) != foreign.end())
          continue;
        if (std::binary_search(keep.files.begin(), keep.files.end(), id))
          continue;
        naive.push_back(id);
      }
      ASSERT_EQ(victims, naive) << "step " << step;
      for (FileId victim : victims) {
        cache.evict(victim);
        policy.on_file_evicted(victim);
      }
    }
    // Jobs whose bundle cannot fit around the foreign pins are skipped.
    if (missing_bytes <= cache.free_bytes()) {
      for (FileId id : missing) cache.insert(id);
      policy.on_files_loaded(request, missing, cache);
      for (FileId id : request.files) cache.pin(id);
      in_flight.push_back(request);
    }
    // Release finished jobs, keeping up to three in flight.
    while (in_flight.size() > 3 ||
           (!in_flight.empty() && rng.bernoulli(0.3))) {
      for (FileId id : in_flight.front().files) cache.unpin(id);
      in_flight.pop_front();
    }
  }
  EXPECT_GT(pinned_decisions, 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, OptFileBundleForeignPins,
    ::testing::Values(SelectEngine::Reference, SelectEngine::Incremental),
    [](const ::testing::TestParamInfo<SelectEngine>& engine) {
      return to_string(engine.param);
    });

// Property: on random workloads, the policy always satisfies the simulator
// contract (no pinned/requested evictions, capacity respected) across all
// variants and history modes.
struct OptFbParam {
  SelectVariant variant;
  HistoryMode mode;
};

class OptFileBundleProperty : public ::testing::TestWithParam<OptFbParam> {};

TEST_P(OptFileBundleProperty, ContractHoldsOnRandomWorkload) {
  WorkloadConfig wconfig;
  wconfig.seed = 7;
  wconfig.cache_bytes = 10000;
  wconfig.num_files = 60;
  wconfig.min_file_bytes = 100;
  wconfig.max_file_frac = 0.05;
  wconfig.num_requests = 40;
  wconfig.max_bundle_files = 4;
  wconfig.num_jobs = 400;
  const Workload w = generate_workload(wconfig);

  OptFileBundleConfig pconfig;
  pconfig.variant = GetParam().variant;
  pconfig.history.mode = GetParam().mode;
  pconfig.history.window_jobs = 50;
  pconfig.prefetch_selected = GetParam().mode != HistoryMode::CacheResident;
  OptFileBundlePolicy policy(w.catalog, pconfig);

  SimulatorConfig sconfig{.cache_bytes = wconfig.cache_bytes};
  Simulator sim(sconfig, w.catalog, policy);
  const SimulationResult result = sim.run(w.jobs);  // throws on violation
  EXPECT_EQ(result.metrics.jobs() + result.metrics.unserviceable(),
            w.jobs.size());
  EXPECT_LE(sim.cache().used_bytes(), sim.cache().capacity());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndModes, OptFileBundleProperty,
    ::testing::Values(
        OptFbParam{SelectVariant::Basic, HistoryMode::CacheResident},
        OptFbParam{SelectVariant::Resort, HistoryMode::CacheResident},
        OptFbParam{SelectVariant::Resort, HistoryMode::Full},
        OptFbParam{SelectVariant::Resort, HistoryMode::Window},
        OptFbParam{SelectVariant::Seeded1, HistoryMode::CacheResident}));

}  // namespace
}  // namespace fbc
