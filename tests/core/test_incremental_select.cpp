// Tests for the incremental selection engine (core/incremental_select.hpp)
// and the history change-journal that feeds it.
//
// The headline property is *byte-identical* equivalence with the reference
// engine: the engine-diff adapter (testing/oracles.hpp) compares every
// replacement decision field by field -- victim lists, selected requests,
// kept files, and total_value via bit_cast -- and throws EngineDivergence
// at the first mismatch, so "simulation completes without violations"
// means the engines never produced results differing in a single bit.
#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cache/simulator.hpp"
#include "core/incremental_select.hpp"
#include "core/opt_cache_select.hpp"
#include "core/opt_file_bundle.hpp"
#include "core/registry.hpp"
#include "core/request_history.hpp"
#include "testing/instance_gen.hpp"
#include "testing/oracles.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace fbc {
namespace {

using testing::check_engines_agree;
using testing::EngineDivergence;
using testing::generate_sim_instance;
using testing::make_engine_diff_policy;
using testing::SelectInstance;
using testing::SimGenConfig;
using testing::SimInstance;
using testing::Violation;

Workload small_workload(std::uint64_t seed, Bytes cache = 4 * MiB,
                        std::size_t jobs = 600, std::size_t pool = 150) {
  WorkloadConfig config;
  config.seed = seed;
  config.cache_bytes = cache;
  config.num_files = 120;
  config.min_file_bytes = 16 * KiB;
  config.max_file_frac = 0.05;
  config.num_requests = pool;
  config.max_bundle_files = 6;
  config.num_jobs = jobs;
  config.popularity = Popularity::Zipf;
  return generate_workload(config);
}

FileCatalog unit_catalog(std::size_t n) {
  FileCatalog catalog;
  for (std::size_t i = 0; i < n; ++i) catalog.add_file(100);
  return catalog;
}

// --- History change-journal: the engine's input contract ------------------

TEST(HistoryJournal, OffByDefault) {
  FileCatalog catalog = unit_catalog(10);
  RequestHistory history(catalog);
  EXPECT_FALSE(history.journaling());
  history.observe(Request({0, 1}));
  EXPECT_TRUE(history.journal().empty());
}

TEST(HistoryJournal, RecordsAddedEntriesAndDegreeIncrements) {
  FileCatalog catalog = unit_catalog(10);
  RequestHistory history(catalog);
  history.set_journaling(true);
  history.observe(Request({0, 1}));
  history.observe(Request({1, 2}));

  const HistoryJournal& journal = history.journal();
  ASSERT_EQ(journal.added.size(), 2u);
  EXPECT_EQ(journal.added[0], 0u);
  EXPECT_EQ(journal.added[1], 1u);
  EXPECT_TRUE(journal.value_dirty.empty());
  // +1 per file of each new bundle, in occurrence order.
  const std::vector<std::pair<FileId, std::int32_t>> expected{
      {0, 1}, {1, 1}, {1, 1}, {2, 1}};
  EXPECT_EQ(journal.degree_deltas, expected);
  EXPECT_FALSE(journal.remapped);
}

TEST(HistoryJournal, ReobservationIsValueDirtyNotAdded) {
  FileCatalog catalog = unit_catalog(10);
  RequestHistory history(catalog);
  history.set_journaling(true);
  const Request r({3, 4});
  history.observe(r);
  history.drain_journal();
  history.observe(r);

  const HistoryJournal& journal = history.journal();
  EXPECT_TRUE(journal.added.empty());
  EXPECT_TRUE(journal.degree_deltas.empty());  // degrees count distinct reqs
  ASSERT_EQ(journal.value_dirty.size(), 1u);
  EXPECT_EQ(journal.value_dirty[0], history.entry_index(r));
}

TEST(HistoryJournal, DrainAndToggleClear) {
  FileCatalog catalog = unit_catalog(10);
  RequestHistory history(catalog);
  history.set_journaling(true);
  history.observe(Request({0}));
  EXPECT_FALSE(history.journal().empty());
  history.drain_journal();
  EXPECT_TRUE(history.journal().empty());

  history.observe(Request({1}));
  history.set_journaling(false);
  history.set_journaling(true);
  EXPECT_TRUE(history.journal().empty());
}

TEST(HistoryJournal, ClearMarksRemapped) {
  FileCatalog catalog = unit_catalog(10);
  RequestHistory history(catalog);
  history.set_journaling(true);
  history.observe(Request({0}));
  history.clear();
  EXPECT_TRUE(history.journal().remapped);
}

TEST(HistoryJournal, EntryIndexTracksEntries) {
  FileCatalog catalog = unit_catalog(10);
  RequestHistory history(catalog);
  const Request r({5, 6});
  EXPECT_EQ(history.entry_index(r), SIZE_MAX);
  history.observe(r);
  const std::size_t idx = history.entry_index(r);
  ASSERT_LT(idx, history.entries().size());
  EXPECT_EQ(history.entries()[idx].request, r);
}

// --- Engine equivalence: every variant x history mode ---------------------

TEST(IncrementalSelect, AgreesAcrossAllVariantsAndHistoryModes) {
  // Kept small: the Seeded variants re-run the greedy once per seed
  // candidate, so a Full-history Seeded2 decision is quadratic in the
  // pool -- 200 jobs x 12 combos still covers hundreds of decisions.
  const Workload w = small_workload(11, 2 * MiB, 200, 80);
  SimulatorConfig sim{.cache_bytes = 2 * MiB, .warmup_jobs = 0};

  for (SelectVariant variant :
       {SelectVariant::Basic, SelectVariant::Resort, SelectVariant::Seeded1,
        SelectVariant::Seeded2}) {
    for (HistoryMode mode :
         {HistoryMode::Full, HistoryMode::Window, HistoryMode::CacheResident}) {
      OptFileBundleConfig config;
      config.variant = variant;
      config.history.mode = mode;
      config.history.window_jobs = 40;
      PolicyPtr policy = make_engine_diff_policy(w.catalog, config);
      // EngineDivergence at any decision would propagate out of simulate().
      EXPECT_NO_THROW(simulate(sim, w.catalog, *policy, w.jobs))
          << to_string(variant) << " / " << to_string(mode);
    }
  }
}

TEST(IncrementalSelect, AgreesWithBytesWeightedValuesAndPrefetch) {
  const Workload w = small_workload(12);
  SimulatorConfig sim{.cache_bytes = 4 * MiB, .warmup_jobs = 0};

  OptFileBundleConfig bytes_config;
  bytes_config.value_model = ValueModel::BytesWeighted;
  PolicyPtr bytes_policy = make_engine_diff_policy(w.catalog, bytes_config);
  EXPECT_NO_THROW(simulate(sim, w.catalog, *bytes_policy, w.jobs));

  // Full history + speculative prefetch exercises on_prefetched: the
  // engine must learn about files the simulator loads outside admission.
  OptFileBundleConfig prefetch_config;
  prefetch_config.history.mode = HistoryMode::Full;
  prefetch_config.prefetch_selected = true;
  PolicyPtr prefetch_policy =
      make_engine_diff_policy(w.catalog, prefetch_config);
  EXPECT_NO_THROW(simulate(sim, w.catalog, *prefetch_policy, w.jobs));
}

TEST(IncrementalSelect, AgreesUnderHistoryCompaction) {
  // max_entries small enough that compaction fires repeatedly: the journal
  // must carry the dropped entries' degree decrements and the remap flag,
  // or the incremental engine drifts (see drain_journal()).
  const Workload w = small_workload(13);
  SimulatorConfig sim{.cache_bytes = 4 * MiB, .warmup_jobs = 0};

  OptFileBundleConfig config;
  config.history.max_entries = 40;
  PolicyPtr policy = make_engine_diff_policy(w.catalog, config);
  EXPECT_NO_THROW(simulate(sim, w.catalog, *policy, w.jobs));

  // Confirm the scenario actually compacts (the test above is vacuous
  // otherwise): an incremental-engine policy run standalone stays capped.
  config.engine = SelectEngine::Incremental;
  OptFileBundlePolicy incremental(w.catalog, config);
  simulate(sim, w.catalog, incremental, w.jobs);
  EXPECT_LE(incremental.history().distinct_requests(), 40u);
  EXPECT_GT(incremental.history().observed_jobs(), 100u);
}

TEST(IncrementalSelect, AgreesOnFuzzedSimInstances) {
  // Randomized sweep over the fuzzer's trace generator -- tiny caches,
  // undersized-capacity and queued-admission cases included.
  const char* kPolicies[] = {"optfb",         "optfb-basic", "optfb-seeded1",
                             "optfb-seeded2", "optfb-full",  "optfb-window",
                             "optfb-bytes"};
  Rng master(2024);
  for (std::uint64_t iter = 0; iter < 28; ++iter) {
    Rng rng(master.derive_seed(iter));
    const SimInstance instance = generate_sim_instance(SimGenConfig{}, rng);
    const std::string policy = kPolicies[iter % std::size(kPolicies)];
    const std::vector<Violation> violations =
        check_engines_agree(instance.trace, instance.config, policy);
    EXPECT_TRUE(violations.empty())
        << "iter " << iter << " policy " << policy << ": "
        << (violations.empty() ? "" : violations.front().to_string());
  }
}

TEST(IncrementalSelect, AgreesOnPinnedHardFixtures) {
  // The checked-in adversarial instances (worst observed greedy/exact
  // ratio -- high file degrees, tight capacities) replayed as job streams.
  const std::filesystem::path dir(FBC_FIXTURE_DIR);
  std::size_t found = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".trace") continue;
    const Trace trace = load_trace(file.path().string());
    // The corpus also holds other fixture kinds (e.g. the optgen drift
    // trace); only select instances replay here.
    const std::string* kind = trace.meta_value("kind");
    if (kind == nullptr || *kind != "select") continue;
    ++found;
    const SelectInstance instance = testing::select_instance_from_trace(trace);
    for (const Bytes cache :
         {instance.capacity, instance.capacity * 2, instance.capacity / 2}) {
      if (cache == 0) continue;
      SimulatorConfig sim{.cache_bytes = cache};
      for (const char* policy : {"optfb", "optfb-full", "optfb-seeded2"}) {
        const std::vector<Violation> violations =
            check_engines_agree(trace, sim, policy);
        EXPECT_TRUE(violations.empty())
            << file.path().filename() << " cache=" << cache << " " << policy
            << ": "
            << (violations.empty() ? "" : violations.front().to_string());
      }
    }
  }
  EXPECT_GE(found, 3u) << "fixture corpus missing from " << dir;
}

// --- Greedy order on hand-built instances ---------------------------------

/// One hand-built selection instance: Full history over `requests` (each
/// observed once with its value as the weight), an empty cache, and an
/// incoming request whose files are free.
struct GreedyCase {
  std::vector<Bytes> file_sizes;
  std::vector<std::pair<std::vector<FileId>, double>> requests;
  std::vector<FileId> incoming;
  Bytes budget = 0;
};

/// Runs `variant` through the Reference engine and the incremental
/// engine, asserts bitwise-equal results and equal heap_ops, and returns
/// the incremental result. One selector serves every call of a case, so
/// the engine's reused scratch is exercised across variants.
SelectionResult greedy_agrees(const GreedyCase& instance,
                              const FileCatalog& catalog,
                              RequestHistory& history,
                              IncrementalSelector& selector,
                              SelectVariant variant) {
  const Request incoming(instance.incoming);
  const DiskCache cache(1 * GiB, catalog);

  std::vector<SelectionItem> items;
  for (const HistoryEntry* entry : history.candidates(cache, &incoming))
    items.push_back(SelectionItem{&entry->request, entry->value});
  const OptCacheSelect reference(catalog, history.degrees());
  SelectionCost ref_cost;
  const SelectionResult ref = reference.select(
      items, instance.budget, variant, incoming.files, &ref_cost);

  SelectionCost inc_cost;
  const IncrementalSelector::Selection inc = selector.select(
      incoming, incoming.files, instance.budget, variant, cache, &inc_cost);

  const std::string label = to_string(variant);
  EXPECT_EQ(inc.candidate_count, items.size()) << label;
  EXPECT_EQ(inc.result.chosen, ref.chosen) << label;
  EXPECT_EQ(inc.result.files, ref.files) << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(inc.result.total_value),
            std::bit_cast<std::uint64_t>(ref.total_value))
      << label;
  EXPECT_EQ(inc.result.file_bytes, ref.file_bytes) << label;
  EXPECT_EQ(inc.result.single_request_override, ref.single_request_override)
      << label;
  EXPECT_EQ(inc_cost.heap_ops, ref_cost.heap_ops) << label;
  return inc.result;
}

/// Builds the case and returns the Resort result, after checking every
/// variant (the Seeded ones include infeasible-seed early returns).
SelectionResult resort_after_checking_all_variants(const GreedyCase& instance) {
  FileCatalog catalog;
  for (Bytes size : instance.file_sizes) catalog.add_file(size);
  RequestHistory history(catalog,
                         RequestHistoryConfig{.mode = HistoryMode::Full});
  history.set_journaling(true);
  for (const auto& [files, value] : instance.requests)
    history.observe(Request(files), value);
  IncrementalSelector selector(catalog, history);

  SelectionResult resort;
  for (SelectVariant variant :
       {SelectVariant::Resort, SelectVariant::Seeded1, SelectVariant::Seeded2,
        SelectVariant::Basic, SelectVariant::Resort}) {
    SelectionResult result =
        greedy_agrees(instance, catalog, history, selector, variant);
    if (variant == SelectVariant::Resort) resort = std::move(result);
  }
  return resort;
}

TEST(IncrementalSelect,
     GreedyOrderMatchesReferenceOnTiesInfiniteKeysAndDeadItems) {
  // Ties: candidates 0 and 1 have bitwise-equal keys (1 / 200) and only
  // one fits, so the lower index is taken. The pair seed {0, 1} does not
  // fit: the Seeded variants hit the infeasible-seed early return.
  {
    GreedyCase tie;
    tie.file_sizes = {100, 100, 100, 100, 10};
    tie.requests = {{{0, 1}, 1.0}, {{2, 3}, 1.0}};
    tie.incoming = {4};
    tie.budget = 200;
    const SelectionResult result = resort_after_checking_all_variants(tie);
    EXPECT_EQ(result.chosen, (std::vector<std::size_t>{0}));
  }

  // Infinite keys: taking 0 = {0, 1} covers every non-free file of
  // 1 = {1, 4} (file 4 is the incoming request's) and of 3 = {0}, so
  // their adjusted sizes reach 0 and their keys +inf. Both are taken next,
  // the lower index first, ahead of 2, whose key (2.5 / 100) beat both of
  // their initial keys (1 / 50).
  {
    GreedyCase inf;
    inf.file_sizes = {100, 100, 100, 100, 10};
    inf.requests = {{{0, 1}, 4.0}, {{1, 4}, 1.0}, {{2}, 2.5}, {{0}, 1.0}};
    inf.incoming = {4};
    inf.budget = 300;
    const SelectionResult result = resort_after_checking_all_variants(inf);
    EXPECT_EQ(result.chosen, (std::vector<std::size_t>{0, 1, 3, 2}));
  }

  // Dead items: after 0 is taken, 1 = {2, 3, 4} ranks next but no longer
  // fits (240 > 50 bytes left), while the smaller, later 2 = {4} does.
  // Taking 2 covers file 4, which the dead 1 shares: a dead candidate is
  // never re-keyed, so it must not count as a heap push either.
  {
    GreedyCase dead;
    dead.file_sizes = {100, 100, 100, 100, 40, 10};
    dead.requests = {{{0, 1}, 10.0}, {{2, 3, 4}, 6.0}, {{4}, 0.4}};
    dead.incoming = {5};
    dead.budget = 250;
    const SelectionResult result = resort_after_checking_all_variants(dead);
    EXPECT_EQ(result.chosen, (std::vector<std::size_t>{0, 2}));
  }
}

TEST(IncrementalSelect, TakeReachingACandidateThroughSharedFilesRaisesItOnce) {
  // Taking 0 = {0, 1, 2, 3} covers three files of 1 = {0, 1, 2, 4}: three
  // subtractions from 1's sizes (three Reference heap pushes), one raise.
  // 1's key climbs from 4/250 to 4/100, past 2 = {5} (3/100), so it is
  // taken second. 3 = {3, 6} (2/150, then 2/100 after file 3) ranks last
  // and no longer fits in the 50 bytes left: it dies.
  GreedyCase shared;
  shared.file_sizes = {100, 100, 100, 100, 100, 100, 100, 100, 100, 100};
  shared.requests = {{{0, 1, 2, 3}, 10.0},
                     {{0, 1, 2, 4}, 4.0},
                     {{5}, 3.0},
                     {{3, 6}, 2.0}};
  shared.incoming = {9};
  shared.budget = 650;
  const SelectionResult result = resort_after_checking_all_variants(shared);
  EXPECT_EQ(result.chosen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(result.files, (std::vector<FileId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(result.file_bytes, 600u);
}

TEST(IncrementalSelect, KeptIdsComeBackInIdOrderOnDenseAndSparseCatalogs) {
  // Dense: ~500 files, bundles drawn over all of them, so the kept ids
  // fill most words of the read-back bitmap.
  {
    Rng rng(7);
    GreedyCase dense;
    dense.file_sizes.assign(500, 100);
    for (int r = 0; r < 60; ++r) {
      std::vector<FileId> files;
      for (std::size_t i : rng.sample_without_replacement(499, 8))
        files.push_back(static_cast<FileId>(i));
      dense.requests.push_back(
          {std::move(files), static_cast<double>(1 + rng.index(10))});
    }
    dense.incoming = {499};
    dense.budget = 20000;
    const SelectionResult result = resort_after_checking_all_variants(dense);
    EXPECT_GT(result.files.size(), 100u);
  }

  // Sparse: six kept ids spread over 100k files, one or none per word.
  {
    GreedyCase sparse;
    sparse.file_sizes.assign(100000, 100);
    sparse.requests = {{{7, 40000}, 5.0},
                       {{123, 99998}, 4.0},
                       {{51234, 77777, 40000}, 3.0},
                       {{64, 65}, 1.0}};
    sparse.incoming = {99999};
    sparse.budget = 700;
    const SelectionResult result = resort_after_checking_all_variants(sparse);
    EXPECT_EQ(result.files,
              (std::vector<FileId>{7, 123, 40000, 51234, 77777, 99998}));
  }
}

// --- Reused decision buffers ----------------------------------------------

TEST(IncrementalSelect, RecycledResultsLeakNothingIntoTheNextDecision) {
  // The incremental policy builds each decision's result in the previous
  // one's storage. Replay a stream whose first decision takes Algorithm
  // 1's single-request override and whose second does not, and compare
  // every field of every decision with a fresh Reference-engine policy.
  //
  // Files: X = {0} 100 B, Y = {1} 10 B, Z = {2} 50 B; cache 150 B.
  // Decision 1 (Z arrives, X x3 and Y resident, budget 100): the greedy
  // takes the denser Y (1/10), after which X no longer fits; X alone
  // (value 3 > 1) overrides it. Decision 2 (Y arrives, X and Z resident,
  // budget 140): the greedy keeps X, Z no longer fits, and no single
  // request beats X's 3: no override.
  FileCatalog catalog({100, 10, 50});
  const Request x({0});
  const Request y({1});
  const Request z({2});
  const std::vector<Request> stream = {x, x, x, y, z, y};

  for (SelectVariant variant :
       {SelectVariant::Basic, SelectVariant::Resort, SelectVariant::Seeded1,
        SelectVariant::Seeded2}) {
    SCOPED_TRACE(to_string(variant));
    OptFileBundleConfig config;
    config.variant = variant;
    OptFileBundlePolicy reference(catalog, config);
    config.engine = SelectEngine::Incremental;
    OptFileBundlePolicy incremental(catalog, config);
    DiskCache ref_cache(150, catalog);
    DiskCache inc_cache(150, catalog);

    // One job through one policy, simulator-style; returns the victims
    // of its replacement decision (none when the bundle fit).
    auto step = [](OptFileBundlePolicy& policy, DiskCache& cache,
                   const Request& request) {
      policy.on_job_arrival(request, cache);
      const std::vector<FileId> missing = cache.missing_files(request);
      const Bytes needed = cache.catalog().bundle_bytes(missing);
      std::vector<FileId> victims;
      if (needed > cache.free_bytes()) {
        victims = policy.select_victims(request, needed - cache.free_bytes(),
                                        cache);
        for (FileId id : victims) {
          cache.evict(id);
          policy.on_file_evicted(id);
        }
      }
      for (FileId id : missing) cache.insert(id);
      policy.on_files_loaded(request, missing, cache);
      return victims;
    };

    std::vector<bool> overrides;
    for (const Request& request : stream) {
      const std::uint64_t before = reference.selection_cost()->decisions;
      const std::vector<FileId> ref_victims =
          step(reference, ref_cache, request);
      const std::vector<FileId> inc_victims =
          step(incremental, inc_cache, request);
      EXPECT_EQ(inc_victims, ref_victims);
      if (reference.selection_cost()->decisions == before) continue;
      const SelectionResult& ref = reference.last_selection();
      const SelectionResult& inc = incremental.last_selection();
      EXPECT_EQ(inc.chosen, ref.chosen);
      EXPECT_EQ(inc.files, ref.files);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(inc.total_value),
                std::bit_cast<std::uint64_t>(ref.total_value));
      EXPECT_EQ(inc.file_bytes, ref.file_bytes);
      EXPECT_EQ(inc.single_request_override, ref.single_request_override);
      overrides.push_back(ref.single_request_override);
    }
    EXPECT_EQ(overrides, (std::vector<bool>{true, false}));
    EXPECT_EQ(incremental.selection_cost()->decisions, 2u);
  }
}

// --- Effort counters ------------------------------------------------------

TEST(IncrementalSelect, RescoresFewerEntriesThanReference) {
  const Workload w = small_workload(14);
  SimulatorConfig sim{.cache_bytes = 4 * MiB, .warmup_jobs = 0};

  auto run = [&](SelectEngine engine) {
    OptFileBundleConfig config;
    config.engine = engine;
    OptFileBundlePolicy policy(w.catalog, config);
    return simulate(sim, w.catalog, policy, w.jobs);
  };
  const SimulationResult ref = run(SelectEngine::Reference);
  const SimulationResult inc = run(SelectEngine::Incremental);

  const SelectionCost& ref_cost = ref.metrics.selection_cost();
  const SelectionCost& inc_cost = inc.metrics.selection_cost();
  ASSERT_GT(ref_cost.decisions, 0u);
  EXPECT_EQ(ref_cost.decisions, inc_cost.decisions);
  // Same greedy runs on both sides => identical heap traffic: the
  // incremental engine keeps a tournament tree, and reports the count the
  // reference heap would make from the same key changes.
  EXPECT_EQ(ref_cost.heap_ops, inc_cost.heap_ops);
  // The point of the engine: far fewer full v'(r) recomputations.
  EXPECT_LT(inc_cost.entries_rescored, ref_cost.entries_rescored / 2);
  // And, end to end, identical caching behavior.
  EXPECT_EQ(ref.metrics.byte_miss_ratio(), inc.metrics.byte_miss_ratio());
  EXPECT_EQ(ref.victims, inc.victims);

  // The largest point of `bench_select_scaling --smoke` (history 400,
  // 64 MiB, 800 jobs, seed 1), built the way the bench builds it: at each
  // policy the incremental engine must rescore no more entries per
  // decision than the reference scans, with identical decisions.
  WorkloadConfig config;
  config.seed = 1;
  config.cache_bytes = 64 * MiB;
  config.num_files = 300;
  config.min_file_bytes = 64 * KiB;
  config.max_file_frac = 0.01;
  config.num_requests = 400;
  config.min_bundle_files = 1;
  config.max_bundle_files = 8;
  config.num_jobs = 800;
  config.popularity = Popularity::Zipf;
  const Workload smoke = generate_workload(config);
  const SimulatorConfig smoke_sim{.cache_bytes = 64 * MiB, .warmup_jobs = 0};
  for (const char* name : {"optfb", "optfb-full"}) {
    auto replay = [&](SelectEngine engine) {
      PolicyContext context;
      context.catalog = &smoke.catalog;
      context.jobs = smoke.jobs;
      context.seed = 1;
      context.select_engine = engine;
      const PolicyPtr policy = make_policy(name, context);
      return simulate(smoke_sim, smoke.catalog, *policy, smoke.jobs);
    };
    const CacheMetrics reference = replay(SelectEngine::Reference).metrics;
    const CacheMetrics incremental = replay(SelectEngine::Incremental).metrics;
    const SelectionCost& scanned = reference.selection_cost();
    const SelectionCost& rescored = incremental.selection_cost();
    ASSERT_GT(scanned.decisions, 0u) << name;
    EXPECT_EQ(scanned.decisions, rescored.decisions) << name;
    EXPECT_EQ(reference.byte_miss_ratio(), incremental.byte_miss_ratio())
        << name;
    // Equal decision counts, so compare the totals: rescored/decision <=
    // scanned/decision without a division.
    EXPECT_LE(rescored.entries_rescored, scanned.candidates_scanned) << name;
  }
}

TEST(IncrementalSelect, PolicyNameDistinguishesEngines) {
  FileCatalog catalog = unit_catalog(4);
  OptFileBundleConfig config;
  OptFileBundlePolicy reference(catalog, config);
  config.engine = SelectEngine::Incremental;
  OptFileBundlePolicy incremental(catalog, config);
  EXPECT_NE(reference.name(), incremental.name());
  EXPECT_EQ(reference.engine(), SelectEngine::Reference);
  EXPECT_EQ(incremental.engine(), SelectEngine::Incremental);
}

// --- The oracle itself must be able to fail -------------------------------

TEST(IncrementalSelect, DiffAdapterDetectsDeliberateMismatch) {
  // Mis-pair the adapter on purpose: reference sees the full history,
  // "incremental" only cache-resident candidates. The first replacement
  // decision where the candidate sets differ must throw.
  const Workload w = small_workload(15, 2 * MiB);
  OptFileBundleConfig full_config;
  full_config.history.mode = HistoryMode::Full;
  OptFileBundleConfig resident_config;
  resident_config.history.mode = HistoryMode::CacheResident;
  resident_config.engine = SelectEngine::Incremental;

  PolicyPtr policy = make_engine_diff_policy(
      std::make_unique<OptFileBundlePolicy>(w.catalog, full_config),
      std::make_unique<OptFileBundlePolicy>(w.catalog, resident_config));
  SimulatorConfig sim{.cache_bytes = 2 * MiB};
  EXPECT_THROW(simulate(sim, w.catalog, *policy, w.jobs), EngineDivergence);
}

}  // namespace
}  // namespace fbc
