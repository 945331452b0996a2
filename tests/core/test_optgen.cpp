// BundleOPTgen: hand-checked verdicts, the nesting chain, window
// clipping, capacity monotonicity, differential agreement with the
// brute-force reference, the pinch-construction agreement with
// exact_select(), and pinned replays of the checked-in fixtures
// (including the drift scenario where every OPTgen level is strictly
// tighter than the clairvoyant repeat bound).
#include "core/optgen.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/opt_cache_select.hpp"
#include "testing/instance_gen.hpp"
#include "testing/optgen_reference.hpp"
#include "testing/oracles.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"
#include "workload/workload.hpp"

namespace fbc {
namespace {

using testing::OptgenCheckConfig;
using testing::OptgenReferenceResult;
using testing::SimGenConfig;
using testing::SimInstance;

std::string fixture_path(const std::string& name) {
  return std::string(FBC_FIXTURE_DIR) + "/" + name;
}

TEST(BundleOPTgenTest, RejectsZeroCapacityAndWindow) {
  FileCatalog catalog({1});
  EXPECT_THROW(BundleOPTgen(catalog, OptgenConfig{0, 4096}),
               std::invalid_argument);
  EXPECT_THROW(BundleOPTgen(catalog, OptgenConfig{10, 0}),
               std::invalid_argument);
}

TEST(BundleOPTgenTest, HandCheckedVerdicts) {
  FileCatalog catalog({4, 3, 5});
  BundleOPTgen oracle(catalog, OptgenConfig{10, 4096});

  // t0: first occurrence -- serviced, no reuse possible.
  OptgenVerdict v = oracle.observe(Request({0}));
  EXPECT_EQ(v, (OptgenVerdict{true, false, false, false, false}));

  // t1: another first occurrence.
  v = oracle.observe(Request({1}));
  EXPECT_EQ(v, (OptgenVerdict{true, false, false, false, false}));

  // t2: file 0 reuse across t1 (forced 3): 3 + 4 <= 10 at every level.
  v = oracle.observe(Request({0}));
  EXPECT_EQ(v, (OptgenVerdict{true, true, true, true, false}));

  // t3: {0,1}; file 0's gap is empty, file 1 needs quantum t2 (forced 4,
  // need 3): 4 + 3 <= 10.
  v = oracle.observe(Request({0, 1}));
  EXPECT_EQ(v, (OptgenVerdict{true, true, true, true, false}));

  // t4: file 2 never seen before.
  v = oracle.observe(Request({2}));
  EXPECT_EQ(v, (OptgenVerdict{true, false, false, false, false}));

  // t5: bundle 4+3+5 = 12 > 10 -- unserviceable, nothing can hit.
  v = oracle.observe(Request({0, 1, 2}));
  EXPECT_EQ(v, (OptgenVerdict{false, false, false, false, false}));

  // t6: file 2 reuse across the unserviceable t5 (forced 0): hit again.
  v = oracle.observe(Request({2}));
  EXPECT_EQ(v, (OptgenVerdict{true, true, true, true, false}));

  const OptgenStats& stats = oracle.stats();
  EXPECT_EQ(stats.jobs, 7u);
  EXPECT_EQ(stats.serviced, 6u);
  EXPECT_EQ(stats.opt_hits, 3u);
  EXPECT_EQ(stats.demand_hits, 3u);
  EXPECT_EQ(stats.reuse_hits, 3u);
  EXPECT_EQ(stats.opt_hit_bytes, 4u + 7u + 5u);
  EXPECT_EQ(stats.truncated_intervals, 0u);
}

TEST(BundleOPTgenTest, EmptyRequestIsAlwaysAHit) {
  FileCatalog catalog({4});
  BundleOPTgen oracle(catalog, OptgenConfig{10, 4096});
  // Even at t = 0, before anything was serviced: an empty bundle needs
  // nothing resident, so every level (and the clairvoyant bound above
  // them) counts it as a hit.
  const OptgenVerdict v = oracle.observe(Request(std::vector<FileId>{}));
  EXPECT_EQ(v, (OptgenVerdict{true, true, true, true, false}));
  const std::vector<Request> jobs{Request(std::vector<FileId>{})};
  const RepeatBound clair = clairvoyant_upper_bound(catalog, jobs, 10);
  EXPECT_EQ(clair.hits, 1u);
}

TEST(BundleOPTgenTest, CommittedOccupancyIsTracked) {
  FileCatalog catalog({4, 3});
  BundleOPTgen oracle(catalog, OptgenConfig{10, 4096});
  oracle.observe(Request({0}));
  oracle.observe(Request({1}));
  oracle.observe(Request({0}));  // commits 4 bytes across quantum 1
  EXPECT_EQ(oracle.occupancy_at(0), 4u);      // forced only
  EXPECT_EQ(oracle.occupancy_at(1), 3u + 4u); // forced + committed
  EXPECT_EQ(oracle.stats().peak_occupancy, 7u);
  EXPECT_EQ(oracle.now(), 3u);

  oracle.reset();
  EXPECT_EQ(oracle.now(), 0u);
  EXPECT_EQ(oracle.stats().jobs, 0u);
  // Reusable after reset: same trace, same verdicts.
  oracle.observe(Request({0}));
  oracle.observe(Request({1}));
  EXPECT_TRUE(oracle.observe(Request({0})).opt_hit);
}

TEST(BundleOPTgenTest, WindowClippingMarksTruncatedAndStaysAnUpperBound) {
  // Gap (0,3) for file 0; the infeasible quantum 1 (forced 3 + need 2 >
  // capacity 3) sits outside a window of 1, so the clipped verdict is
  // feasible -- an over-admission, never an under-admission.
  FileCatalog catalog({2, 3});
  const std::vector<Request> jobs{Request({0}), Request({1}),
                                  Request(std::vector<FileId>{}),
                                  Request({0})};

  BundleOPTgen wide(catalog, OptgenConfig{3, 4096});
  for (std::size_t t = 0; t + 1 < jobs.size(); ++t) wide.observe(jobs[t]);
  const OptgenVerdict unclipped = wide.observe(jobs.back());
  EXPECT_FALSE(unclipped.demand_feasible);
  EXPECT_FALSE(unclipped.truncated);

  BundleOPTgen narrow(catalog, OptgenConfig{3, 1});
  for (std::size_t t = 0; t + 1 < jobs.size(); ++t) narrow.observe(jobs[t]);
  const OptgenVerdict clipped = narrow.observe(jobs.back());
  EXPECT_TRUE(clipped.demand_feasible);
  EXPECT_TRUE(clipped.truncated);
  EXPECT_GE(narrow.stats().truncated_intervals, 1u);
}

TEST(BundleOPTgenTest, ChainHoldsOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SimGenConfig gen;
    gen.drift_prob = 0.5;
    const SimInstance inst = testing::generate_sim_instance(gen, rng);
    const Bytes cap = inst.config.cache_bytes;
    BundleOPTgen oracle(inst.trace.catalog, OptgenConfig{cap, 4096});
    for (const Request& job : inst.trace.jobs) {
      const OptgenVerdict v = oracle.observe(job);
      EXPECT_TRUE(!v.opt_hit || v.demand_feasible) << "seed " << seed;
      EXPECT_TRUE(!v.demand_feasible || v.reuse_feasible) << "seed " << seed;
      EXPECT_TRUE(!v.reuse_feasible || v.serviced) << "seed " << seed;
    }
    const RepeatBound clair =
        clairvoyant_upper_bound(inst.trace.catalog, inst.trace.jobs, cap);
    const OptgenStats& stats = oracle.stats();
    EXPECT_LE(stats.opt_hits, stats.demand_hits) << "seed " << seed;
    EXPECT_LE(stats.demand_hits, stats.reuse_hits) << "seed " << seed;
    EXPECT_LE(stats.reuse_hits, clair.hits) << "seed " << seed;
  }
}

TEST(BundleOPTgenTest, DemandAndReuseMonotoneInCapacityWhenServiceable) {
  // With every bundle serviceable at both capacities the forced schedule
  // is identical, so a larger cache can only admit more: each verdict at
  // capacity C implies the same verdict at C' > C. (Without the
  // serviceability proviso the forced schedule itself changes and the
  // bounds are legitimately non-monotone.)
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SimGenConfig gen;
    gen.undersized_prob = 0.0;  // capacity >= the largest bundle
    gen.drift_prob = 0.3;
    const SimInstance inst = testing::generate_sim_instance(gen, rng);
    const Bytes cap = inst.config.cache_bytes;
    BundleOPTgen small(inst.trace.catalog, OptgenConfig{cap, 4096});
    BundleOPTgen large(inst.trace.catalog, OptgenConfig{cap * 2, 4096});
    for (const Request& job : inst.trace.jobs) {
      const OptgenVerdict vs = small.observe(job);
      const OptgenVerdict vl = large.observe(job);
      EXPECT_TRUE(!vs.demand_feasible || vl.demand_feasible)
          << "seed " << seed;
      EXPECT_TRUE(!vs.reuse_feasible || vl.reuse_feasible) << "seed " << seed;
    }
  }
}

TEST(BundleOPTgenTest, AgreesWithBruteForceReferenceOnRandomTraces) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    SimGenConfig gen;
    gen.drift_prob = 0.5;
    const SimInstance inst = testing::generate_sim_instance(gen, rng);
    for (const std::size_t window : {std::size_t{4096}, std::size_t{3}}) {
      OptgenCheckConfig check;
      check.cache_bytes = inst.config.cache_bytes;
      check.window_quanta = window;
      // No policies: runs the divergence/capacity/chain/clairvoyant
      // oracles without the (slow) policy replays.
      const std::vector<testing::Violation> violations =
          testing::check_optgen(inst.trace, check);
      for (const testing::Violation& v : violations) {
        ADD_FAILURE() << "seed " << seed << " window " << window << ": "
                      << v.to_string();
      }
    }
  }
}

TEST(BundleOPTgenTest, PinchConstructionMatchesExactSelect) {
  // k disjoint unit bundles of size s, a separator of size sigma >= s,
  // then the k bundles again. Every phase-B reuse gap crosses the
  // separator quantum, where the admission constraint is exactly
  // sigma + (admitted + 1) * s <= C -- the 0/1 knapsack exact_select()
  // solves with budget C - sigma. Equal sizes make greedy == exact.
  struct Case {
    std::size_t k;
    Bytes s, sigma, capacity;
  };
  for (const Case& c : {Case{5, 2, 3, 10}, Case{4, 3, 3, 20},
                        Case{6, 1, 5, 9}, Case{3, 4, 4, 9}}) {
    FileCatalog catalog;
    for (std::size_t i = 0; i < c.k; ++i) catalog.add_file(c.s);
    catalog.add_file(c.sigma);

    std::vector<Request> phase;
    for (std::size_t i = 0; i < c.k; ++i)
      phase.emplace_back(std::vector<FileId>{static_cast<FileId>(i)});
    std::vector<Request> jobs = phase;
    jobs.emplace_back(std::vector<FileId>{static_cast<FileId>(c.k)});
    jobs.insert(jobs.end(), phase.begin(), phase.end());

    const OptgenStats og =
        replay_optgen(catalog, jobs, OptgenConfig{c.capacity, 4096});

    std::vector<SelectionItem> items;
    for (const Request& r : phase) items.push_back({&r, 1.0});
    const SelectionResult exact =
        exact_select(items, catalog, c.capacity - c.sigma);

    const std::uint64_t expected =
        std::min<std::uint64_t>(c.k, (c.capacity - c.sigma) / c.s);
    EXPECT_EQ(og.opt_hits, expected)
        << "k=" << c.k << " s=" << c.s << " sigma=" << c.sigma;
    EXPECT_DOUBLE_EQ(exact.total_value, static_cast<double>(expected));
    // Demand only needs sigma + s <= C per slice: all k phase-B jobs.
    EXPECT_EQ(og.demand_hits, c.k);
    EXPECT_EQ(og.reuse_hits, c.k);
  }
}

TEST(BundleOPTgenTest, PinnedHardSelectFixtureReplays) {
  // The Theorem 4.1 regression corpus, replayed twice (A;B) through the
  // oracle at the fixture capacity. Values pinned at introduction; a
  // change means the oracle's semantics moved.
  struct Pinned {
    const char* name;
    std::uint64_t serviced, opt, demand, reuse, clair;
  };
  const Pinned pinned[] = {
      {"hard-select-7-692.trace", 20, 15, 15, 15, 15},
      {"hard-select-7-924.trace", 20, 14, 14, 14, 14},
      {"hard-select-7-1090.trace", 12, 10, 10, 10, 10},
  };
  for (const Pinned& p : pinned) {
    const Trace fixture = load_trace(fixture_path(p.name));
    const testing::SelectInstance inst =
        testing::select_instance_from_trace(fixture);
    std::vector<Request> jobs = inst.requests;
    jobs.insert(jobs.end(), inst.requests.begin(), inst.requests.end());
    const OptgenStats og =
        replay_optgen(inst.catalog, jobs, OptgenConfig{inst.capacity, 4096});
    const RepeatBound clair =
        clairvoyant_upper_bound(inst.catalog, jobs, inst.capacity);
    EXPECT_EQ(og.serviced, p.serviced) << p.name;
    EXPECT_EQ(og.opt_hits, p.opt) << p.name;
    EXPECT_EQ(og.demand_hits, p.demand) << p.name;
    EXPECT_EQ(og.reuse_hits, p.reuse) << p.name;
    EXPECT_EQ(clair.hits, p.clair) << p.name;
  }
}

TEST(BundleOPTgenTest, DriftFixtureIsStrictlyTighterThanClairvoyant) {
  // The checked-in drift scenario: a mid-trace popularity rotation the
  // repeat-based clairvoyant bound cannot see through, so every OPTgen
  // level sits strictly below it (the bound-tightness acceptance case).
  const Trace fixture = load_trace(fixture_path("optgen-drift-18.trace"));
  const std::string* cache_meta = fixture.meta_value("cache_bytes");
  ASSERT_NE(cache_meta, nullptr);
  const Bytes cap = std::stoull(*cache_meta);
  const OptgenStats og =
      replay_optgen(fixture.catalog, fixture.jobs, OptgenConfig{cap, 4096});
  const RepeatBound clair =
      clairvoyant_upper_bound(fixture.catalog, fixture.jobs, cap);
  EXPECT_EQ(og.opt_hits, 90u);
  EXPECT_EQ(og.demand_hits, 105u);
  EXPECT_EQ(og.reuse_hits, 132u);
  EXPECT_EQ(clair.hits, 143u);
  EXPECT_LT(og.opt_hits, og.demand_hits);
  EXPECT_LT(og.demand_hits, og.reuse_hits);
  EXPECT_LT(og.reuse_hits, clair.hits);
}

TEST(BundleOPTgenTest, IncrementalCostPerJobIsSubLinearInTraceLength) {
  // The sweep of `bench_optgen --smoke` (64 MiB, window 1024, seed 1).
  // The incremental oracle's per-job cost is bounded by the reuse-gap
  // lengths clipped to the window, so it must plateau as the trace grows;
  // the reference re-scans the prefix per job and must cost more.
  const Bytes cache = 64 * MiB;
  const OptgenConfig config{cache, 1024};
  struct Point {
    std::size_t jobs;
    std::uint64_t incremental;  ///< slices scanned
    std::uint64_t reference;
  };
  std::vector<Point> points;
  for (const std::size_t jobs : {250u, 1000u, 4000u}) {
    WorkloadConfig wc;
    wc.seed = 1;
    wc.cache_bytes = cache;
    wc.num_files = 300;
    wc.min_file_bytes = 64 * KiB;
    wc.max_file_frac = 0.01;
    wc.num_requests = 400;
    wc.min_bundle_files = 1;
    wc.max_bundle_files = 8;
    wc.num_jobs = jobs;
    wc.popularity = Popularity::Zipf;
    const Workload w = generate_workload(wc);
    const OptgenStats inc = replay_optgen(w.catalog, w.jobs, config);
    const OptgenReferenceResult ref =
        testing::reference_optgen(w.catalog, w.jobs, config);
    EXPECT_EQ(inc.opt_hits, ref.stats.opt_hits) << jobs;
    EXPECT_EQ(inc.demand_hits, ref.stats.demand_hits) << jobs;
    EXPECT_EQ(inc.reuse_hits, ref.stats.reuse_hits) << jobs;
    EXPECT_GT(inc.slices_scanned, 0u) << jobs;
    EXPECT_GT(ref.stats.slices_scanned, 0u) << jobs;
    points.push_back({jobs, inc.slices_scanned, ref.stats.slices_scanned});
  }
  const auto per_job = [](std::uint64_t slices, std::size_t jobs) {
    return static_cast<double>(slices) / static_cast<double>(jobs);
  };
  const Point& small = points.front();
  const Point& large = points.back();
  const double job_growth =
      static_cast<double>(large.jobs) / static_cast<double>(small.jobs);
  const double inc_growth = per_job(large.incremental, large.jobs) /
                            per_job(small.incremental, small.jobs);
  EXPECT_LE(inc_growth, 0.5 * job_growth);
  // Same job count at the largest point: compare slices directly.
  EXPECT_GT(large.reference, large.incremental);
}

}  // namespace
}  // namespace fbc
