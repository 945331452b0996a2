// Lease tests: counted pinning through LeaseTable, the cache-enforced
// lease invariant (evicting a leased file throws), the server's
// from-scratch lease audit and hold-time metric, and a concurrent stress
// run proving no admission ever evicts a leased file.
#include "service/lease.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "grid/mss.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"

namespace fbc::service {
namespace {

FileCatalog small_catalog() { return FileCatalog({100, 200, 300, 400, 500}); }

TEST(LeaseTable, GrantPinsAndReleaseUnpins) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  ASSERT_TRUE(cache.insert(0));
  ASSERT_TRUE(cache.insert(1));

  LeaseTable leases;
  const LeaseId lease = leases.grant(Request({0, 1}), cache);
  EXPECT_EQ(lease, 1u);
  EXPECT_TRUE(cache.pinned(0));
  EXPECT_TRUE(cache.pinned(1));
  EXPECT_EQ(leases.active(), 1u);
  EXPECT_EQ(leases.granted(), 1u);
  EXPECT_TRUE(leases.covers(0));
  EXPECT_FALSE(leases.covers(2));
  ASSERT_NE(leases.bundle(lease), nullptr);
  EXPECT_EQ(*leases.bundle(lease), Request({0, 1}));

  EXPECT_TRUE(leases.release(lease, cache));
  EXPECT_FALSE(cache.pinned(0));
  EXPECT_EQ(leases.active(), 0u);
  EXPECT_EQ(leases.granted(), 1u);  // granted never decreases
  EXPECT_EQ(leases.bundle(lease), nullptr);
}

TEST(LeaseTable, ReleaseUnknownIdReturnsFalse) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  LeaseTable leases;
  EXPECT_FALSE(leases.release(1, cache));
  ASSERT_TRUE(cache.insert(0));
  const LeaseId lease = leases.grant(Request({0}), cache);
  EXPECT_TRUE(leases.release(lease, cache));
  EXPECT_FALSE(leases.release(lease, cache));  // double release
}

TEST(LeaseTable, OverlappingLeasesStackPins) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  ASSERT_TRUE(cache.insert(0));
  ASSERT_TRUE(cache.insert(1));
  ASSERT_TRUE(cache.insert(2));

  LeaseTable leases;
  const LeaseId a = leases.grant(Request({0, 1}), cache);
  const LeaseId b = leases.grant(Request({1, 2}), cache);
  EXPECT_NE(a, b);

  // File 1 is covered by both leases: releasing one must keep it pinned.
  EXPECT_TRUE(leases.release(a, cache));
  EXPECT_FALSE(cache.pinned(0));
  EXPECT_TRUE(cache.pinned(1));
  EXPECT_TRUE(cache.pinned(2));
  EXPECT_TRUE(leases.covers(1));
  EXPECT_FALSE(leases.covers(0));

  EXPECT_TRUE(leases.release(b, cache));
  EXPECT_FALSE(cache.pinned(1));
}

TEST(LeaseTable, EvictingLeasedFileThrows) {
  // The lease invariant lives in the cache layer: a leased (pinned) file
  // cannot be evicted no matter who asks.
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  ASSERT_TRUE(cache.insert(0));
  LeaseTable leases;
  const LeaseId lease = leases.grant(Request({0}), cache);
  EXPECT_THROW((void)cache.evict(0), std::runtime_error);
  EXPECT_TRUE(leases.release(lease, cache));
  EXPECT_TRUE(cache.evict(0));
}

TEST(LeaseTable, ReleaseAllDropsEveryPin) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  ASSERT_TRUE(cache.insert(0));
  ASSERT_TRUE(cache.insert(1));
  LeaseTable leases;
  (void)leases.grant(Request({0, 1}), cache);
  (void)leases.grant(Request({1}), cache);
  leases.release_all(cache);
  EXPECT_EQ(leases.active(), 0u);
  EXPECT_FALSE(cache.pinned(0));
  EXPECT_FALSE(cache.pinned(1));
}

TEST(LeaseTable, PinCountsTrackOverlappingLeasesAndGrantInstants) {
  FileCatalog catalog = small_catalog();
  DiskCache cache(1500, catalog);
  ASSERT_TRUE(cache.insert(0));
  ASSERT_TRUE(cache.insert(1));
  ASSERT_TRUE(cache.insert(2));
  EXPECT_EQ(cache.pin_count(0), 0u);
  EXPECT_EQ(cache.pin_count(99), 0u);  // beyond the catalog

  LeaseTable leases;
  const LeaseTable::Clock::time_point t1{std::chrono::microseconds(10)};
  const LeaseTable::Clock::time_point t2{std::chrono::microseconds(20)};
  const LeaseId a = leases.grant(Request({0, 1}), cache, t1);
  const LeaseId b = leases.grant(Request({1, 2}), cache, t2);
  EXPECT_EQ(cache.pin_count(0), 1u);
  EXPECT_EQ(cache.pin_count(1), 2u);
  EXPECT_EQ(cache.pin_count(2), 1u);

  // The table walks in lease-id order, whatever the release order was.
  std::vector<LeaseId> order;
  for (const auto& [id, lease] : leases.leases()) order.push_back(id);
  EXPECT_EQ(order, (std::vector<LeaseId>{a, b}));

  LeaseTable::Clock::time_point granted_at;
  ASSERT_TRUE(leases.release(b, cache, &granted_at));
  EXPECT_EQ(granted_at, t2);
  EXPECT_EQ(cache.pin_count(1), 1u);
  EXPECT_EQ(cache.pin_count(2), 0u);

  // Ids are never reused: the next grant gets a fresh one.
  const LeaseId c = leases.grant(Request({2}), cache, t1);
  EXPECT_EQ(c, 3u);
  ASSERT_NE(leases.bundle(c), nullptr);
  EXPECT_EQ(*leases.bundle(c), Request({2}));
  EXPECT_EQ(leases.bundle(b), nullptr);
  ASSERT_TRUE(leases.release(a, cache, &granted_at));
  EXPECT_EQ(granted_at, t1);
  EXPECT_EQ(cache.pin_count(0), 0u);
  EXPECT_EQ(cache.pin_count(1), 0u);
  EXPECT_EQ(cache.pin_count(2), 1u);
  EXPECT_EQ(leases.active(), 1u);
  EXPECT_EQ(leases.granted(), 3u);
}

TEST(LeaseAudit, OverlappingLeasesTieToPinCountsAcrossARelease) {
  // Two overlapping leases pin file 1 twice: audit() recounts each
  // file's covering leases from the table and requires that count to
  // equal the file's pin count, before and after one lease goes.
  FileCatalog catalog({100, 200, 300, 400, 500});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult a = server.acquire(Request({0, 1}));
  const AcquireResult b = server.acquire(Request({1, 2}));
  ASSERT_EQ(a.status, AcquireStatus::Ok);
  ASSERT_EQ(b.status, AcquireStatus::Ok);
  EXPECT_EQ(server.stats().active_leases, 2u);
  EXPECT_EQ(server.audit(), std::vector<std::string>{});

  ASSERT_TRUE(server.release(a.lease));
  EXPECT_EQ(server.stats().active_leases, 1u);
  EXPECT_EQ(server.audit(), std::vector<std::string>{});

  ASSERT_TRUE(server.release(b.lease));
  EXPECT_EQ(server.audit(), std::vector<std::string>{});
}

TEST(LeaseAudit, HoldHistogramCountsExactlyTheSuccessfulReleases) {
  // lease.hold_us records one observation per release.ok, none for an
  // unknown or repeated release, and measures each lease from its own
  // grant instant.
  FileCatalog catalog({100, 200, 300, 400, 500});
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult held = server.acquire(Request({0, 1}));
  ASSERT_EQ(held.status, AcquireStatus::Ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const AcquireResult brief = server.acquire(Request({1, 2}));
  ASSERT_EQ(brief.status, AcquireStatus::Ok);
  ASSERT_TRUE(server.release(brief.lease));
  ASSERT_TRUE(server.release(held.lease));
  EXPECT_FALSE(server.release(held.lease));  // repeated
  EXPECT_FALSE(server.release(9999));        // never granted

  const MetricsSnapshot m = server.metrics();
  std::uint64_t ok = 0;
  std::uint64_t unknown = 0;
  for (const auto& [name, value] : m.counters) {
    if (name == "release.ok") ok = value;
    if (name == "release.unknown") unknown = value;
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(unknown, 2u);
  const obs::Histogram* hold = nullptr;
  for (const auto& named : m.histograms)
    if (named.name == "lease.hold_us") hold = &named.hist;
  ASSERT_NE(hold, nullptr);
  EXPECT_EQ(hold->count(), ok);
  EXPECT_EQ(hold->count(), m.stats.leases_released);
  // The long-held lease spans the 20 ms sleep.
  EXPECT_GE(hold->max(), 20000u);
}

// Concurrent lease-invariant stress: hammer a small, heavily contended
// BundleServer from several threads while a checker thread continuously
// audits. If any admission path could evict a leased file, the cache
// would throw (failing an acquire) or the audit would report violations.
TEST(LeaseInvariant, ConcurrentAcquireReleaseNeverEvictsLeasedFiles) {
  // 10 files of 100..1000 bytes; cache fits only ~25% of total.
  FileCatalog catalog(
      {100, 200, 300, 400, 500, 600, 700, 800, 900, 1000});
  MassStorageSystem mss(default_tiers(), catalog);

  ServiceConfig config;
  config.cache_bytes = 1500;
  config.policy = "optfb";
  config.max_queue = 64;
  config.timeout_ms = 20000;
  BundleServer server(config, mss);

  constexpr int kThreads = 4;
  constexpr int kIterations = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &failures, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kIterations; ++i) {
        std::vector<FileId> files;
        // Only files 0..4 (100..500 B): any 3-file bundle fits the
        // 1500 B cache, yet concurrent leases still fight for space.
        const std::size_t count = rng.uniform_u64(1, 3);
        for (std::size_t f = 0; f < count; ++f)
          files.push_back(static_cast<FileId>(rng.uniform_u64(0, 4)));
        const AcquireResult r = server.acquire(Request(std::move(files)));
        if (r.status != AcquireStatus::Ok) {
          ++failures;
          continue;
        }
        if (!server.release(r.lease)) ++failures;
      }
    });
  }

  std::atomic<bool> done{false};
  std::thread auditor([&server, &done] {
    while (!done.load()) {
      EXPECT_TRUE(server.audit().empty());
      std::this_thread::yield();
    }
  });

  for (std::thread& t : threads) t.join();
  done.store(true);
  auditor.join();

  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = server.stats();
  EXPECT_EQ(stats.requests, kThreads * kIterations);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(stats.leases_granted, stats.leases_released);
  EXPECT_TRUE(server.audit().empty());
}

}  // namespace
}  // namespace fbc::service
