// FetchCoalescer tests: single-flight semantics at the unit level
// (waiters block until the overlapping transfer completes or reaches its
// ready instant, refcounted in-flight files, fast path on no overlap,
// completions of files not in flight, ids past the table's end) and
// at the server level (N concurrent misses on one bundle cost exactly one
// MSS transfer).
#include "service/coalesce.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <string_view>
#include <thread>
#include <vector>

#include "grid/mss.hpp"
#include "service/server.hpp"

namespace fbc::service {
namespace {

TEST(FetchCoalescer, FastPathWithoutOverlapDoesNotCount) {
  FetchCoalescer coalescer;
  const std::vector<FileId> files = {1, 2};
  const CoalesceWait wait = coalescer.wait_for(files);
  EXPECT_EQ(wait.waited_files, 0u);
  EXPECT_EQ(coalescer.transfers(), 0u);
  EXPECT_EQ(coalescer.coalesced_waits(), 0u);
  EXPECT_EQ(coalescer.in_flight(), 0u);
}

TEST(FetchCoalescer, WaitersBlockUntilTheTransferCompletes) {
  FetchCoalescer coalescer;
  const std::vector<FileId> staged = {1, 2};
  coalescer.begin_fetch(staged);
  EXPECT_EQ(coalescer.transfers(), 1u);
  EXPECT_EQ(coalescer.in_flight(), 2u);

  std::atomic<int> woke{0};
  std::vector<std::future<CoalesceWait>> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.push_back(std::async(std::launch::async, [&coalescer, &woke] {
      const std::vector<FileId> bundle = {2, 3};  // overlaps on file 2 only
      const CoalesceWait wait = coalescer.wait_for(bundle);
      woke.fetch_add(1, std::memory_order_relaxed);
      return wait;
    }));
  }
  // Every waiter registers in coalesced_waits() before parking; once all
  // three have, none may return until complete_fetch.
  for (int i = 0; i < 2000 && coalescer.coalesced_waits() < 3; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(coalescer.coalesced_waits(), 3u);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(woke.load(), 0);

  coalescer.complete_fetch(staged);
  for (auto& waiter : waiters) {
    const CoalesceWait wait = waiter.get();
    EXPECT_EQ(wait.waited_files, 1u);  // only file 2 overlapped
  }
  EXPECT_EQ(woke.load(), 3);
  EXPECT_EQ(coalescer.transfers(), 1u);
  EXPECT_EQ(coalescer.coalesced_waits(), 3u);
  EXPECT_EQ(coalescer.in_flight(), 0u);
}

TEST(FetchCoalescer, WaitSpansEveryOverlappingTransfer) {
  FetchCoalescer coalescer;
  const std::vector<FileId> first = {1};
  const std::vector<FileId> second = {2};
  coalescer.begin_fetch(first);
  coalescer.begin_fetch(second);
  EXPECT_EQ(coalescer.transfers(), 2u);

  std::atomic<bool> returned{false};
  auto waiter = std::async(std::launch::async, [&coalescer, &returned] {
    const std::vector<FileId> bundle = {1, 2};
    const CoalesceWait wait = coalescer.wait_for(bundle);
    returned.store(true);
    return wait;
  });
  // coalesced_waits() increments before the wait parks, so this pins
  // "the waiter saw BOTH transfers in flight" without a timing guess.
  for (int i = 0; i < 2000 && coalescer.coalesced_waits() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(coalescer.coalesced_waits(), 1u);
  // Completing one of the two transfers must not release the waiter.
  coalescer.complete_fetch(first);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(returned.load());

  coalescer.complete_fetch(second);
  EXPECT_EQ(waiter.get().waited_files, 2u);
  EXPECT_EQ(coalescer.coalesced_waits(), 1u);
}

TEST(FetchCoalescer, InFlightCountsAreRefcounted) {
  FetchCoalescer coalescer;
  const std::vector<FileId> file = {5};
  coalescer.begin_fetch(file);
  coalescer.begin_fetch(file);  // defensive double-stage of the same file
  EXPECT_EQ(coalescer.in_flight(), 1u);
  coalescer.complete_fetch(file);
  // One owner still staging: the file stays in flight.
  EXPECT_EQ(coalescer.in_flight(), 1u);
  coalescer.complete_fetch(file);
  EXPECT_EQ(coalescer.in_flight(), 0u);
}

TEST(FetchCoalescer, CompletingFilesNotInFlightChangesNothing) {
  FetchCoalescer coalescer;
  const std::vector<FileId> never_begun = {7};
  coalescer.complete_fetch(never_begun);  // beyond an empty table
  EXPECT_EQ(coalescer.in_flight(), 0u);

  const std::vector<FileId> staged = {1, 2};
  coalescer.begin_fetch(staged);
  const std::vector<FileId> idle = {0};  // inside the table, never begun
  coalescer.complete_fetch(idle);
  EXPECT_EQ(coalescer.in_flight(), 2u);
  coalescer.complete_fetch(staged);
  EXPECT_EQ(coalescer.in_flight(), 0u);
  coalescer.complete_fetch(staged);  // completed twice
  EXPECT_EQ(coalescer.in_flight(), 0u);

  // Had the owner count wrapped, one more begin would not bring the file
  // back in flight, and its completion would not retire it.
  const std::vector<FileId> again = {1};
  coalescer.begin_fetch(again);
  EXPECT_EQ(coalescer.in_flight(), 1u);
  coalescer.complete_fetch(again);
  EXPECT_EQ(coalescer.in_flight(), 0u);
  const std::vector<FileId> bundle = {1, 2, 7};
  EXPECT_EQ(coalescer.wait_for(bundle).waited_files, 0u);
  EXPECT_EQ(coalescer.coalesced_waits(), 0u);
}

TEST(FetchCoalescer, WaitOnIdsBeyondTheTableReturnsWithoutGrowingIt) {
  FetchCoalescer coalescer;
  const std::vector<FileId> far = {1000000, 2000000};
  CoalesceWait wait = coalescer.wait_for(far);  // nothing in flight
  EXPECT_EQ(wait.waited_files, 0u);
  EXPECT_EQ(wait.wait_us, 0u);
  EXPECT_EQ(coalescer.table_size(), 0u);

  // With a transfer in flight the lookup passes the fast path and must
  // still treat ids past the table's end as not in flight.
  const std::vector<FileId> staged = {3};
  coalescer.begin_fetch(staged);
  EXPECT_EQ(coalescer.table_size(), 4u);
  wait = coalescer.wait_for(far);
  EXPECT_EQ(wait.waited_files, 0u);
  EXPECT_EQ(wait.wait_us, 0u);
  EXPECT_EQ(coalescer.table_size(), 4u);
  EXPECT_EQ(coalescer.coalesced_waits(), 0u);
  coalescer.complete_fetch(staged);
  EXPECT_EQ(coalescer.in_flight(), 0u);
}

TEST(FetchCoalescer, WaitNeverOutlastsTheReadyInstant) {
  // The owner of the transfer never completes it (its thread is blocked
  // elsewhere); the waiter still returns at the ready instant.
  FetchCoalescer coalescer;
  const std::vector<FileId> staged = {1, 2};
  const auto ready =
      FetchCoalescer::Clock::now() + std::chrono::milliseconds(100);
  coalescer.begin_fetch(staged, ready);
  const std::vector<FileId> bundle = {2, 3};
  const CoalesceWait wait = coalescer.wait_for(bundle);
  EXPECT_EQ(wait.waited_files, 1u);
  EXPECT_GE(FetchCoalescer::Clock::now(), ready);
  EXPECT_EQ(coalescer.coalesced_waits(), 1u);
  // Past its ready instant a file has arrived, retired or not.
  EXPECT_EQ(coalescer.wait_for(bundle).waited_files, 0u);
  EXPECT_EQ(coalescer.coalesced_waits(), 1u);
  EXPECT_EQ(coalescer.in_flight(), 2u);
  coalescer.complete_fetch(staged);
  EXPECT_EQ(coalescer.in_flight(), 0u);
}

/// Catalog with file i of size (i+1)*100 bytes.
FileCatalog sized_catalog(std::size_t count) {
  std::vector<Bytes> sizes;
  sizes.reserve(count);
  for (std::size_t i = 0; i < count; ++i) sizes.push_back((i + 1) * 100);
  return FileCatalog(std::move(sizes));
}

std::uint64_t counter_value(const MetricsSnapshot& m, std::string_view name) {
  for (const auto& [n, v] : m.counters)
    if (n == name) return v;
  return 0;
}

void wait_for_queue_depth(const BundleServer& server, std::uint64_t depth) {
  for (int i = 0; i < 2000; ++i) {
    if (server.stats().queue_depth >= depth) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "queue depth never reached " << depth;
}

TEST(BundleServerCoalesce, ConcurrentMissesShareOneTransfer) {
  // N concurrent misses on one bundle: pause admission so all N queue up,
  // resume, and check that exactly ONE MSS transfer was issued -- the
  // first admission reserves (and stages) the missing files, the others
  // see them resident and coalesce.
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  server.set_admission_paused(true);
  constexpr int kClients = 4;
  std::vector<std::future<AcquireResult>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::async(std::launch::async, [&server] {
      return server.acquire(Request({0, 1}));
    }));
  }
  wait_for_queue_depth(server, kClients);
  server.set_admission_paused(false);

  std::vector<AcquireResult> results;
  for (auto& client : clients) results.push_back(client.get());
  int hits = 0;
  for (const AcquireResult& r : results) {
    ASSERT_EQ(r.status, AcquireStatus::Ok);
    if (r.request_hit) ++hits;
    EXPECT_TRUE(server.release(r.lease));
  }
  // The first admission fetched both files; every later one found them
  // resident (two-phase reserve) and counted as a hit.
  EXPECT_EQ(hits, kClients - 1);

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(m.stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(counter_value(m, "fetch.transfers"), 1u);
  EXPECT_EQ(counter_value(m, "acquire.ok"),
            static_cast<std::uint64_t>(kClients));
  // The coalesced-wait histogram and counter move in lock-step whatever
  // the fetch/grant interleaving was.
  std::uint64_t coalesce_count = 0;
  for (const auto& named : m.histograms)
    if (named.name == "acquire.coalesce_us") coalesce_count = named.hist.count();
  EXPECT_EQ(counter_value(m, "acquire.coalesced"), coalesce_count);
  EXPECT_TRUE(server.audit().empty());
}

TEST(BundleServerCoalesce, DistinctBundlesStillTransferIndependently) {
  FileCatalog catalog = sized_catalog(5);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1500;
  BundleServer server(config, mss);

  const AcquireResult a = server.acquire(Request({0}));
  ASSERT_EQ(a.status, AcquireStatus::Ok);
  const AcquireResult b = server.acquire(Request({1}));
  ASSERT_EQ(b.status, AcquireStatus::Ok);

  const MetricsSnapshot m = server.metrics();
  EXPECT_EQ(counter_value(m, "fetch.transfers"), 2u);
}

}  // namespace
}  // namespace fbc::service
