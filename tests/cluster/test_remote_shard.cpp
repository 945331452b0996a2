// RemoteShard connection-pool tests against a live local daemon: the
// checkout/checkin reuse path, the remote_pool_cap bound (checkins past
// the cap drop a lease-free socket instead of growing the pool without
// limit -- the idle-pool leak fix), the ownership rule that keeps every
// connection owning a live lease open (closing it would make the daemon
// reclaim that lease under its holder), a daemon restarted on the same
// port reusing a recorded lease id, invalidate_pool() clearing
// poisoned sockets while leaving the shard usable, and wire-level
// acquire/release parity with a LocalShard.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/shard.hpp"
#include "grid/mss.hpp"
#include "service/daemon.hpp"
#include "service/server.hpp"

namespace fbc::cluster {
namespace {

using service::AcquireResult;
using service::AcquireStatus;
using service::BundleDaemon;
using service::LeaseId;
using service::BundleServer;
using service::ServiceConfig;

/// A real shard daemon on an ephemeral port.
struct DaemonFixture {
  FileCatalog catalog;
  std::unique_ptr<MassStorageSystem> mss;
  std::unique_ptr<BundleServer> server;
  std::unique_ptr<BundleDaemon> daemon;
};

/// `time_scale` 1 makes every miss stage for 50 ms (the disk-pool tier).
DaemonFixture make_daemon(std::size_t files, double time_scale = 0.0,
                          std::size_t workers = 4) {
  DaemonFixture fixture;
  std::vector<Bytes> sizes(files, 100);
  fixture.catalog = FileCatalog(std::move(sizes));
  fixture.mss =
      std::make_unique<MassStorageSystem>(default_tiers(), fixture.catalog);
  ServiceConfig config;
  config.cache_bytes = 4000;
  config.time_scale = time_scale;
  fixture.server = std::make_unique<BundleServer>(config, *fixture.mss);
  fixture.daemon =
      std::make_unique<BundleDaemon>(*fixture.server, 0, workers);
  return fixture;
}

TEST(RemoteShard, AcquireReleaseRoundTripsOverTheWire) {
  DaemonFixture fixture = make_daemon(8);
  RemoteShard shard(fixture.daemon->port());
  const AcquireResult r = shard.acquire(Request({1, 2}));
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_EQ(shard.stats().active_leases, 1u);
  EXPECT_TRUE(shard.release(r.lease));
  EXPECT_EQ(shard.stats().active_leases, 0u);
  shard.close();
}

TEST(RemoteShard, SerialCallsReuseOnePooledConnection) {
  DaemonFixture fixture = make_daemon(8);
  RemoteShard shard(fixture.daemon->port());
  for (int i = 0; i < 5; ++i) (void)shard.stats();
  // One connection dialed, checked out and back five times over.
  EXPECT_EQ(shard.idle_connections(), 1u);
  EXPECT_EQ(fixture.daemon->connections_accepted(), 1u);
  shard.close();
}

TEST(RemoteShard, IdlePoolIsBoundedByCap) {
  DaemonFixture fixture = make_daemon(8);
  constexpr std::size_t kCap = 2;
  RemoteShard shard(fixture.daemon->port(), kCap);
  // Many concurrent callers force the pool past the cap: each one checks
  // a connection out (dialing fresh when the pool is empty) and checks
  // it back in. Whatever the interleaving, checkins past the cap must
  // drop the socket rather than grow the pool.
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shard, &ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < 20; ++i) (void)shard.stats();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(shard.idle_connections(), kCap);
  shard.close();
}

TEST(RemoteShard, LeaseHoldersPastTheCapKeepTheirLeases) {
  // Misses stage for 50 ms, so concurrent acquires of distinct files each
  // hold their own connection: more lease holders than the pool's cap.
  // The daemon serves every one of them (workers >= holders).
  constexpr std::size_t kCap = 2;
  constexpr int kHolders = 8;
  DaemonFixture fixture = make_daemon(8, /*time_scale=*/1.0, kHolders);
  RemoteShard shard(fixture.daemon->port(), kCap);
  std::vector<LeaseId> leases(kHolders, 0);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  threads.reserve(kHolders);
  for (int t = 0; t < kHolders; ++t) {
    threads.emplace_back([&shard, &ready, &leases, t] {
      ready.fetch_add(1);
      while (ready.load() < kHolders) std::this_thread::yield();
      const AcquireResult r =
          shard.acquire(Request({static_cast<FileId>(t)}));
      if (r.status == AcquireStatus::Ok)
        leases[static_cast<std::size_t>(t)] = r.lease;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_GT(fixture.daemon->connections_accepted(), kCap);
  // Give the daemon time to act on any connection the pool closed.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(fixture.server->stats().active_leases,
            static_cast<std::uint64_t>(kHolders));
  for (const LeaseId lease : leases) {
    ASSERT_NE(lease, 0u);
    EXPECT_TRUE(shard.release(lease)) << lease;
  }
  EXPECT_EQ(fixture.daemon->leases_reclaimed(), 0u);
  // Lease-free again, the connections past the cap are gone.
  EXPECT_LE(shard.idle_connections(), kCap);
  EXPECT_TRUE(fixture.server->audit().empty());
  shard.close();
}

TEST(RemoteShard, InvalidatePoolParksConnectionsThatOwnLeases) {
  DaemonFixture fixture = make_daemon(8);
  RemoteShard shard(fixture.daemon->port());
  const AcquireResult r = shard.acquire(Request({1}));
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  shard.invalidate_pool();
  EXPECT_EQ(shard.idle_connections(), 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // The lease survives: its connection is parked, not closed. The release
  // travels over a fresh connection and then closes the parked one.
  EXPECT_TRUE(shard.release(r.lease));
  EXPECT_EQ(fixture.daemon->leases_reclaimed(), 0u);
  EXPECT_EQ(fixture.daemon->connections_accepted(), 2u);
  shard.close();
}

TEST(RemoteShard, DaemonRestartedOnTheSamePortReplacesAStaleLeaseRecord) {
  DaemonFixture fixture = make_daemon(8);
  const std::uint16_t port = fixture.daemon->port();
  RemoteShard shard(port);
  const AcquireResult stale = shard.acquire(Request({1}));
  ASSERT_EQ(stale.status, AcquireStatus::Ok);
  // The daemon goes down with the lease live, and the router's mark-down
  // parks the connection that owns it.
  fixture.daemon.reset();
  shard.invalidate_pool();
  EXPECT_EQ(shard.lease_owning_connections(), 1u);

  // Restarted on the same port, the daemon numbers its leases from 1
  // again, so a new grant reuses the id the stale record still holds.
  ServiceConfig config;
  config.cache_bytes = 4000;
  fixture.server = std::make_unique<BundleServer>(config, *fixture.mss);
  fixture.daemon = std::make_unique<BundleDaemon>(*fixture.server, port, 4);
  const AcquireResult fresh = shard.acquire(Request({2}));
  ASSERT_EQ(fresh.status, AcquireStatus::Ok);
  ASSERT_EQ(fresh.lease, stale.lease);
  // The new grant's connection owns the id; the parked one owns nothing
  // and is closed.
  EXPECT_EQ(shard.lease_owning_connections(), 1u);
  EXPECT_TRUE(shard.release(fresh.lease));
  EXPECT_EQ(shard.lease_owning_connections(), 0u);
  EXPECT_EQ(fixture.daemon->leases_reclaimed(), 0u);
  shard.close();
}

TEST(RemoteShard, InvalidatePoolDropsIdleConnectionsButShardStaysUsable) {
  DaemonFixture fixture = make_daemon(8);
  RemoteShard shard(fixture.daemon->port());
  (void)shard.stats();
  ASSERT_EQ(shard.idle_connections(), 1u);
  shard.invalidate_pool();
  EXPECT_EQ(shard.idle_connections(), 0u);
  // The next call dials a fresh socket and works.
  EXPECT_EQ(shard.stats().requests, 0u);
  EXPECT_EQ(fixture.daemon->connections_accepted(), 2u);
  shard.close();
}

TEST(RemoteShard, ThrowsNetErrorWhenDaemonIsGone) {
  std::uint16_t port;
  {
    DaemonFixture fixture = make_daemon(4);
    port = fixture.daemon->port();
    RemoteShard warm(port);
    (void)warm.stats();
  }  // daemon torn down
  RemoteShard shard(port);
  EXPECT_THROW((void)shard.stats(), service::NetError);
  EXPECT_THROW((void)shard.acquire(Request({0})), service::NetError);
}

}  // namespace
}  // namespace fbc::cluster
