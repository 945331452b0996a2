// End-to-end daemon tests over real local sockets: the wire protocol
// round-trips through BundleDaemon/BundleClient over the daemon's Unix
// socket, the TCP port stays held but unserved, concurrent clients are
// served correctly, dead connections get their leases reclaimed (and
// only the leases they still own), malformed frames drop only the
// offending connection, and running out of descriptors neither spins the
// acceptor nor stops it for good.
#include "service/daemon.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <variant>
#include <vector>

#include "grid/mss.hpp"
#include "service/client.hpp"
#include "util/rng.hpp"

namespace fbc::service {
namespace {

/// Daemon over a 10-file catalog on an ephemeral port.
struct DaemonFixture {
  FileCatalog catalog{{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}};
  MassStorageSystem mss{default_tiers(), catalog};
  std::unique_ptr<BundleServer> server;
  std::unique_ptr<BundleDaemon> daemon;

  explicit DaemonFixture(Bytes cache_bytes = 3000, std::size_t workers = 4) {
    ServiceConfig config;
    config.cache_bytes = cache_bytes;
    config.timeout_ms = 20000;
    server = std::make_unique<BundleServer>(config, mss);
    daemon = std::make_unique<BundleDaemon>(*server, /*port=*/0, workers);
  }
};

TEST(BundleDaemon, BindsEphemeralPortAndStops) {
  DaemonFixture fx;
  EXPECT_NE(fx.daemon->port(), 0);
  fx.daemon->stop();
  fx.daemon->stop();  // idempotent
}

TEST(BundleDaemon, ClientRightAfterConstructionIsServedOverTheLocalSocket) {
  DaemonFixture fx;
  // The listener is up once the constructor returns: no retry needed.
  BundleClient client(fx.daemon->port());
  const AcquireResult r = client.acquire({0});
  ASSERT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_TRUE(client.release(r.lease));
  EXPECT_EQ(fx.daemon->connections_accepted(), 1u);

  // The socket BundleClient dials, "@fbcd.<port>", answers raw frames.
  UniqueFd raw = connect_local(fx.daemon->port());
  ASSERT_TRUE(send_message(raw.get(), AcquireRequestMsg{7, {1}}));
  FrameReader reader;
  const std::optional<Message> reply = reader.next(raw.get());
  ASSERT_TRUE(reply.has_value());
  const auto& acquired = std::get<AcquireReplyMsg>(*reply);
  EXPECT_EQ(acquired.cookie, 7u);
  EXPECT_EQ(acquired.status, AcquireStatus::Ok);
  EXPECT_EQ(fx.daemon->connections_accepted(), 2u);
}

TEST(BundleDaemon, PortIsHeldAsTheNameButNotServedOverTcp) {
  DaemonFixture fx;
  const std::uint16_t port = fx.daemon->port();
  // No other socket, and so no other daemon, can take the port.
  EXPECT_THROW((void)bind_loopback(port, nullptr), NetError);
  EXPECT_THROW((void)std::make_unique<BundleDaemon>(*fx.server, port, 1),
               NetError);
  // Nothing listens on it over TCP.
  UniqueFd tcp(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(tcp.valid());
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_NE(::connect(tcp.get(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  EXPECT_EQ(errno, ECONNREFUSED);
  // The daemon still serves its local socket.
  BundleClient client(port);
  EXPECT_EQ(client.acquire({0}).status, AcquireStatus::Ok);
  EXPECT_EQ(fx.daemon->connections_accepted(), 1u);
}

TEST(BundleDaemon, ReconnectReachesADaemonRestartedOnTheSamePort) {
  DaemonFixture fx;
  const std::uint16_t port = fx.daemon->port();
  BundleClient client(port);
  EXPECT_EQ(client.stats().requests, 0u);
  fx.daemon.reset();  // closes the server, frees the port and the name
  EXPECT_THROW(client.reconnect(), NetError);

  ServiceConfig config;
  config.cache_bytes = 3000;
  fx.server = std::make_unique<BundleServer>(config, fx.mss);
  fx.daemon = std::make_unique<BundleDaemon>(*fx.server, port, 2);
  ASSERT_EQ(fx.daemon->port(), port);
  client.reconnect();
  const AcquireResult r = client.acquire({1});
  EXPECT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_EQ(fx.daemon->connections_accepted(), 1u);
}

TEST(BundleDaemon, TwoDaemonsOnDifferentPortsDoNotCollide) {
  DaemonFixture first;
  DaemonFixture second;
  ASSERT_NE(first.daemon->port(), second.daemon->port());
  BundleClient a(first.daemon->port());
  BundleClient b(second.daemon->port());
  ASSERT_EQ(a.acquire({0}).status, AcquireStatus::Ok);
  EXPECT_EQ(a.stats().requests, 1u);
  EXPECT_EQ(b.stats().requests, 0u);
  EXPECT_EQ(first.daemon->connections_accepted(), 1u);
  EXPECT_EQ(second.daemon->connections_accepted(), 1u);
}

TEST(BundleDaemon, AcquireReleaseStatsRoundTrip) {
  DaemonFixture fx;
  BundleClient client(fx.daemon->port());

  const AcquireResult miss = client.acquire({0, 1, 2});
  ASSERT_EQ(miss.status, AcquireStatus::Ok);
  EXPECT_FALSE(miss.request_hit);
  EXPECT_NE(miss.lease, 0u);

  const AcquireResult hit = client.acquire({0, 1, 2});
  ASSERT_EQ(hit.status, AcquireStatus::Ok);
  EXPECT_TRUE(hit.request_hit);

  EXPECT_TRUE(client.release(miss.lease));
  EXPECT_TRUE(client.release(hit.lease));
  EXPECT_FALSE(client.release(99999));

  const ServiceStats stats = client.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.request_hits, 1u);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(stats.used_bytes, 600u);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, InvalidRequestOverTheWire) {
  DaemonFixture fx;
  BundleClient client(fx.daemon->port());
  EXPECT_EQ(client.acquire({}).status, AcquireStatus::InvalidRequest);
  EXPECT_EQ(client.acquire({12345}).status, AcquireStatus::InvalidRequest);
}

TEST(BundleDaemon, ConcurrentClientsAllSucceed) {
  DaemonFixture fx(/*cache_bytes=*/2000, /*workers=*/6);
  constexpr int kClients = 6;
  constexpr int kRequests = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(static_cast<std::size_t>(kClients), 0);
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fx, &failures, c] {
      BundleClient client(fx.daemon->port());
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < kRequests; ++i) {
        std::vector<FileId> files;
        const std::size_t count = rng.uniform_u64(1, 3);
        for (std::size_t f = 0; f < count; ++f)
          files.push_back(static_cast<FileId>(rng.uniform_u64(0, 4)));
        const AcquireResult r = client.acquire(files);
        if (r.status != AcquireStatus::Ok || !client.release(r.lease))
          ++failures[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t c = 0; c < failures.size(); ++c)
    EXPECT_EQ(failures[c], 0) << c;

  const ServiceStats stats = fx.server->stats();
  EXPECT_EQ(stats.requests, kClients * kRequests);
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(fx.daemon->connections_accepted(), kClients);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, ReclaimsLeasesOfDeadConnections) {
  DaemonFixture fx;
  {
    BundleClient client(fx.daemon->port());
    const AcquireResult r = client.acquire({0, 1});
    ASSERT_EQ(r.status, AcquireStatus::Ok);
    EXPECT_EQ(fx.server->stats().active_leases, 1u);
    // Client goes away without releasing.
  }
  // The daemon must unpin the dead client's bundle.
  for (int i = 0; i < 2000 && fx.server->stats().active_leases > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.server->stats().active_leases, 0u);
  EXPECT_EQ(fx.daemon->leases_reclaimed(), 1u);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, ReleaseOverAnotherConnectionClearsTheOwner) {
  DaemonFixture fx;
  BundleClient a(fx.daemon->port());
  BundleClient b(fx.daemon->port());
  // A connection pool releases over whichever connection is idle.
  for (int i = 0; i < 100; ++i) {
    const AcquireResult r = a.acquire({static_cast<FileId>(i % 4)});
    ASSERT_EQ(r.status, AcquireStatus::Ok);
    ASSERT_TRUE(b.release(r.lease));
  }
  EXPECT_EQ(fx.daemon->tracked_leases(), 0u);

  // Closing A reclaims the one lease it still owns, and nothing else.
  const AcquireResult kept = a.acquire({0});
  ASSERT_EQ(kept.status, AcquireStatus::Ok);
  EXPECT_EQ(fx.daemon->tracked_leases(), 1u);
  a.disconnect();
  for (int i = 0; i < 2000 && fx.daemon->leases_reclaimed() < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.daemon->leases_reclaimed(), 1u);
  EXPECT_EQ(fx.daemon->tracked_leases(), 0u);
  EXPECT_FALSE(b.release(kept.lease));
  EXPECT_EQ(fx.server->stats().active_leases, 0u);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, MalformedFrameDropsOnlyThatConnection) {
  DaemonFixture fx;
  {
    // Raw connection sending an unknown message type.
    UniqueFd raw = connect_local(fx.daemon->port());
    const std::uint8_t bogus[kFrameHeaderBytes] = {0, 0, 0, 0, 42};
    ASSERT_TRUE(write_full(raw.get(), bogus, sizeof bogus));
    // The daemon closes the connection: next read sees EOF.
    std::uint8_t byte = 0;
    EXPECT_FALSE(read_full(raw.get(), &byte, 1));
  }
  // A well-behaved client is unaffected.
  BundleClient client(fx.daemon->port());
  const AcquireResult r = client.acquire({4});
  EXPECT_EQ(r.status, AcquireStatus::Ok);
  EXPECT_TRUE(client.release(r.lease));
}

TEST(BundleDaemon, ReplyTypeFromClientIsRejected) {
  DaemonFixture fx;
  UniqueFd raw = connect_local(fx.daemon->port());
  ASSERT_TRUE(send_message(raw.get(), ReleaseReplyMsg{1}));
  std::uint8_t byte = 0;
  EXPECT_FALSE(read_full(raw.get(), &byte, 1));  // connection dropped
}

TEST(BundleDaemon, StopWakesBlockedClients) {
  DaemonFixture fx(/*cache_bytes=*/1000);
  BundleClient holder(fx.daemon->port());
  const AcquireResult held = holder.acquire({5});  // 600 B pinned
  ASSERT_EQ(held.status, AcquireStatus::Ok);

  std::thread blocked_client([&fx] {
    try {
      BundleClient client(fx.daemon->port());
      // 900 B cannot fit next to the pinned 600 B: blocks server-side.
      const AcquireResult r = client.acquire({8});
      EXPECT_EQ(r.status, AcquireStatus::Closed);
    } catch (const std::exception&) {
      // The daemon may tear the connection down before the reply frame:
      // also an acceptable way to unblock.
    }
  });
  // Wait until the request is queued, then shut everything down.
  for (int i = 0; i < 2000 && fx.server->stats().queue_depth == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.server->stats().queue_depth, 1u);
  fx.daemon->stop();
  blocked_client.join();
}

/// A daemon whose misses stage for 500 ms: every file sits on the
/// disk-pool tier (50 ms), scaled by 10.
struct SlowStageDaemon {
  FileCatalog catalog{{100, 200, 300, 400}};
  MassStorageSystem mss{default_tiers(), catalog};
  std::unique_ptr<BundleServer> server;
  std::unique_ptr<BundleDaemon> daemon;

  SlowStageDaemon() {
    ServiceConfig config;
    config.cache_bytes = 1000;
    config.time_scale = 10.0;
    server = std::make_unique<BundleServer>(config, mss);
    daemon = std::make_unique<BundleDaemon>(*server, /*port=*/0, 2);
  }
};

TEST(BundleDaemon, ReserveRequestRepliesReservedThenGranted) {
  SlowStageDaemon fx;
  BundleClient client(fx.daemon->port());

  const auto t0 = std::chrono::steady_clock::now();
  const AcquireResult reserved = client.reserve({0, 1});
  ASSERT_EQ(reserved.status, AcquireStatus::Ok);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(400));
  EXPECT_FALSE(reserved.request_hit);
  EXPECT_EQ(fx.server->stats().active_leases, 1u);

  const AcquireResult granted = client.await_grant();
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(490));
  ASSERT_EQ(granted.status, AcquireStatus::Ok);
  EXPECT_EQ(granted.lease, reserved.lease);

  // A refused reservation is answered once; the connection stays in step.
  const AcquireResult refused = client.reserve({0, 99});
  EXPECT_EQ(refused.status, AcquireStatus::InvalidRequest);
  EXPECT_THROW((void)client.await_grant(), std::logic_error);
  EXPECT_TRUE(client.release(granted.lease));
  EXPECT_EQ(client.stats().active_leases, 0u);
  EXPECT_TRUE(fx.server->audit().empty());
}

TEST(BundleDaemon, ReclaimsTheLeaseOfAClientGoneBetweenTheTwoReplies) {
  SlowStageDaemon fx;
  {
    BundleClient client(fx.daemon->port());
    const AcquireResult reserved = client.reserve({0, 1});
    ASSERT_EQ(reserved.status, AcquireStatus::Ok);
    EXPECT_EQ(fx.server->stats().active_leases, 1u);
    client.disconnect();  // before the grant
  }
  for (int i = 0; i < 5000 && fx.daemon->leases_reclaimed() < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(fx.daemon->leases_reclaimed(), 1u);
  const ServiceStats stats = fx.server->stats();
  EXPECT_EQ(stats.active_leases, 0u);
  EXPECT_EQ(stats.leases_released, 1u);
  EXPECT_EQ(fx.server->in_flight_files(), 0u);
  EXPECT_TRUE(fx.server->audit().empty());
}

/// Process CPU time (user + system) in seconds.
double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Body of DescriptorExhaustionBacksOffThenServes, run in a forked child
/// because it lowers RLIMIT_NOFILE. Returns 0 on success, else prints the
/// failed step and returns its number.
int serve_after_descriptor_exhaustion() {
  const auto fail = [](int step, const char* what) {
    std::fprintf(stderr, "step %d: %s\n", step, what);
    return step;
  };
  DaemonFixture fx(/*cache_bytes=*/3000, /*workers=*/3);
  // Serve a connection first, as a running daemon has. It stays open, so
  // no descriptor frees up behind the test's back. Besides, the
  // undefined-behaviour sanitizer checks a type it has not seen before
  // through a pipe, which it cannot open once descriptors run out.
  BundleClient warm(fx.daemon->port());
  const AcquireResult warm_result = warm.acquire({2});
  if (warm_result.status != AcquireStatus::Ok ||
      !warm.release(warm_result.lease))
    return fail(1, "warm-up");
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return fail(2, "getrlimit");
  limit.rlim_cur = std::min<rlim_t>(limit.rlim_max, 256);
  if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) return fail(3, "setrlimit");

  // Take every descriptor but one, and give that one to a first client.
  // Every accept() now fails with EMFILE at once, so the connection waits
  // in the backlog. (An acceptor already blocked in accept() holds a
  // descriptor it reserved before waiting and takes the connection first;
  // its next accept() fails all the same.)
  std::vector<int> fillers;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC)) >= 0;)
    fillers.push_back(fd);
  if (errno != EMFILE || fillers.empty()) return fail(4, "fill descriptors");
  ::close(fillers.back());
  fillers.pop_back();
  BundleClient first(fx.daemon->port());

  // An acceptor that retries at once burns a core for the whole wait.
  const double cpu_before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const double cpu_used = process_cpu_seconds() - cpu_before;
  if (cpu_used > 0.075) {
    std::fprintf(stderr, "%.3f s of CPU in 0.3 s\n", cpu_used);
    return fail(5, "acceptor spins on EMFILE");
  }

  // Once descriptors free up, the waiting connection and new ones are
  // accepted and served.
  for (int fd : fillers) ::close(fd);
  for (int i = 0; i < 5000 && fx.daemon->connections_accepted() < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (fx.daemon->connections_accepted() != 2)
    return fail(6, "first connection not accepted");
  const AcquireResult first_result = first.acquire({0, 1});
  if (first_result.status != AcquireStatus::Ok ||
      !first.release(first_result.lease))
    return fail(7, "first client not served");
  BundleClient second(fx.daemon->port());
  const AcquireResult result = second.acquire({0, 1});
  if (result.status != AcquireStatus::Ok) return fail(8, "acquire");
  if (!second.release(result.lease)) return fail(9, "release");
  if (fx.daemon->connections_accepted() != 3)
    return fail(10, "second connection not counted");
  return 0;
}

TEST(BundleDaemon, DescriptorExhaustionBacksOffThenServes) {
  EXPECT_EXIT(std::_Exit(serve_after_descriptor_exhaustion()),
              ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace fbc::service
