// ClusterRouter tests: construction validation, single-shard lease
// tagging, scatter/gather lease conjunction, the partial-grant rollback
// regression (one shard QueueFull => no shard left pinned), release of
// unknown leases, merged stats/metrics, close semantics, and a
// concurrent scatter/gather stress run with live per-shard audit threads,
// the scatter histograms, a rollback while an earlier part is still
// staging, the in-process liveness of overlapping scatters, an oversized
// shard part, and the request-hit cost of splitting a fixed capacity.
#include "cluster/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/shard.hpp"
#include "grid/mss.hpp"
#include "service/server.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace fbc::cluster {
namespace {

using service::AcquireResult;
using service::AcquireStatus;
using service::BundleServer;
using service::ServiceConfig;

constexpr int kShardShift = 56;

/// A router over N real in-process shards, all state owned here.
struct Cluster {
  FileCatalog catalog;
  std::unique_ptr<MassStorageSystem> mss;
  ClusterStack stack;
  ClusterRouter* router = nullptr;  ///< stack.router

  BundleServer& server(std::size_t i) { return *stack.servers[i]; }
};

Cluster make_cluster(const ClusterConfig& config, std::size_t files,
                     const ServiceConfig& service_base) {
  Cluster cluster;
  cluster.catalog = FileCatalog(std::vector<Bytes>(files, 100));
  cluster.mss =
      std::make_unique<MassStorageSystem>(default_tiers(), cluster.catalog);
  cluster.stack = make_local_cluster(config, service_base, *cluster.mss);
  cluster.router = cluster.stack.router.get();
  return cluster;
}

ServiceConfig small_service() {
  ServiceConfig config;
  config.cache_bytes = 2000;
  config.time_scale = 0.0;
  return config;
}

ClusterConfig hash_cluster(std::uint32_t shards) {
  ClusterConfig config;
  config.shards = shards;
  config.placement = PlacementMode::HashFile;
  config.vnodes = 16;
  return config;
}

/// First file the placement maps to `shard` (the catalogs here are large
/// enough that every shard owns at least one file).
FileId file_on_shard(const Placement& placement, std::uint32_t shard,
                     std::size_t files) {
  for (FileId id = 0; id < files; ++id)
    if (placement.file_shard(id) == shard) return id;
  ADD_FAILURE() << "no file maps to shard " << shard;
  return 0;
}

/// Two files guaranteed to live on different shards.
Request cross_shard_request(const Placement& placement, std::size_t files) {
  const FileId a = file_on_shard(placement, 0, files);
  for (FileId id = 0; id < files; ++id)
    if (placement.file_shard(id) != 0) return Request({a, id});
  ADD_FAILURE() << "all files map to shard 0";
  return Request({a});
}

std::uint64_t counter_value(const service::MetricsSnapshot& metrics,
                            const std::string& name) {
  for (const auto& [counter, value] : metrics.counters)
    if (counter == name) return value;
  return 0;
}

TEST(ClusterRouter, RejectsMismatchedShardVector) {
  Cluster cluster = make_cluster(hash_cluster(2), 16, small_service());
  ClusterConfig config = hash_cluster(3);  // says 3, but only 2 shards given
  std::vector<std::unique_ptr<Shard>> shards;
  shards.push_back(std::make_unique<LocalShard>(cluster.server(0)));
  shards.push_back(std::make_unique<LocalShard>(cluster.server(1)));
  EXPECT_THROW((ClusterRouter{config, cluster.catalog, 2000,
                              std::move(shards)}),
               std::invalid_argument);
}

TEST(ClusterRouter, SingleShardLeaseCarriesShardTag) {
  ClusterConfig config;
  config.shards = 4;
  config.placement = PlacementMode::BundleAffinity;
  config.vnodes = 16;
  Cluster cluster = make_cluster(config, 32, small_service());

  const Request request({1, 2});
  const std::uint32_t home = cluster.router->placement().bundle_home(request);
  const AcquireResult result = cluster.router->acquire(request);
  ASSERT_EQ(result.status, AcquireStatus::Ok);
  EXPECT_EQ(result.lease >> kShardShift, home + 1);
  // The grant landed on the home shard and nowhere else.
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_EQ(cluster.server(s).stats().active_leases, s == home ? 1u : 0u);
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);  // stateless fast path

  EXPECT_TRUE(cluster.router->release(result.lease));
  EXPECT_FALSE(cluster.router->release(result.lease));  // double release
  EXPECT_EQ(cluster.server(home).stats().active_leases, 0u);
}

TEST(ClusterRouter, ScatterGathersAcrossShards) {
  Cluster cluster = make_cluster(hash_cluster(4), 64, small_service());
  const Request request =
      cross_shard_request(cluster.router->placement(), 64);

  const AcquireResult result = cluster.router->acquire(request);
  ASSERT_EQ(result.status, AcquireStatus::Ok);
  EXPECT_EQ(result.lease >> kShardShift, 0u);  // scatter tag
  EXPECT_EQ(cluster.router->scatter_leases(), 1u);

  const service::MetricsSnapshot metrics = cluster.router->metrics();
  EXPECT_EQ(counter_value(metrics, "grid.acquire.scatter"), 1u);
  EXPECT_EQ(counter_value(metrics, "grid.acquire.single"), 0u);
  // Each touched shard granted one sub-lease.
  EXPECT_EQ(cluster.router->stats().leases_granted, 2u);

  EXPECT_TRUE(cluster.router->release(result.lease));
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
  for (std::uint32_t s = 0; s < 4; ++s)
    EXPECT_EQ(cluster.server(s).stats().active_leases, 0u);
  EXPECT_FALSE(cluster.router->release(result.lease));  // id was retired
  EXPECT_GE(counter_value(cluster.router->metrics(), "grid.release.unknown"),
            1u);
}

TEST(ClusterRouter, ScatterHitIsConjunctionOfSliceHits) {
  Cluster cluster = make_cluster(hash_cluster(4), 64, small_service());
  const Request request =
      cross_shard_request(cluster.router->placement(), 64);
  const AcquireResult miss = cluster.router->acquire(request);
  ASSERT_EQ(miss.status, AcquireStatus::Ok);
  EXPECT_FALSE(miss.request_hit);
  const AcquireResult hit = cluster.router->acquire(request);
  ASSERT_EQ(hit.status, AcquireStatus::Ok);
  EXPECT_TRUE(hit.request_hit);  // every slice resident now
  EXPECT_TRUE(cluster.router->release(miss.lease));
  EXPECT_TRUE(cluster.router->release(hit.lease));
}

TEST(ClusterRouter, PartialGrantRollsBackEveryPinnedShard) {
  // The ISSUE regression: a scatter acquire whose second shard refuses
  // (QueueFull) must release the first shard's sub-lease -- no shard may
  // be left pinned by a failed cluster grant.
  ServiceConfig service = small_service();
  service.max_queue = 1;
  Cluster cluster = make_cluster(hash_cluster(2), 64, service);
  const Placement& placement = cluster.router->placement();
  const Request request = cross_shard_request(placement, 64);
  // Canonicalization may reorder the files; block the non-first shard so
  // the scatter's *first* sub-acquire succeeds and the second bounces.
  const std::uint32_t blocked =
      std::max(placement.file_shard(request.files[0]),
               placement.file_shard(request.files[1]));

  // Fill the blocked shard's only queue slot with a paused single-file
  // acquire so the scatter's sub-acquire bounces with QueueFull.
  cluster.server(blocked).set_admission_paused(true);
  const FileId filler = file_on_shard(placement, blocked, 64);
  std::atomic<bool> filler_done{false};
  AcquireResult filler_result;
  std::thread filler_thread([&] {
    filler_result = cluster.server(blocked).acquire(Request({filler}));
    filler_done.store(true);
  });
  for (int i = 0; i < 2000 && cluster.server(blocked).stats().queue_depth < 1;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_GE(cluster.server(blocked).stats().queue_depth, 1u);

  const AcquireResult result = cluster.router->acquire(request);
  EXPECT_EQ(result.status, AcquireStatus::QueueFull);
  EXPECT_EQ(result.lease, 0u);
  EXPECT_FALSE(result.request_hit);

  // Nothing stays pinned anywhere and the router kept no scatter state.
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
  for (std::uint32_t s = 0; s < 2; ++s) {
    const service::ServiceStats stats = cluster.server(s).stats();
    EXPECT_EQ(stats.active_leases, 0u) << "shard " << s << " left pinned";
    EXPECT_EQ(stats.leases_granted, stats.leases_released)
        << "shard " << s << " grant/release imbalance";
  }
  EXPECT_EQ(counter_value(cluster.router->metrics(), "grid.acquire.rollback"),
            1u);

  cluster.server(blocked).set_admission_paused(false);
  filler_thread.join();
  ASSERT_TRUE(filler_done.load());
  if (filler_result.status == AcquireStatus::Ok)
    cluster.server(blocked).release(filler_result.lease);
  for (std::uint32_t s = 0; s < 2; ++s)
    EXPECT_TRUE(cluster.server(s).audit().empty());
}

TEST(ClusterRouter, OversizedPartIsUnserviceable) {
  // Shard 1's part of this hash-placed bundle is every file it owns: more
  // than its 2000-byte cache holds. Shard 0's part is reserved first and
  // must be rolled back when shard 1 refuses.
  constexpr std::size_t kFiles = 128;
  Cluster cluster = make_cluster(hash_cluster(2), kFiles, small_service());
  const Placement& placement = cluster.router->placement();
  std::vector<FileId> files = {file_on_shard(placement, 0, kFiles)};
  for (FileId id = 0; id < kFiles; ++id)
    if (placement.file_shard(id) == 1) files.push_back(id);
  ASSERT_GT((files.size() - 1) * 100, small_service().cache_bytes);

  const AcquireResult result = cluster.router->acquire(Request(files));
  EXPECT_EQ(result.status, AcquireStatus::Unserviceable);
  EXPECT_EQ(result.lease, 0u);
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.server(s).stats().active_leases, 0u) << "shard " << s;
    EXPECT_TRUE(cluster.server(s).audit().empty()) << "shard " << s;
  }
}

/// Request hits of a serial acquire-then-release replay of `w.jobs`
/// through `shards` hash-placed shards that split `total_bytes` evenly.
std::uint64_t serial_request_hits(const Workload& w, std::uint32_t shards,
                                  Bytes total_bytes,
                                  const std::string& policy) {
  MassStorageSystem mss(default_tiers(), w.catalog);
  ServiceConfig service = small_service();
  service.cache_bytes = total_bytes / shards;
  service.policy = policy;
  const ClusterStack stack =
      make_local_cluster(hash_cluster(shards), service, mss);
  std::uint64_t hits = 0;
  for (const Request& job : w.jobs) {
    const AcquireResult result = stack.router->acquire(job);
    EXPECT_EQ(result.status, AcquireStatus::Ok);
    if (result.status != AcquireStatus::Ok) continue;
    if (result.request_hit) ++hits;
    EXPECT_TRUE(stack.router->release(result.lease));
  }
  return hits;
}

TEST(ClusterRouter, SplittingFixedCapacityCostsOptfbRequestHits) {
  // The paper's §1 cluster deployment: the same total disk split over
  // more independent shards. A job hits only when every shard holds its
  // part, so OptFileBundle's request hits fall as the shard count grows,
  // and it keeps its lead over LRU at every count. (LRU's own count is
  // not monotone: on this stream it rises from 2 to 4 shards.)
  WorkloadConfig wconfig;
  wconfig.seed = 1;
  wconfig.cache_bytes = 64 * MiB;
  wconfig.num_files = 1500;
  wconfig.min_file_bytes = 64 * KiB;
  wconfig.max_file_frac = 0.005;
  wconfig.num_requests = 600;
  wconfig.min_bundle_files = 2;
  wconfig.max_bundle_files = 8;
  wconfig.num_jobs = 1500;
  wconfig.popularity = Popularity::Zipf;
  const Workload w = generate_workload(wconfig);

  std::uint64_t previous = w.jobs.size();
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(shards);
    const std::uint64_t optfb =
        serial_request_hits(w, shards, wconfig.cache_bytes, "optfb");
    EXPECT_LE(optfb, previous);
    EXPECT_GE(optfb,
              serial_request_hits(w, shards, wconfig.cache_bytes, "lru"));
    previous = optfb;
  }
}

TEST(ClusterRouter, ReleaseRejectsForeignLeases) {
  Cluster cluster = make_cluster(hash_cluster(2), 16, small_service());
  // Scatter tag with an id the router never issued.
  EXPECT_FALSE(cluster.router->release(12345));
  // Single-shard tag pointing past the last shard.
  EXPECT_FALSE(cluster.router->release((LeaseId{9} << kShardShift) | 1));
  EXPECT_EQ(counter_value(cluster.router->metrics(), "grid.release.unknown"),
            2u);
}

TEST(ClusterRouter, EmptyRequestIsInvalid) {
  Cluster cluster = make_cluster(hash_cluster(2), 16, small_service());
  const AcquireResult result =
      cluster.router->acquire(Request(std::vector<FileId>{}));
  EXPECT_EQ(result.status, AcquireStatus::InvalidRequest);
  EXPECT_EQ(result.lease, 0u);
}

TEST(ClusterRouter, StatsSumShardsAndCapacity) {
  Cluster cluster = make_cluster(hash_cluster(2), 64, small_service());
  const Request request =
      cross_shard_request(cluster.router->placement(), 64);
  const AcquireResult result = cluster.router->acquire(request);
  ASSERT_EQ(result.status, AcquireStatus::Ok);
  const service::ServiceStats merged = cluster.router->stats();
  EXPECT_EQ(merged.capacity_bytes, 2u * 2000u);
  EXPECT_EQ(merged.requests, cluster.server(0).stats().requests +
                                 cluster.server(1).stats().requests);
  EXPECT_EQ(merged.active_leases, 2u);  // one sub-lease per touched shard
  EXPECT_TRUE(cluster.router->release(result.lease));
}

TEST(ClusterRouter, CloseFailsFutureAcquires) {
  Cluster cluster = make_cluster(hash_cluster(2), 16, small_service());
  cluster.router->close();
  const AcquireResult result = cluster.router->acquire(Request({1}));
  EXPECT_EQ(result.status, AcquireStatus::Closed);
}

TEST(ClusterRouter, InfoReportsRouterRole) {
  Cluster cluster = make_cluster(hash_cluster(3), 16, small_service());
  const service::EndpointInfo info = cluster.router->info();
  EXPECT_EQ(info.role, service::EndpointRole::Router);
  EXPECT_EQ(info.shard_count, 3u);
}

TEST(ClusterRouter, ConcurrentScatterGatherStressWithLiveAudits) {
  // 8 workers hammer a 4-shard hash cluster with random cross-shard
  // bundles while one audit thread per shard re-checks the lease/cache
  // invariants mid-flight. Everything must drain clean: no audit
  // violation (live or final), no leaked scatter lease, no stuck pin.
  ServiceConfig service = small_service();
  service.cache_bytes = 4000;
  Cluster cluster = make_cluster(hash_cluster(4), 64, service);

  std::atomic<bool> stop{false};
  std::atomic<int> live_violations{0};
  std::vector<std::thread> auditors;
  for (std::uint32_t s = 0; s < 4; ++s) {
    auditors.emplace_back([&cluster, &stop, &live_violations, s] {
      while (!stop.load()) {
        if (!cluster.server(s).audit().empty()) live_violations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  std::atomic<int> failed{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 8; ++w) {
    workers.emplace_back([&cluster, &failed, w] {
      Rng rng(std::uint64_t{0x57a4e55} + static_cast<std::uint64_t>(w));
      std::vector<service::LeaseId> held;
      for (int iter = 0; iter < 200; ++iter) {
        const std::size_t picks = 1 + rng.index(4);
        std::vector<FileId> files;
        for (std::size_t p = 0; p < picks; ++p)
          files.push_back(static_cast<FileId>(rng.index(64)));
        const AcquireResult result =
            cluster.router->acquire(Request(std::move(files)));
        if (result.status == AcquireStatus::Ok) {
          held.push_back(result.lease);
        } else if (result.status != AcquireStatus::QueueFull &&
                   result.status != AcquireStatus::TimedOut) {
          failed.fetch_add(1);
        }
        // Keep at most two leases pinned so the cluster never wedges.
        while (held.size() > 2) {
          if (!cluster.router->release(held.front())) failed.fetch_add(1);
          held.erase(held.begin());
        }
      }
      for (service::LeaseId lease : held)
        if (!cluster.router->release(lease)) failed.fetch_add(1);
    });
  }
  for (std::thread& t : workers) t.join();
  stop.store(true);
  for (std::thread& t : auditors) t.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(live_violations.load(), 0);
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(cluster.server(s).audit().empty()) << "shard " << s;
    EXPECT_EQ(cluster.server(s).stats().active_leases, 0u) << "shard " << s;
  }
}

std::uint64_t histogram_count(const service::MetricsSnapshot& metrics,
                              const std::string& name) {
  for (const service::NamedHistogram& h : metrics.histograms)
    if (h.name == name) return h.hist.count();
  return 0;
}

TEST(ClusterRouter, ScatterHistogramsCountEveryGrantedScatter) {
  Cluster cluster = make_cluster(hash_cluster(4), 64, small_service());
  const Placement& placement = cluster.router->placement();
  // Singles, scatters over 2..4 shards, and one refused scatter.
  for (std::uint32_t s = 0; s < 4; ++s) {
    const AcquireResult single =
        cluster.router->acquire(Request({file_on_shard(placement, s, 64)}));
    ASSERT_EQ(single.status, AcquireStatus::Ok);
    EXPECT_TRUE(cluster.router->release(single.lease));
  }
  for (std::uint32_t width = 2; width <= 4; ++width) {
    std::vector<FileId> files;
    for (std::uint32_t s = 0; s < width; ++s)
      files.push_back(file_on_shard(placement, s, 64));
    const AcquireResult scatter = cluster.router->acquire(Request(files));
    ASSERT_EQ(scatter.status, AcquireStatus::Ok);
    EXPECT_TRUE(cluster.router->release(scatter.lease));
  }
  cluster.server(3).close();  // its parts are refused: Closed
  const AcquireResult refused = cluster.router->acquire(
      Request({file_on_shard(placement, 0, 64), file_on_shard(placement, 3, 64)}));
  EXPECT_EQ(refused.status, AcquireStatus::Closed);
  EXPECT_EQ(counter_value(cluster.router->metrics(), "grid.acquire.rollback"),
            1u);

  const service::MetricsSnapshot metrics = cluster.router->metrics();
  EXPECT_EQ(counter_value(metrics, "grid.acquire.scatter"), 3u);
  EXPECT_EQ(histogram_count(metrics, "grid.scatter.reserve_us"), 3u);
  EXPECT_EQ(histogram_count(metrics, "grid.scatter.grant_us"), 3u);
  // Merged by name and sorted: the wire encoder accepts the snapshot.
  for (std::size_t i = 1; i < metrics.histograms.size(); ++i)
    EXPECT_LT(metrics.histograms[i - 1].name, metrics.histograms[i].name);
  std::vector<std::uint8_t> frame;
  EXPECT_NO_THROW(service::encode_frame(service::MetricsReplyMsg{metrics},
                                        &frame));
}

TEST(ClusterRouter, RefusedLaterPartRollsBackAnEarlierPartStillStaging) {
  // Every file sits on the disk-pool tier (50 ms), scaled to 500 ms: the
  // first part is reserved with its fetch in flight when the second
  // part's shard refuses. The rollback finishes the first part before it
  // releases it.
  ServiceConfig service = small_service();
  service.max_queue = 1;
  service.time_scale = 10.0;
  Cluster cluster = make_cluster(hash_cluster(2), 64, service);
  const Placement& placement = cluster.router->placement();
  const FileId first = file_on_shard(placement, 0, 64);
  const FileId second = file_on_shard(placement, 1, 64);

  cluster.server(1).set_admission_paused(true);
  AcquireResult filler_result;
  std::thread filler_thread([&] {
    filler_result = cluster.server(1).acquire(Request({second}));
  });
  for (int i = 0; i < 2000 && cluster.server(1).stats().queue_depth < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(cluster.server(1).stats().queue_depth, 1u);

  const auto t0 = std::chrono::steady_clock::now();
  const AcquireResult result =
      cluster.router->acquire(Request({first, second}));
  EXPECT_EQ(result.status, AcquireStatus::QueueFull);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(490));
  EXPECT_EQ(counter_value(cluster.router->metrics(), "grid.acquire.rollback"),
            1u);
  const service::ServiceStats first_stats = cluster.server(0).stats();
  EXPECT_EQ(first_stats.requests, 1u);
  EXPECT_EQ(first_stats.active_leases, 0u);
  // The rolled-back lease was released only after its 500 ms fetch.
  for (const service::NamedHistogram& h : cluster.server(0).metrics().histograms)
    if (h.name == "lease.hold_us") {
      EXPECT_EQ(h.hist.count(), 1u);
      EXPECT_GE(h.hist.min(), 490'000u);
    }
  EXPECT_EQ(cluster.server(0).in_flight_files(), 0u);
  EXPECT_TRUE(cluster.server(0).audit().empty());

  cluster.server(1).set_admission_paused(false);
  filler_thread.join();
  ASSERT_EQ(filler_result.status, AcquireStatus::Ok);
  EXPECT_TRUE(cluster.server(1).release(filler_result.lease));
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.server(s).stats().active_leases, 0u);
    EXPECT_EQ(cluster.server(s).in_flight_files(), 0u);
    EXPECT_TRUE(cluster.server(s).audit().empty());
  }
  EXPECT_EQ(cluster.router->scatter_leases(), 0u);
}

TEST(ClusterRouter, OverlappingScattersCompleteOnTimeInProcess) {
  // The in-process liveness case of the two-round scatter. Y reserves
  // file A on shard 0 (its fetch F in flight) and queues for B on shard
  // 1. X reserves A on shard 0 too, then C on shard 1, which the value-
  // density order admits first and which leaves no room for B. X's grant
  // on shard 0 waits for F, and Y -- the thread that reserved F -- is
  // stuck behind X's pins on shard 1. F must complete at its ready
  // instant anyway, or X waits until Y times out.
  ServiceConfig service = small_service();
  service.cache_bytes = 199;  // one 100-byte file, with no room for two
  service.order = service::AdmitOrder::ValueDensity;
  service.time_scale = 1.0;  // 50 ms per staged file
  service.timeout_ms = 8000;
  Cluster cluster = make_cluster(hash_cluster(2), 64, service);
  const Placement& placement = cluster.router->placement();
  const FileId a = file_on_shard(placement, 0, 64);
  FileId b = 0;
  FileId c = 0;
  bool have_b = false;
  for (FileId id = 0; id < 64; ++id) {
    if (placement.file_shard(id) != 1) continue;
    if (!have_b) {
      b = id;
      have_b = true;
    } else {
      c = id;
      break;
    }
  }
  ASSERT_NE(b, c);

  // C is resident (unpinned) on shard 1, so X's part there is a hit.
  const AcquireResult warm = cluster.router->acquire(Request({c}));
  ASSERT_EQ(warm.status, AcquireStatus::Ok);
  ASSERT_TRUE(cluster.router->release(warm.lease));

  cluster.server(1).set_admission_paused(true);
  const auto t0 = std::chrono::steady_clock::now();
  auto y = std::async(std::launch::async, [&] {
    return cluster.router->acquire(Request({a, b}));
  });
  for (int i = 0; i < 4000 && cluster.server(1).stats().queue_depth < 1; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(cluster.server(1).stats().queue_depth, 1u);
  auto x = std::async(std::launch::async, [&] {
    return cluster.router->acquire(Request({a, c}));
  });
  for (int i = 0; i < 4000 && cluster.server(1).stats().queue_depth < 2; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(cluster.server(1).stats().queue_depth, 2u);
  cluster.server(1).set_admission_paused(false);

  const AcquireResult x_result = x.get();
  const auto x_after = std::chrono::steady_clock::now() - t0;
  ASSERT_EQ(x_result.status, AcquireStatus::Ok);
  EXPECT_LT(x_after, std::chrono::milliseconds(service.timeout_ms / 4));
  ASSERT_TRUE(cluster.router->release(x_result.lease));  // lets B in

  const AcquireResult y_result = y.get();
  ASSERT_EQ(y_result.status, AcquireStatus::Ok);
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(service.timeout_ms / 4));
  ASSERT_TRUE(cluster.router->release(y_result.lease));
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(cluster.server(s).stats().timed_out, 0u) << "shard " << s;
    EXPECT_EQ(cluster.server(s).stats().active_leases, 0u) << "shard " << s;
    EXPECT_EQ(cluster.server(s).in_flight_files(), 0u) << "shard " << s;
    EXPECT_TRUE(cluster.server(s).audit().empty()) << "shard " << s;
  }
}

}  // namespace
}  // namespace fbc::cluster
