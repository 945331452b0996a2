#include "cluster/router.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "cluster/stats.hpp"
#include "service/net.hpp"

namespace fbc::cluster {

namespace {

/// Elapsed microseconds between two steady_clock instants.
std::uint64_t us_between(std::chrono::steady_clock::time_point from,
                         std::chrono::steady_clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

ClusterRouter::ClusterRouter(const ClusterConfig& config,
                             const FileCatalog& catalog, Bytes shard_capacity,
                             std::vector<std::unique_ptr<Shard>> shards)
    : config_(config),
      placement_(config, catalog, shard_capacity),
      shards_(std::move(shards)) {
  if (shards_.empty() || shards_.size() > 128)
    throw std::invalid_argument("ClusterRouter: shard count must be 1..128");
  if (shards_.size() != config_.shards)
    throw std::invalid_argument(
        "ClusterRouter: shards vector does not match config.shards");
  for (const auto& shard : shards_)
    if (shard == nullptr)
      throw std::invalid_argument("ClusterRouter: null shard");
  health_.resize(shards_.size());
  pending_release_.resize(shards_.size());
}

ClusterRouter::~ClusterRouter() { close(); }

void ClusterRouter::bump(const char* counter) const {
  std::lock_guard<OrderedMutex> lock(grid_obs_mu_);
  grid_counters_.add(counter);
}

std::vector<bool> ClusterRouter::routable_snapshot(
    const std::vector<bool>& excluded) const {
  const Clock::time_point now = Clock::now();
  std::vector<bool> live(shards_.size(), false);
  std::lock_guard<OrderedMutex> lock(route_mu_);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (excluded[s]) continue;
    ShardHealth& h = health_[s];
    if (!h.down) {
      live[s] = true;
    } else if (config_.probe_ms == 0 || now >= h.next_probe) {
      // Claim the probe slot: this request is routed at the dead shard
      // as an opportunistic probe, and the next one waits probe_ms so a
      // burst does not pile onto a dead daemon.
      h.next_probe = now + std::chrono::milliseconds(config_.probe_ms);
      live[s] = true;
    }
  }
  return live;
}

bool ClusterRouter::should_attempt(std::uint32_t shard) const {
  const Clock::time_point now = Clock::now();
  std::lock_guard<OrderedMutex> lock(route_mu_);
  ShardHealth& h = health_[shard];
  if (!h.down) return true;
  if (config_.probe_ms == 0 || now >= h.next_probe) {
    h.next_probe = now + std::chrono::milliseconds(config_.probe_ms);
    return true;
  }
  return false;
}

void ClusterRouter::record_success(std::uint32_t shard) const {
  std::vector<LeaseId> pending;
  bool recovered = false;
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    ShardHealth& h = health_[shard];
    h.consecutive = 0;
    if (h.down) {
      h.down = false;
      recovered = true;
    }
    // Releases can be parked below down_threshold too (a single NetError
    // defers), so any proven-reachable shard drains its queue -- not just
    // a down -> up transition.
    pending = std::move(pending_release_[shard]);
    pending_release_[shard].clear();
  }
  if (recovered) bump("grid.shard.recovered");
  if (pending.empty()) return;
  // Flush releases deferred while the shard was gone. A rebooted shard
  // that lost its lease table answers false (counted unknown below via
  // the shard itself); one that kept state is fully drained. A NetError
  // mid-flush re-parks the rest.
  for (std::size_t i = 0; i < pending.size(); ++i) {
    try {
      (void)shards_[shard]->release(pending[i]);
    } catch (const service::NetError&) {
      for (std::size_t j = i; j < pending.size(); ++j)
        defer_release(shard, pending[j]);
      record_failure(shard);
      return;
    }
  }
}

void ClusterRouter::record_failure(std::uint32_t shard) const {
  bool went_down = false;
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    ShardHealth& h = health_[shard];
    ++h.consecutive;
    if (!h.down && h.consecutive >= config_.down_threshold) {
      h.down = true;
      h.next_probe =
          Clock::now() + std::chrono::milliseconds(config_.probe_ms);
      went_down = true;
    }
  }
  if (!went_down) return;
  bump("grid.shard.down");
  // Pooled connections to a crashed daemon are all poisoned; drop them
  // so the recovery probe dials fresh.
  shards_[shard]->invalidate_pool();
}

void ClusterRouter::defer_release(std::uint32_t shard, LeaseId lease) const {
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    pending_release_[shard].push_back(lease);
  }
  bump("grid.release.deferred");
}

service::AcquireResult ClusterRouter::shard_acquire(std::uint32_t shard,
                                                    const Request& request) {
  service::AcquireResult result;
  try {
    result = shards_[shard]->acquire(request);
  } catch (const service::NetError&) {
    throw ShardUnreachable{shard};
  }
  // Any completed round trip is a health success, whatever the verdict
  // (QueueFull from a live shard is backpressure, not death).
  record_success(shard);
  return result;
}

service::Reservation ClusterRouter::shard_reserve(std::uint32_t shard,
                                                  const Request& request) {
  service::Reservation reservation;
  try {
    reservation = shards_[shard]->reserve(request);
  } catch (const service::NetError&) {
    throw ShardUnreachable{shard};
  }
  record_success(shard);
  return reservation;
}

service::AcquireResult ClusterRouter::shard_finish(
    std::uint32_t shard, service::Reservation& reservation) {
  try {
    return service::finish(reservation);
  } catch (const service::NetError&) {
    throw ShardUnreachable{shard};
  }
}

service::AcquireResult ClusterRouter::acquire(const Request& request) {
  if (closed_.load(std::memory_order_acquire))
    return {service::AcquireStatus::Closed, 0, false, 0, 0};
  if (request.empty())
    return {service::AcquireStatus::InvalidRequest, 0, false, 0, 0};
  Request canonical = request;
  canonical.canonicalize();

  // Re-plan loop: a NetError out of a shard excludes it (for this
  // request) and re-routes the remainder to the live shards. Each shard
  // can fail at most once per request, so shards_.size() + 1 attempts
  // bound the loop even if every shard dies mid-flight.
  std::vector<bool> excluded(shards_.size(), false);
  bool rerouted = false;
  for (std::size_t attempt = 0; attempt <= shards_.size(); ++attempt) {
    const std::vector<bool> live = routable_snapshot(excluded);
    const PlacementPlan plan = placement_.plan(canonical, live);
    if (plan.parts.empty()) break;  // no live shard left
    if (plan.rerouted && !rerouted) {
      rerouted = true;
      bump("grid.acquire.rerouted");
    }
    try {
      return plan.split() ? acquire_scatter(plan)
                          : acquire_single(plan.parts.front());
    } catch (const ShardUnreachable& dead) {
      record_failure(dead.shard);
      excluded[dead.shard] = true;
      if (!rerouted) {
        rerouted = true;
        bump("grid.acquire.rerouted");
      }
    }
  }
  bump("grid.acquire.no_shard");
  return {service::AcquireStatus::ShardsDown, 0, false, 0, 0};
}

service::AcquireResult ClusterRouter::acquire_single(const SubRequest& part) {
  service::AcquireResult result = shard_acquire(part.shard, part.request);
  if (result.status == service::AcquireStatus::Ok) {
    if ((result.lease & ~kPayloadMask) != 0)
      throw std::runtime_error(
          "ClusterRouter: shard lease id overflows the router tag byte");
    result.lease |= static_cast<LeaseId>(part.shard + 1) << kShardShift;
  }
  bump("grid.acquire.single");
  return result;
}

service::AcquireResult ClusterRouter::acquire_scatter(
    const PlacementPlan& plan) {
  // The cluster grant is the conjunction of per-shard grants, won in two
  // rounds. Reserve: part k+1 is asked only once part k is reserved, in
  // increasing shard order (plan.parts is sorted), so two split bundles
  // contending for the same shards serialize their reservations instead
  // of deadlocking on each other's partial pins. Finish: only then is
  // each part's grant awaited. Every part's fetch is in flight from its
  // reservation on, so the scatter waits for its slowest part, not for
  // the sum of them.
  const Clock::time_point t_plan = Clock::now();
  enum class State { Reserved, Granted, Gone };
  struct Part {
    std::uint32_t shard;
    service::Reservation reservation;
    State state = State::Reserved;
  };
  std::vector<Part> parts;
  parts.reserve(plan.parts.size());
  auto rollback = [&]() noexcept {
    // Newest part first. A part still staging is finished before it is
    // released, so no lease is released while its fetch is in flight. A
    // shard that dies mid-finish took the lease with its connection (its
    // daemon reclaims it); one that dies mid-release gets the release
    // deferred, so the pin is reclaimed on recovery.
    for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
      if (it->state == State::Gone) continue;
      try {
        if (it->state == State::Reserved) (void)service::finish(it->reservation);
      } catch (...) {
        continue;
      }
      try {
        shards_[it->shard]->release(it->reservation.result.lease);
      } catch (const service::NetError&) {
        defer_release(it->shard, it->reservation.result.lease);
      } catch (...) {
      }
    }
    bump("grid.acquire.rollback");
  };
  // The client sees a refusing shard's verdict with no residual pins
  // anywhere.
  auto refused = [&](service::AcquireResult result) {
    rollback();
    result.lease = 0;
    result.request_hit = false;
    return result;
  };

  for (const SubRequest& part : plan.parts) {
    service::Reservation reservation;
    try {
      reservation = shard_reserve(part.shard, part.request);
    } catch (...) {
      rollback();
      throw;  // a ShardUnreachable makes acquire() re-plan around it
    }
    if (reservation.result.status != service::AcquireStatus::Ok)
      return refused(reservation.result);
    parts.push_back({part.shard, std::move(reservation)});
  }
  const Clock::time_point t_reserved = Clock::now();

  service::AcquireResult gathered;
  gathered.status = service::AcquireStatus::Ok;
  gathered.request_hit = true;
  for (Part& part : parts) {
    service::AcquireResult granted;
    try {
      granted = shard_finish(part.shard, part.reservation);
    } catch (...) {
      part.state = State::Gone;
      rollback();
      throw;  // a ShardUnreachable makes acquire() re-plan around it
    }
    if (granted.status != service::AcquireStatus::Ok) {
      part.state = State::Gone;
      return refused(granted);
    }
    part.state = State::Granted;
    // The cluster-level request is a hit only if every slice was.
    gathered.request_hit = gathered.request_hit && granted.request_hit;
    gathered.retries += granted.retries;
  }
  const Clock::time_point t_granted = Clock::now();

  std::vector<std::pair<std::uint32_t, LeaseId>> leases;
  leases.reserve(parts.size());
  for (const Part& part : parts)
    leases.emplace_back(part.shard, part.reservation.result.lease);
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    LeaseId id = next_scatter_id_++;
    if ((id & ~kPayloadMask) != 0)
      throw std::runtime_error("ClusterRouter: scatter lease ids exhausted");
    scatter_.emplace(id, std::move(leases));
    gathered.lease = id;  // top byte 0 == scatter tag
  }
  {
    std::lock_guard<OrderedMutex> lock(grid_obs_mu_);
    grid_counters_.add("grid.acquire.scatter");
    scatter_reserve_us_.record(us_between(t_plan, t_reserved));
    scatter_grant_us_.record(us_between(t_reserved, t_granted));
  }
  return gathered;
}

bool ClusterRouter::try_release(std::uint32_t shard, LeaseId lease,
                                bool* ok) const {
  if (!should_attempt(shard)) {
    // Down and no probe due: park the release instead of hammering a
    // dead daemon. The lease is replayed on recovery.
    defer_release(shard, lease);
    return false;
  }
  try {
    *ok = shards_[shard]->release(lease);
  } catch (const service::NetError&) {
    record_failure(shard);
    defer_release(shard, lease);
    return false;
  }
  record_success(shard);
  return true;
}

bool ClusterRouter::release(LeaseId lease) {
  const std::uint64_t tag = lease >> kShardShift;
  if (tag != 0) {
    const std::size_t shard = static_cast<std::size_t>(tag) - 1;
    if (shard >= shards_.size()) {
      bump("grid.release.unknown");
      return false;
    }
    bool ok = false;
    if (!try_release(static_cast<std::uint32_t>(shard), lease & kPayloadMask,
                     &ok)) {
      // Deferred: the pin is safe and will be reclaimed on recovery, so
      // the client's release is accepted.
      bump("grid.release.partial");
      return true;
    }
    if (!ok) bump("grid.release.unknown");
    return ok;
  }
  std::vector<std::pair<std::uint32_t, LeaseId>> parts;
  {
    std::lock_guard<OrderedMutex> lock(route_mu_);
    auto it = scatter_.find(lease);
    if (it == scatter_.end()) {
      std::lock_guard<OrderedMutex> obs(grid_obs_mu_);
      grid_counters_.add("grid.release.unknown");
      return false;
    }
    parts = std::move(it->second);
    scatter_.erase(it);
  }
  // Every part is attempted even if one shard throws mid-loop (the old
  // code let the exception escape here, leaking the remaining shards'
  // pins forever -- the scatter entry was already erased above).
  bool all_ok = true;
  bool partial = false;
  for (const auto& [shard, sub_lease] : parts) {
    bool ok = false;
    if (try_release(shard, sub_lease, &ok))
      all_ok = ok && all_ok;
    else
      partial = true;  // deferred, not lost
  }
  if (partial) bump("grid.release.partial");
  return all_ok;
}

service::ServiceStats ClusterRouter::stats() const {
  std::vector<service::ServiceStats> per_shard;
  per_shard.reserve(shards_.size());
  std::size_t skipped = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!should_attempt(static_cast<std::uint32_t>(s))) {
      ++skipped;
      continue;
    }
    try {
      per_shard.push_back(shards_[s]->stats());
    } catch (const service::NetError&) {
      record_failure(static_cast<std::uint32_t>(s));
      ++skipped;
      continue;
    }
    record_success(static_cast<std::uint32_t>(s));
  }
  if (skipped != 0) bump("grid.stats.partial");
  return merge_stats(per_shard);
}

service::MetricsSnapshot ClusterRouter::metrics() const {
  std::vector<service::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  std::size_t skipped = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!should_attempt(static_cast<std::uint32_t>(s))) {
      ++skipped;
      continue;
    }
    try {
      per_shard.push_back(shards_[s]->metrics());
    } catch (const service::NetError&) {
      record_failure(static_cast<std::uint32_t>(s));
      ++skipped;
      continue;
    }
    record_success(static_cast<std::uint32_t>(s));
  }
  if (skipped != 0) bump("grid.stats.partial");
  service::MetricsSnapshot merged = merge_metrics(per_shard);
  // Fold the router's own counters and histograms in the same way, so
  // the merge keeps every name list sorted.
  service::MetricsSnapshot own;
  {
    std::lock_guard<OrderedMutex> lock(grid_obs_mu_);
    own.counters = grid_counters_.snapshot();
    own.histograms.push_back({"grid.scatter.grant_us", scatter_grant_us_});
    own.histograms.push_back({"grid.scatter.reserve_us", scatter_reserve_us_});
  }
  const service::MetricsSnapshot parts[] = {std::move(merged), std::move(own)};
  return merge_metrics(parts);
}

void ClusterRouter::close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  for (const auto& shard : shards_) {
    try {
      shard->close();
    } catch (const service::NetError&) {
      // A dead shard cannot be told to close; its daemon (if any) is
      // already gone and reclaims leases itself.
    }
  }
}

std::size_t ClusterRouter::scatter_leases() const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  return scatter_.size();
}

bool ClusterRouter::shard_down(std::size_t index) const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  return health_.at(index).down;
}

std::uint32_t ClusterRouter::down_count() const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  std::uint32_t down = 0;
  for (const ShardHealth& h : health_)
    if (h.down) ++down;
  return down;
}

std::size_t ClusterRouter::pending_releases() const {
  std::lock_guard<OrderedMutex> lock(route_mu_);
  std::size_t total = 0;
  for (const std::vector<LeaseId>& p : pending_release_) total += p.size();
  return total;
}

bool ClusterRouter::probe(std::size_t index) {
  try {
    (void)shards_.at(index)->stats();
  } catch (const service::NetError&) {
    record_failure(static_cast<std::uint32_t>(index));
    return false;
  }
  record_success(static_cast<std::uint32_t>(index));
  return true;
}

ClusterStack make_local_cluster(const ClusterConfig& cluster_config,
                                service::ServiceConfig service_config,
                                const StorageBackend& backend) {
  ClusterStack stack;
  std::vector<std::unique_ptr<Shard>> shards;
  for (std::uint32_t i = 0; i < cluster_config.shards; ++i) {
    service_config.shard_id = i;
    stack.servers.push_back(
        std::make_unique<service::BundleServer>(service_config, backend));
    shards.push_back(std::make_unique<LocalShard>(*stack.servers.back()));
  }
  stack.router = std::make_unique<ClusterRouter>(
      cluster_config, backend.catalog(), service_config.cache_bytes,
      std::move(shards));
  return stack;
}

}  // namespace fbc::cluster
