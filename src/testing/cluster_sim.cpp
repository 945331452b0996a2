#include "testing/cluster_sim.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "grid/mss.hpp"

namespace fbc::testing {
namespace {

using service::AcquireResult;
using service::AcquireStatus;
using service::BundleServer;
using service::ServiceConfig;

/// Spins until `ready` returns true; throws after ~10s (same contract as
/// sched_sim's await -- a stalled harness must fail, not hang).
template <typename Pred>
void await(const Pred& ready, const char* what) {
  for (int i = 0; i < 100000; ++i) {
    if (ready()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  throw std::runtime_error(std::string("cluster_sim: stalled waiting for ") +
                           what);
}

/// One shard call of an acquire, as the scatter-order probe saw it.
struct ShardEvent {
  enum class Kind {
    Acquire,  ///< one-call acquire, granted
    Reserve,  ///< split acquire, reserved
    Grant,    ///< a reservation's finish returned its grant
    Drop,     ///< a release, or a finish that died: the part is gone
  };
  Kind kind;
  std::uint32_t shard;
  service::LeaseId lease;
};

/// The shard calls of the acquire running on this thread, in call order,
/// or null outside an acquire. The router calls its shards from the
/// acquiring thread, so one op's calls all land in its own log.
thread_local std::vector<ShardEvent>* t_shard_events = nullptr;

void log_shard_event(ShardEvent event) {
  if (t_shard_events != nullptr) t_shard_events->push_back(event);
}

/// Forwards every call to the wrapped shard and logs the acquire-side
/// calls for check_scatter_order().
class OrderProbeShard final : public cluster::Shard {
 public:
  OrderProbeShard(std::unique_ptr<cluster::Shard> inner, std::uint32_t shard)
      : inner_(std::move(inner)), shard_(shard) {}

  AcquireResult acquire(const Request& request) override {
    const AcquireResult result = inner_->acquire(request);
    if (result.status == AcquireStatus::Ok)
      log_shard_event({ShardEvent::Kind::Acquire, shard_, result.lease});
    return result;
  }
  service::Reservation reserve(const Request& request) override {
    service::Reservation reservation = inner_->reserve(request);
    if (reservation.result.status != AcquireStatus::Ok) return reservation;
    const AcquireResult reserved = reservation.result;
    log_shard_event({ShardEvent::Kind::Reserve, shard_, reserved.lease});
    return {reserved, std::make_unique<Grant>(shard_, std::move(reservation))};
  }
  bool release(service::LeaseId lease) override {
    log_shard_event({ShardEvent::Kind::Drop, shard_, lease});
    return inner_->release(lease);
  }
  [[nodiscard]] service::ServiceStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] service::MetricsSnapshot metrics() const override {
    return inner_->metrics();
  }
  void close() override { inner_->close(); }
  void invalidate_pool() override { inner_->invalidate_pool(); }

 private:
  class Grant final : public service::PendingGrant {
   public:
    Grant(std::uint32_t shard, service::Reservation inner)
        : shard_(shard), inner_(std::move(inner)) {}
    AcquireResult finish() override {
      const service::LeaseId lease = inner_.result.lease;
      try {
        const AcquireResult granted = service::finish(inner_);
        log_shard_event({granted.status == AcquireStatus::Ok
                             ? ShardEvent::Kind::Grant
                             : ShardEvent::Kind::Drop,
                         shard_, lease});
        return granted;
      } catch (...) {
        log_shard_event({ShardEvent::Kind::Drop, shard_, lease});
        throw;
      }
    }

   private:
    std::uint32_t shard_;
    service::Reservation inner_;
  };

  std::unique_ptr<cluster::Shard> inner_;
  std::uint32_t shard_;
};

/// The scatter oracle: a granted bundle whose lease spans several shards
/// must have had every part reserved before any part was granted. The
/// parts are the reservations the op kept (those not dropped by a
/// rollback or a dead shard); a part won by a one-call acquire counts as
/// granted at its reservation. Returns a description of the violation.
std::optional<std::string> check_scatter_order(
    const std::vector<ShardEvent>& events) {
  const auto dropped = [&](const ShardEvent& part) {
    return std::any_of(events.begin(), events.end(), [&](const ShardEvent& e) {
      return e.kind == ShardEvent::Kind::Drop && e.shard == part.shard &&
             e.lease == part.lease;
    });
  };
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ShardEvent& e = events[i];
    if ((e.kind == ShardEvent::Kind::Acquire ||
         e.kind == ShardEvent::Kind::Reserve) &&
        !dropped(e))
      kept.push_back(i);
  }
  if (kept.size() < 2) return std::nullopt;
  const std::size_t last_reserved = kept.back();
  for (std::size_t i : kept) {
    const ShardEvent& part = events[i];
    if (part.kind == ShardEvent::Kind::Acquire && i != last_reserved)
      return "part on shard " + std::to_string(part.shard) +
             " was granted by a one-call acquire before every part was "
             "reserved";
    const auto grant = std::find_if(
        events.begin(), events.end(), [&](const ShardEvent& e) {
          return e.kind == ShardEvent::Kind::Grant && e.shard == part.shard &&
                 e.lease == part.lease;
        });
    if (part.kind == ShardEvent::Kind::Reserve && grant == events.end())
      return "part on shard " + std::to_string(part.shard) +
             " was never granted";
    if (part.kind == ShardEvent::Kind::Reserve &&
        static_cast<std::size_t>(grant - events.begin()) < last_reserved)
      return "part on shard " + std::to_string(part.shard) +
             " was granted before every part was reserved";
  }
  return std::nullopt;
}

/// The N servers + shards + router a replay runs against. The router is
/// built last and destroyed first (member order), matching its "shards
/// outlive the router" contract. Every shard is wrapped in a
/// FaultInjectionShard (a passthrough while alive) so a FaultPlan can
/// kill/revive it mid-replay, and that in an OrderProbeShard for the
/// scatter oracle; `faulty` aliases the fault wrappers, which the router
/// owns.
struct ClusterStack {
  std::vector<std::unique_ptr<BundleServer>> servers;
  std::vector<cluster::FaultInjectionShard*> faulty;
  std::unique_ptr<cluster::ClusterRouter> router;
};

ClusterStack build_stack(const SchedInstance& instance, ServiceConfig config,
                         const cluster::ClusterConfig& cluster,
                         MassStorageSystem& mss) {
  ClusterStack stack;
  std::vector<std::unique_ptr<cluster::Shard>> shards;
  for (std::uint32_t s = 0; s < cluster.shards; ++s) {
    ServiceConfig shard_config = config;
    shard_config.shard_id = s;
    stack.servers.push_back(
        std::make_unique<BundleServer>(shard_config, mss));
    auto faulty = std::make_unique<cluster::FaultInjectionShard>(
        std::make_unique<cluster::LocalShard>(*stack.servers.back()));
    stack.faulty.push_back(faulty.get());
    shards.push_back(std::make_unique<OrderProbeShard>(std::move(faulty), s));
  }
  stack.router = std::make_unique<cluster::ClusterRouter>(
      cluster, instance.catalog, config.cache_bytes, std::move(shards));
  return stack;
}

/// Applies every event of `faults` scheduled for `wave` -- kill flips the
/// wrapper, revive flips it back and probes the shard so the router's
/// health state (and its deferred-release flush) transitions here, not at
/// some interleaving-dependent later success.
void apply_faults(const FaultPlan& faults, std::size_t wave,
                  ClusterStack& stack) {
  for (const FaultEvent& e : faults.events) {
    if (e.wave != wave || e.shard >= stack.faulty.size()) continue;
    if (e.kill) {
      stack.faulty[e.shard]->kill();
    } else {
      stack.faulty[e.shard]->revive();
      stack.router->probe(e.shard);
    }
  }
}

std::uint64_t total_queue_depth(const ClusterStack& stack) {
  std::uint64_t depth = 0;
  for (const auto& server : stack.servers) depth += server->stats().queue_depth;
  return depth;
}

}  // namespace

std::string to_string(const ClusterOutcome& outcome) {
  std::ostringstream out;
  for (std::size_t i = 0; i < outcome.grants.size(); ++i) {
    const GrantRecord& g = outcome.grants[i];
    out << "op " << i << ": client " << g.client << " status "
        << static_cast<int>(g.status) << " hit " << static_cast<int>(g.hit)
        << "\n";
  }
  for (std::size_t s = 0; s < outcome.resident.size(); ++s) {
    out << "shard " << s << " resident:";
    for (FileId id : outcome.resident[s]) out << ' ' << id;
    out << "\n";
  }
  out << "requests=" << outcome.requests << " hits=" << outcome.request_hits
      << " evictions=" << outcome.evictions
      << " rejected_full=" << outcome.rejected_full
      << " single=" << outcome.single_acquires
      << " scatter=" << outcome.scatter_acquires
      << " rollbacks=" << outcome.rollbacks
      << " rerouted=" << outcome.rerouted
      << " down=" << outcome.shard_down_events
      << " recovered=" << outcome.shard_recoveries << "\n";
  return out.str();
}

Bytes cluster_feasible_floor(const SchedInstance& instance) {
  // Same pin/release bookkeeping as feasible_cache_floor, but the per-wave
  // requirement is the *whole wave's* bundle bytes on top of what is
  // pinned when the wave starts: within a wave, per-shard admission order
  // is interleaving-dependent, so an admission must fit even if every
  // other wave member was admitted (and pinned) first. A shard holds at
  // most the full bundles' worth of those pins, so this total bounds
  // every shard under every placement.
  std::vector<std::uint32_t> pins(instance.catalog.count(), 0);
  Bytes pinned = 0;
  const auto pin = [&](const Request& r) {
    for (FileId id : r.files)
      if (pins[id]++ == 0) pinned += instance.catalog.size_of(id);
  };
  const auto unpin = [&](const Request& r) {
    for (FileId id : r.files)
      if (--pins[id] == 0) pinned -= instance.catalog.size_of(id);
  };
  std::vector<std::deque<const Request*>> held;
  for (const SchedOp& op : instance.ops)
    if (op.client >= held.size()) held.resize(op.client + 1);
  Bytes floor = 0;
  for (std::size_t start = 0; start < instance.ops.size();
       start += instance.wave) {
    const std::size_t end =
        std::min(instance.ops.size(), start + instance.wave);
    for (std::size_t i = start; i < end; ++i) {
      const SchedOp& op = instance.ops[i];
      if (op.release_oldest && !held[op.client].empty()) {
        unpin(*held[op.client].front());
        held[op.client].pop_front();
      }
    }
    Bytes wave_bytes = 0;
    for (std::size_t i = start; i < end; ++i)
      wave_bytes +=
          instance.catalog.bundle_bytes(instance.ops[i].request.files);
    floor = std::max(floor, pinned + wave_bytes);
    for (std::size_t i = start; i < end; ++i) {
      const SchedOp& op = instance.ops[i];
      pin(op.request);
      held[op.client].push_back(&op.request);
    }
  }
  return floor;
}

ClusterOutcome run_cluster_schedule(const SchedInstance& instance,
                                    ServiceConfig config,
                                    const cluster::ClusterConfig& cluster,
                                    bool concurrent,
                                    const FaultPlan& faults) {
  // The instance's capacity is raised to the cluster floor so concurrent
  // replays stay stall-free under any intra-wave interleaving; serial
  // replays use the same capacity so the wave == 1 strict oracle compares
  // like with like. (The floor sums whole-wave bytes, so it also covers
  // any re-routed placement a fault forces.)
  config.cache_bytes =
      std::max(instance.cache_bytes, cluster_feasible_floor(instance));
  config.order = service::AdmitOrder::Fifo;
  config.time_scale = 0.0;
  // probe_ms = 0 makes down shards routable on every request: health
  // marks never change placement, each request attempts its healthy home
  // and re-routes on the thrown fault, so the whole acquire path stays a
  // pure function of (request, wave's killed set) -- replayable.
  cluster::ClusterConfig cluster_config = cluster;
  cluster_config.probe_ms = 0;
  MassStorageSystem mss(default_tiers(), instance.catalog);
  ClusterStack stack = build_stack(instance, config, cluster_config, mss);
  cluster::ClusterRouter& router = *stack.router;
  const std::size_t wave_len = std::max<std::size_t>(1, instance.wave);

  ClusterOutcome outcome;
  outcome.grants.resize(instance.ops.size());
  std::vector<std::deque<service::LeaseId>> held;
  for (const SchedOp& op : instance.ops)
    if (op.client >= held.size()) held.resize(op.client + 1);

  std::vector<AcquireResult> results(instance.ops.size());
  std::vector<std::vector<ShardEvent>> events(instance.ops.size());
  if (!concurrent) {
    for (std::size_t i = 0; i < instance.ops.size(); ++i) {
      const SchedOp& op = instance.ops[i];
      // Serial replay honors the same wave boundaries the concurrent one
      // does, so both replays see identical killed sets per op.
      if (i % wave_len == 0) apply_faults(faults, i / wave_len, stack);
      if (op.release_oldest && !held[op.client].empty()) {
        router.release(held[op.client].front());
        held[op.client].pop_front();
      }
      t_shard_events = &events[i];
      results[i] = router.acquire(op.request);
      t_shard_events = nullptr;
      // Hold the lease as soon as it is granted: a later release_oldest
      // op must actually release it mid-replay, exactly as the
      // concurrent path (and cluster_feasible_floor's bookkeeping) does.
      // Deferring the pushes to the end would silently turn every
      // release op into a no-op and over-pin the shards.
      if (results[i].status == AcquireStatus::Ok)
        held[op.client].push_back(results[i].lease);
    }
  } else {
    std::vector<std::exception_ptr> errors(instance.ops.size());
    for (std::size_t start = 0; start < instance.ops.size();
         start += instance.wave) {
      const std::size_t end =
          std::min(instance.ops.size(), start + instance.wave);
      apply_faults(faults, start / wave_len, stack);
      for (const auto& server : stack.servers)
        server->set_admission_paused(true);
      std::vector<std::thread> threads;
      std::vector<std::atomic<bool>> done(end - start);
      std::uint64_t queued = 0;
      for (std::size_t i = start; i < end; ++i) {
        const SchedOp& op = instance.ops[i];
        if (op.release_oldest && !held[op.client].empty()) {
          router.release(held[op.client].front());
          held[op.client].pop_front();
        }
        std::atomic<bool>& flag = done[i - start];
        threads.emplace_back([&router, &op, &results, &events, &errors,
                              &flag, i] {
          t_shard_events = &events[i];
          // Same containment as sched_sim: an exception out of acquire
          // closes the whole cluster so queued waiters return Closed
          // instead of stranding the wave, and is rethrown after the join.
          try {
            results[i] = router.acquire(op.request);
          } catch (...) {
            errors[i] = std::current_exception();
            router.close();
          }
          flag.store(true, std::memory_order_release);
        });
        // Arrival order is program order. While admission is paused a
        // scatter acquire sits in its *first* shard's queue, so one op
        // contributes exactly one queued entry (or finishes early on a
        // pre-queue rejection); summed depth makes the wait placement-
        // agnostic.
        const std::uint64_t target = queued + 1;
        await(
            [&] {
              return total_queue_depth(stack) >= target ||
                     done[i - start].load(std::memory_order_acquire);
            },
            "enqueue");
        if (total_queue_depth(stack) >= target) ++queued;
      }
      for (const auto& server : stack.servers)
        server->set_admission_paused(false);
      for (std::thread& t : threads) t.join();
      for (std::size_t i = start; i < end; ++i)
        if (errors[i]) std::rethrow_exception(errors[i]);
      for (std::size_t i = start; i < end; ++i)
        if (results[i].status == AcquireStatus::Ok)
          held[instance.ops[i].client].push_back(results[i].lease);
    }
  }

  for (std::size_t i = 0; i < instance.ops.size(); ++i) {
    if (results[i].status != AcquireStatus::Ok) continue;
    if (const auto violation = check_scatter_order(events[i]))
      throw std::runtime_error("cluster_sim: op " + std::to_string(i) +
                               ": " + *violation);
  }

  for (std::size_t i = 0; i < instance.ops.size(); ++i) {
    const SchedOp& op = instance.ops[i];
    GrantRecord& g = outcome.grants[i];
    g.client = op.client;
    g.status = static_cast<std::uint8_t>(results[i].status);
    g.hit = results[i].request_hit ? 1 : 0;
  }

  // Revive the whole fleet before the final drain: probing a revived
  // shard flushes its deferred releases, so every lease a kill parked
  // must come home -- the audits below are the no-lease-lost oracle.
  for (std::size_t s = 0; s < stack.faulty.size(); ++s) {
    stack.faulty[s]->revive();
    router.probe(s);
  }
  for (std::deque<service::LeaseId>& leases : held)
    for (service::LeaseId lease : leases) router.release(lease);

  for (std::size_t s = 0; s < stack.servers.size(); ++s) {
    const std::vector<std::string> violations = stack.servers[s]->audit();
    if (!violations.empty())
      throw std::runtime_error("cluster_sim: shard " + std::to_string(s) +
                               " audit failed after replay: " +
                               violations.front());
  }
  if (router.scatter_leases() != 0)
    throw std::runtime_error(
        "cluster_sim: " + std::to_string(router.scatter_leases()) +
        " scatter leases outstanding after replay");
  if (router.pending_releases() != 0)
    throw std::runtime_error(
        "cluster_sim: " + std::to_string(router.pending_releases()) +
        " deferred releases undelivered after full recovery");

  const service::ServiceStats stats = router.stats();
  outcome.requests = stats.requests;
  outcome.request_hits = stats.request_hits;
  outcome.evictions = stats.evictions;
  outcome.rejected_full = stats.rejected_full;
  for (const auto& server : stack.servers) {
    outcome.resident.push_back(server->resident_files());
    std::sort(outcome.resident.back().begin(), outcome.resident.back().end());
  }
  const service::MetricsSnapshot metrics = router.metrics();
  for (const auto& [name, value] : metrics.counters) {
    if (name == "grid.acquire.single") outcome.single_acquires = value;
    if (name == "grid.acquire.scatter") outcome.scatter_acquires = value;
    if (name == "grid.acquire.rollback") outcome.rollbacks = value;
    if (name == "grid.acquire.rerouted") outcome.rerouted = value;
    if (name == "grid.shard.down") outcome.shard_down_events = value;
    if (name == "grid.shard.recovered") outcome.shard_recoveries = value;
  }
  return outcome;
}

std::optional<std::string> check_cluster_equivalence(
    const SchedInstance& instance, const ServiceConfig& config,
    const cluster::ClusterConfig& cluster, const FaultPlan& faults) {
  const ClusterOutcome serial =
      run_cluster_schedule(instance, config, cluster, false, faults);
  const ClusterOutcome conc =
      run_cluster_schedule(instance, config, cluster, true, faults);

  const auto dump = [&](const char* why) {
    std::ostringstream out;
    out << "concurrent router diverged from serial replay (" << why
        << ", shards=" << cluster.shards
        << " placement=" << cluster::to_string(cluster.placement)
        << " wave=" << instance.wave << " faults=" << faults.events.size()
        << ")\n--- serial ---\n"
        << to_string(serial) << "--- concurrent ---\n"
        << to_string(conc);
    return out.str();
  };

  if (instance.wave <= 1) {
    // Sequential arrival on both sides: the replays must be bit-identical.
    if (serial == conc) return std::nullopt;
    return dump("strict");
  }

  // wave > 1: per-shard admission order within a wave is interleaving-
  // dependent by design (scatter sub-acquires race the rest of the wave),
  // so hits, evictions and residency may legitimately differ. What must
  // still hold under any interleaving:
  //  - routing is a pure function of the request, so the single/scatter
  //    split, sub-request totals, and rollback count are fixed;
  //  - the capacity floor makes every admission feasible in any order, so
  //    each wave's multiset of (client, status) is fixed.
  if (serial.single_acquires != conc.single_acquires ||
      serial.scatter_acquires != conc.scatter_acquires ||
      serial.rollbacks != conc.rollbacks)
    return dump("placement counters");
  if (serial.requests != conc.requests) return dump("sub-request total");
  // Faults are applied at the same wave boundaries in both replays and
  // probe_ms = 0 keeps routing interleaving-independent, so each
  // request's plan -- and with it the reroute count -- is a pure
  // function of (request, wave's killed set).
  if (serial.rerouted != conc.rerouted) return dump("reroute count");
  // The down/recovered transition COUNTS are not interleaving-invariant
  // at wave > 1: whether a killed shard crosses down_threshold depends
  // on how much traffic (acquires plus deferred-release flushes) happens
  // to target it before the revive, and that varies with grant order.
  // What must hold in EACH replay on its own:
  //  - the end-of-replay revive + probe sweep recovers every down
  //    shard, so the transition counts balance exactly;
  //  - a down transition needs a kill event to cause it, so the count
  //    is bounded by the plan's kills.
  std::size_t kills = 0;
  for (const FaultEvent& event : faults.events) kills += event.kill ? 1 : 0;
  for (const ClusterOutcome* o : {&serial, &conc}) {
    if (o->shard_down_events != o->shard_recoveries)
      return dump("unbalanced health transitions");
    if (o->shard_down_events > kills)
      return dump("down transitions exceed plan kills");
  }
  for (std::size_t start = 0; start < instance.ops.size();
       start += instance.wave) {
    const std::size_t end =
        std::min(instance.ops.size(), start + instance.wave);
    std::vector<std::pair<std::uint32_t, std::uint8_t>> a;
    std::vector<std::pair<std::uint32_t, std::uint8_t>> b;
    for (std::size_t i = start; i < end; ++i) {
      a.emplace_back(serial.grants[i].client, serial.grants[i].status);
      b.emplace_back(conc.grants[i].client, conc.grants[i].status);
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) return dump("wave status multiset");
  }
  return std::nullopt;
}

Trace cluster_instance_to_trace(const SchedInstance& instance,
                                const cluster::ClusterConfig& cluster,
                                const FaultPlan& faults) {
  Trace trace = sched_instance_to_trace(instance);
  // meta_value() reads the first entry per key, so rewrite the sched
  // trace's kind in place rather than appending a shadowed duplicate.
  for (auto& [key, value] : trace.meta)
    if (key == "kind") value = "cluster";
  trace.set_meta("shards", std::to_string(cluster.shards));
  trace.set_meta("placement", cluster::to_string(cluster.placement));
  trace.set_meta("vnodes", std::to_string(cluster.vnodes));
  std::ostringstream spill;
  spill << cluster.spill_threshold;
  trace.set_meta("spill_threshold", spill.str());
  if (!faults.empty()) {
    // down_threshold shapes the health-transition metrics the oracle
    // compares, so a faulted reproducer must pin it.
    trace.set_meta("down_threshold", std::to_string(cluster.down_threshold));
    std::ostringstream plan;
    for (std::size_t i = 0; i < faults.events.size(); ++i) {
      const FaultEvent& e = faults.events[i];
      if (i != 0) plan << ';';
      plan << e.wave << ':' << e.shard << ':'
           << (e.kill ? "kill" : "revive");
    }
    trace.set_meta("faults", plan.str());
  }
  return trace;
}

ClusterTraceParts cluster_instance_from_trace(const Trace& trace) {
  ClusterTraceParts parts;
  parts.instance = sched_instance_from_trace(trace);
  const std::string* shards = trace.meta_value("shards");
  const std::string* placement = trace.meta_value("placement");
  const std::string* vnodes = trace.meta_value("vnodes");
  const std::string* spill = trace.meta_value("spill_threshold");
  if (shards == nullptr || placement == nullptr || vnodes == nullptr ||
      spill == nullptr)
    throw std::runtime_error(
        "cluster reproducer needs shards/placement/vnodes/spill_threshold "
        "meta");
  parts.cluster.shards = static_cast<std::uint32_t>(std::stoul(*shards));
  parts.cluster.placement = cluster::parse_placement(*placement);
  parts.cluster.vnodes = static_cast<std::uint32_t>(std::stoul(*vnodes));
  parts.cluster.spill_threshold = std::stod(*spill);
  if (const std::string* threshold = trace.meta_value("down_threshold"))
    parts.cluster.down_threshold =
        static_cast<std::uint32_t>(std::stoul(*threshold));
  if (const std::string* plan = trace.meta_value("faults")) {
    std::istringstream in(*plan);
    std::string clause;
    while (std::getline(in, clause, ';')) {
      if (clause.empty()) continue;
      const std::size_t first = clause.find(':');
      const std::size_t second = clause.find(':', first + 1);
      if (first == std::string::npos || second == std::string::npos)
        throw std::runtime_error("cluster reproducer has a malformed "
                                 "faults clause: " +
                                 clause);
      FaultEvent event;
      event.wave = std::stoul(clause.substr(0, first));
      event.shard = static_cast<std::uint32_t>(
          std::stoul(clause.substr(first + 1, second - first - 1)));
      const std::string verb = clause.substr(second + 1);
      if (verb != "kill" && verb != "revive")
        throw std::runtime_error("cluster reproducer has a malformed "
                                 "faults clause: " +
                                 clause);
      event.kill = verb == "kill";
      parts.faults.events.push_back(event);
    }
  }
  return parts;
}

}  // namespace fbc::testing
