#include "cache/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/log.hpp"

namespace fbc {

Simulator::Simulator(const SimulatorConfig& config, const FileCatalog& catalog,
                     ReplacementPolicy& policy)
    : config_(config),
      policy_(&policy),
      cache_(config.cache_bytes, catalog) {
  if (config_.queue_length == 0)
    throw std::invalid_argument("Simulator: queue_length must be >= 1");
}

namespace {

[[noreturn, gnu::cold]] void contract_violation(
    const ReplacementPolicy& policy, const char* what) {
  throw PolicyContractViolation(policy.name() + ": " + what);
}

}  // namespace

AdmitOutcome admit(const Request& request, DiskCache& cache,
                   ReplacementPolicy& policy, CacheMetrics& metrics,
                   SimulationObserver* observer) {
  AdmitOutcome out;
  policy.on_job_arrival(request, cache);

  const FileCatalog& catalog = cache.catalog();
  const Bytes requested = catalog.request_bytes(request);
  if (requested > cache.capacity()) {
    // The bundle can never fit; the workload generators avoid this, but a
    // user-supplied trace may not.
    out.serviceable = false;
    metrics.record_unserviceable();
    return out;
  }

  out.fetched = cache.missing_files(request);
  out.demand_files = out.fetched.size();
  out.missing_bytes = catalog.bundle_bytes(out.fetched);
  metrics.record_job(requested, out.missing_bytes, request.size(),
                     request.size() - out.demand_files);
  if (out.fetched.empty()) {
    out.request_hit = true;
    policy.on_request_hit(request, cache);
    return out;
  }

  if (cache.free_bytes() < out.missing_bytes) {
    const Bytes needed = out.missing_bytes - cache.free_bytes();
    out.decided = true;
    const SelectionCost* counter = policy.selection_cost();
    const SelectionCost before =
        counter != nullptr ? *counter : SelectionCost{};
    const std::vector<FileId> victims =
        policy.select_victims(request, needed, cache);
    if (counter != nullptr) metrics.record_selection_cost(*counter - before);
    for (FileId victim : victims) {
      if (request.contains(victim))
        contract_violation(policy,
                           "tried to evict a file of the incoming request");
      if (cache.pinned(victim))
        contract_violation(policy, "tried to evict a pinned file");
      if (!cache.evict(victim))
        contract_violation(policy, "victim not resident (or listed twice)");
      metrics.record_eviction(catalog.size_of(victim));
      policy.on_file_evicted(victim);
      if (observer != nullptr) observer->on_eviction(victim, cache);
    }
    out.victims = victims.size();
    if (cache.free_bytes() < out.missing_bytes)
      contract_violation(policy, "victims freed insufficient space");
  }

  for (FileId id : out.fetched) cache.insert(id);
  policy.on_files_loaded(request, out.fetched, cache);

  // Speculative loads (Algorithm 2 step 3 under untruncated history):
  // admitted only into free space, charged as moved bytes.
  for (FileId id : policy.prefetch(request, cache)) {
    if (cache.contains(id)) continue;
    const Bytes size = catalog.size_of(id);
    if (size > cache.free_bytes()) continue;
    cache.insert(id);
    metrics.record_prefetch(size);
    out.fetched.push_back(id);
  }
  if (out.fetched.size() > out.demand_files)
    policy.on_prefetched(out.prefetched(), cache);
  assert(cache.used_bytes() <= cache.capacity());
  return out;
}

void Simulator::serve_one(const Request& request, CacheMetrics& metrics) {
  if (observer_ != nullptr) observer_->on_job_start(request, cache_);
  const AdmitOutcome out = admit(request, cache_, *policy_, metrics, observer_);
  if (!out.serviceable)
    FBC_LOG(Warn) << "skipping unserviceable request " << request.to_string()
                  << " ("
                  << format_bytes(cache_.catalog().request_bytes(request))
                  << " > cache " << format_bytes(cache_.capacity()) << ")";
  if (out.decided) ++result_.decisions;
  result_.victims += out.victims;
  if (observer_ != nullptr)
    observer_->on_job_serviced(request, cache_, metrics);
}

SimulationResult Simulator::run(std::span<const Request> jobs) {
  if (ran_) throw std::logic_error("Simulator::run: already ran");
  ran_ = true;

  std::size_t served = 0;
  auto metrics_for_next = [&]() -> CacheMetrics& {
    return served < config_.warmup_jobs ? result_.warmup : result_.metrics;
  };

  if (config_.queue_length <= 1) {
    for (const Request& job : jobs) {
      CacheMetrics& metrics = metrics_for_next();
      serve_one(job, metrics);
      metrics.record_queue_wait(0.0);
      ++served;
    }
    if (observer_ != nullptr) observer_->on_run_complete(cache_, result_);
    return result_;
  }

  // Queued service. Each queue entry remembers its arrival order so
  // scheduling fairness (queue waits, lockout) can be measured.
  struct Queued {
    Request request;
    std::size_t arrival;  ///< index in the submitted stream
  };
  std::size_t next = 0;
  std::vector<Queued> queue;
  std::vector<Request> requests;  // parallel view handed to the policy
  std::vector<double> ages;
  queue.reserve(config_.queue_length);

  auto admit_until_full = [&] {
    while (queue.size() < config_.queue_length && next < jobs.size()) {
      queue.push_back(Queued{jobs[next], next});
      ++next;
    }
  };
  auto serve_pick = [&] {
    requests.clear();
    ages.clear();
    for (const Queued& entry : queue) {
      requests.push_back(entry.request);
      // Age = how many services happened since this entry arrived and
      // could first have been served.
      ages.push_back(static_cast<double>(
          served > entry.arrival ? served - entry.arrival : 0));
    }
    const std::size_t pick = policy_->choose_next(requests, ages, cache_);
    if (pick >= queue.size())
      throw PolicyContractViolation(policy_->name() +
                                    ": choose_next index out of range");
    CacheMetrics& metrics = metrics_for_next();
    serve_one(queue[pick].request, metrics);
    metrics.record_queue_wait(ages[pick]);
    ++served;
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(pick));
  };

  if (config_.queue_mode == QueueMode::Batch) {
    // Accumulate a full batch, drain it completely, repeat (paper §5.3).
    while (next < jobs.size() || !queue.empty()) {
      admit_until_full();
      while (!queue.empty()) serve_pick();
    }
  } else {
    // Sliding window: top the queue up after every service.
    admit_until_full();
    while (!queue.empty()) {
      serve_pick();
      admit_until_full();
    }
  }
  if (observer_ != nullptr) observer_->on_run_complete(cache_, result_);
  return result_;
}

SimulationResult simulate(const SimulatorConfig& config,
                          const FileCatalog& catalog, ReplacementPolicy& policy,
                          std::span<const Request> jobs,
                          SimulationObserver* observer) {
  Simulator sim(config, catalog, policy);
  sim.set_observer(observer);
  return sim.run(jobs);
}

}  // namespace fbc
