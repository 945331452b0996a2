// Simulator: drives a job stream through a DiskCache under a
// ReplacementPolicy and produces CacheMetrics.
//
// This is the reproduction of the paper's `cacheSim` driver. It supports
// the two service disciplines evaluated in §5:
//   * FCFS           (queue_length == 1): jobs served in arrival order;
//   * batched queue  (queue_length == q > 1): q jobs are accumulated, then
//     the queue is drained by repeatedly letting the policy pick the next
//     request to serve ("serve the request of highest relative value in the
//     queue ... and repeat ... until it becomes empty", §5.3).
//
// Each job goes through admit(), the one per-request admission step
// (paper Algorithm 2) that the SRM, the bundle server and the adaptive
// policy's shadow caches run too: it validates victim lists against the
// policy contract, loads demand and prefetched files, and asserts the
// capacity invariant after every admission. The simulator adds only the
// warm-up split and the queue disciplines.
#pragma once

#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/catalog.hpp"
#include "cache/metrics.hpp"
#include "cache/policy.hpp"

namespace fbc {

/// How the admission queue is drained when queue_length > 1.
enum class QueueMode {
  /// Accumulate queue_length jobs, drain the whole batch in policy-chosen
  /// order, then admit the next batch (paper §5.3's description).
  Batch,
  /// Keep the queue topped up: after each service, one new job is
  /// admitted. Low-value requests can starve under value-based scheduling
  /// ("request lockout", §5.2) unless the policy applies aging.
  Sliding,
};

/// Configuration for one simulation run.
struct SimulatorConfig {
  /// Cache capacity in bytes. Required, > 0.
  Bytes cache_bytes = 0;
  /// Admission queue length; 1 means plain FCFS.
  std::size_t queue_length = 1;
  /// Number of leading jobs whose metrics are recorded separately as
  /// warm-up (cold-start misses would otherwise bias short runs).
  std::size_t warmup_jobs = 0;
  /// Drain discipline for queue_length > 1.
  QueueMode queue_mode = QueueMode::Batch;
};

/// Outcome of Simulator::run.
struct SimulationResult {
  /// Counters for the measured (post-warm-up) jobs.
  CacheMetrics metrics;
  /// Counters for the warm-up prefix.
  CacheMetrics warmup;
  /// Number of replacement decisions (select_victims invocations).
  std::uint64_t decisions = 0;
  /// Total victims evicted across all decisions.
  std::uint64_t victims = 0;
};

/// Thrown when a policy violates the ReplacementPolicy contract
/// (evicting pinned/requested/non-resident files or freeing too little).
class PolicyContractViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Passive observation hook for auditing or tracing a simulation from
/// outside the policy. The simulator invokes the callbacks below at fixed
/// protocol points; observers see the live cache and metrics objects and
/// must not mutate them. The invariant-audit fuzzer (`src/testing/`)
/// attaches an InvariantAuditor here to re-check capacity, pinning and
/// hit/miss accounting independently after every admission.
class SimulationObserver {
 public:
  virtual ~SimulationObserver() = default;

  /// Called at the start of servicing one job, before hit/miss resolution.
  virtual void on_job_start(const Request& request, const DiskCache& cache) {
    (void)request;
    (void)cache;
  }

  /// Called after each eviction performed on behalf of a replacement
  /// decision (the victim is already gone from `cache`).
  virtual void on_eviction(FileId id, const DiskCache& cache) {
    (void)id;
    (void)cache;
  }

  /// Called after one job has been fully serviced -- admission, metrics
  /// update and prefetch included -- or skipped as unserviceable.
  /// `metrics` is the counter object the job was recorded into (warm-up
  /// or measured).
  virtual void on_job_serviced(const Request& request, const DiskCache& cache,
                               const CacheMetrics& metrics) {
    (void)request;
    (void)cache;
    (void)metrics;
  }

  /// Called once when the whole run is complete.
  virtual void on_run_complete(const DiskCache& cache,
                               const SimulationResult& result) {
    (void)cache;
    (void)result;
  }
};

/// What one admit() call did.
struct AdmitOutcome {
  /// False when the bundle can never fit: only on_job_arrival and the
  /// unserviceable count happened, the cache is unchanged.
  bool serviceable = true;
  /// The whole bundle was resident on arrival.
  bool request_hit = false;
  /// A replacement decision (select_victims) was taken.
  bool decided = false;
  /// Files that decision evicted.
  std::size_t victims = 0;
  /// Bytes of the request that were missing (demand misses).
  Bytes missing_bytes = 0;
  /// Files loaded into the cache: the `demand_files` missing files of the
  /// request, then the prefetched ones.
  std::vector<FileId> fetched;
  std::size_t demand_files = 0;

  [[nodiscard]] std::span<const FileId> demand() const noexcept {
    return std::span(fetched).first(demand_files);
  }
  [[nodiscard]] std::span<const FileId> prefetched() const noexcept {
    return std::span(fetched).subspan(demand_files);
  }
};

/// The per-request admission step every driver runs (paper Algorithm 2;
/// the protocol in cache/policy.hpp): on_job_arrival; the unserviceable
/// check; on a hit, on_request_hit; on a miss, select_victims when the
/// missing bytes do not fit, each victim checked against the policy
/// contract and evicted, the missing files loaded, then the policy's
/// prefetch() loaded into free space. Counts go to `metrics` (the job,
/// evictions, prefetched bytes, selection cost); `observer`, when set,
/// sees each eviction. The step pins nothing: every policy exempts the
/// request's own files before it looks at pins, and a driver that holds
/// pins (the SRM's slots, the server's leases) takes them itself. Throws
/// PolicyContractViolation on a bad victim list.
AdmitOutcome admit(const Request& request, DiskCache& cache,
                   ReplacementPolicy& policy, CacheMetrics& metrics,
                   SimulationObserver* observer = nullptr);

/// Single-run simulation driver (see file comment).
class Simulator {
 public:
  /// Binds the simulator to a catalog and a policy; both must outlive it.
  Simulator(const SimulatorConfig& config, const FileCatalog& catalog,
            ReplacementPolicy& policy);

  /// Services `jobs` in order (or via the batched queue) and returns the
  /// accumulated metrics. May be called once per Simulator instance.
  SimulationResult run(std::span<const Request> jobs);

  /// Attaches an observer (nullptr detaches). Call before run(); the
  /// observer must outlive the run.
  void set_observer(SimulationObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Post-run cache inspection (e.g. tests asserting final contents).
  [[nodiscard]] const DiskCache& cache() const noexcept { return cache_; }

 private:
  void serve_one(const Request& request, CacheMetrics& metrics);

  SimulatorConfig config_;
  ReplacementPolicy* policy_;
  DiskCache cache_;
  SimulationResult result_;
  SimulationObserver* observer_ = nullptr;
  bool ran_ = false;
};

/// Convenience wrapper: constructs a Simulator and runs `jobs`, with an
/// optional observer attached for the duration of the run.
SimulationResult simulate(const SimulatorConfig& config,
                          const FileCatalog& catalog,
                          ReplacementPolicy& policy,
                          std::span<const Request> jobs,
                          SimulationObserver* observer = nullptr);

}  // namespace fbc
