// StorageResourceManager: the timed job-service loop of an SRM host.
//
// Where the cache Simulator measures byte ratios, the SRM measures *time*:
// each job arrives at some instant, waits for the server, has its missing
// files staged from the MSS (through the TransferModel's parallel
// streams), then runs for its processing time. This realizes the paper's
// future-work directions (§6): transfer- and processing-time-aware
// service, including the hybrid mix of one-file-at-a-time and
// bundle-at-a-time jobs.
#pragma once

#include <span>
#include <vector>

#include "cache/cache.hpp"
#include "cache/metrics.hpp"
#include "cache/policy.hpp"
#include "grid/backend.hpp"
#include "grid/transfer.hpp"
#include "util/stats.hpp"

namespace fbc {

/// How a job consumes its bundle (paper §2 service models).
enum class ServiceModel {
  BundleAtATime,  ///< all files must be resident simultaneously
  FileAtATime,    ///< files staged and processed one by one
};

/// One job submitted to the SRM.
struct GridJob {
  Request request;
  /// Submission instant, seconds from simulation start (non-decreasing
  /// across the job vector).
  double arrival_s = 0.0;
  /// CPU/processing time once the data is staged, seconds.
  double service_s = 0.0;
  ServiceModel model = ServiceModel::BundleAtATime;
};

/// Per-job outcome.
struct JobOutcome {
  double start_s = 0.0;     ///< when the SRM began staging
  double staged_s = 0.0;    ///< when all inputs were resident
  double finish_s = 0.0;    ///< when processing completed
  Bytes bytes_staged = 0;   ///< bytes moved from the MSS for this job
  bool request_hit = false; ///< whole bundle already resident at start
  /// finish - arrival: the response time the user experiences.
  [[nodiscard]] double response_s(double arrival_s) const noexcept {
    return finish_s - arrival_s;
  }
};

/// Aggregate service report.
struct SrmReport {
  /// outcomes[i] corresponds to jobs[i] regardless of service order.
  std::vector<JobOutcome> outcomes;
  RunningStats response_s;   ///< per-job response times
  RunningStats stage_s;      ///< per-job staging times
  double makespan_s = 0.0;   ///< completion time of the last job
  Bytes bytes_staged = 0;    ///< total data moved from the MSS
  std::uint64_t request_hits = 0;

  /// Serviced jobs per hour of simulated time.
  [[nodiscard]] double throughput_jobs_per_hour() const noexcept;
};

/// Order in which waiting jobs are started (paper §1.1: "The requests are
/// serviced in some order: first come first serve (FCFS), shortest job
/// first (SJF), etc.").
enum class ServiceOrder {
  Fcfs,               ///< arrival order
  ShortestBundleFirst,///< smallest total bundle bytes among arrived jobs
};

/// Configuration of the SRM service loop.
struct SrmConfig {
  Bytes cache_bytes = 0;
  TransferModel transfers = {};
  /// Number of jobs that may be in service simultaneously. With more than
  /// one slot, the working sets of all in-flight jobs are pinned in the
  /// cache for their whole duration (staging + processing) -- the paper's
  /// §6 "duration of time to retain the file in the cache for processing"
  /// extension -- and replacement decisions must work around them.
  std::size_t service_slots = 1;
  /// Non-preemptive start order among jobs that have arrived.
  ServiceOrder order = ServiceOrder::Fcfs;
};

/// SRM service loop: jobs start in arrival order on the next free service
/// slot; the disk cache persists across jobs under the supplied
/// replacement policy.
class StorageResourceManager {
 public:
  /// `mss` and `policy` must outlive the SRM.
  StorageResourceManager(const SrmConfig& config, const StorageBackend& mss,
                         ReplacementPolicy& policy);

  /// Services `jobs` (sorted by arrival_s) and returns the timing report.
  SrmReport run(std::span<const GridJob> jobs);

  [[nodiscard]] const DiskCache& cache() const noexcept { return cache_; }

 private:
  /// One occupied service slot.
  struct Slot {
    double finish_s = 0.0;
    std::vector<FileId> pinned;  ///< pins released when the job completes
  };

  /// Admits the request through the shared admit() step, pins its files
  /// (recorded in `pinned`), and returns the staging makespan of the
  /// files it loaded, prefetched ones included. Byte accounting and the
  /// hit flag go to `outcome`.
  double stage_files(const Request& request, JobOutcome& outcome,
                     std::vector<FileId>& pinned);

  /// Releases every slot whose job has completed by `now`.
  void release_finished(double now);

  SrmConfig config_;
  const StorageBackend* mss_;
  ReplacementPolicy* policy_;
  DiskCache cache_;
  /// admit()'s counters; the report keeps its own per-job accounting.
  CacheMetrics metrics_;
  std::vector<Slot> slots_;
};

}  // namespace fbc
