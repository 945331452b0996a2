// InvariantAuditor: a SimulationObserver that independently re-checks the
// simulator's service-model guarantees after every admission.
//
// The simulator already enforces the policy contract inline; the auditor
// is the *differential* counterpart -- it recomputes everything from
// scratch (resident set sums, per-job hit/miss deltas, eviction bytes)
// and flags any disagreement with the cache or metrics objects, so a bug
// in either accounting path is caught by the other.
//
// Invariants audited after every job:
//   * capacity: used_bytes() <= capacity() and used_bytes() equals the
//     recomputed sum of resident file sizes; no duplicate resident ids;
//     pinned_files()/pinned_bytes() match a recount of the pinned files;
//   * pinning: no file is left pinned once a job completes;
//   * residency: a serviced (non-unserviceable) job's whole bundle is
//     resident when it completes;
//   * accounting: metric deltas (jobs, hits, bytes requested/missed,
//     files requested/hit, evictions, prefetch bytes) match the observed
//     before/after cache states exactly.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/simulator.hpp"

namespace fbc::testing {

/// One detected oracle violation. `oracle` is a stable machine-readable
/// id ("sim.capacity", "select.bound", ...); `subject` names the policy
/// or greedy variant under test; `detail` is the human explanation.
struct Violation {
  std::string oracle;
  std::string subject;
  std::string detail;

  [[nodiscard]] std::string to_string() const {
    return oracle + " [" + subject + "]: " + detail;
  }
};

/// Re-checks simulator invariants after every admission (see file
/// comment). Attach with Simulator::set_observer(); violations accumulate
/// instead of throwing so one run reports every inconsistency it hits.
class InvariantAuditor : public SimulationObserver {
 public:
  /// `subject` labels the policy under test in emitted violations.
  InvariantAuditor(const FileCatalog& catalog, std::string subject);

  void on_job_start(const Request& request, const DiskCache& cache) override;
  void on_eviction(FileId id, const DiskCache& cache) override;
  void on_job_serviced(const Request& request, const DiskCache& cache,
                       const CacheMetrics& metrics) override;
  void on_run_complete(const DiskCache& cache,
                       const SimulationResult& result) override;

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::uint64_t jobs_audited() const noexcept { return jobs_; }

 private:
  /// Counter snapshot of one CacheMetrics object, for delta checks.
  struct Snapshot {
    std::uint64_t jobs = 0;
    std::uint64_t request_hits = 0;
    std::uint64_t files_requested = 0;
    std::uint64_t file_hits = 0;
    Bytes bytes_requested = 0;
    Bytes bytes_missed = 0;
    std::uint64_t evictions = 0;
    Bytes bytes_evicted = 0;
    Bytes bytes_prefetched = 0;
    std::uint64_t unserviceable = 0;
  };
  static Snapshot snapshot(const CacheMetrics& metrics) noexcept;

  void report(const std::string& oracle, const std::string& detail);
  void audit_cache_state(const DiskCache& cache, const std::string& where);

  const FileCatalog* catalog_;
  std::string subject_;
  std::vector<Violation> violations_;
  std::uint64_t jobs_ = 0;

  // Per-job before-state, captured in on_job_start.
  Bytes used_before_ = 0;
  Bytes missing_before_ = 0;
  std::size_t files_resident_before_ = 0;
  std::uint64_t job_evictions_ = 0;
  Bytes job_evicted_bytes_ = 0;
  std::uint64_t total_evictions_ = 0;

  // Last-seen counters per metrics object (warm-up vs measured).
  std::unordered_map<const CacheMetrics*, Snapshot> last_;
};

}  // namespace fbc::testing
