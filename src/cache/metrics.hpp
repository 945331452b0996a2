// CacheMetrics: the performance counters the paper's evaluation reports.
//
// The headline metric is the *byte miss ratio* (paper §1.2): bytes that had
// to be moved into the cache divided by bytes requested. The paper also
// reports the average volume of data moved per request (Fig. 8) and
// discusses request throughput; all are derived from the counters here.
#pragma once

#include <cstdint>
#include <string>

#include "obs/histogram.hpp"
#include "util/bytes.hpp"

namespace fbc {

/// Per-arrival selection-effort counters, reported by policies that
/// instrument their replacement decision (see ReplacementPolicy::
/// selection_cost). Deterministic work counts, not wall-clock: they are
/// what the scaling bench and the CI perf guard compare across engines.
struct SelectionCost {
  /// Replacement decisions accounted for.
  std::uint64_t decisions = 0;
  /// History entries examined while building the candidate list.
  std::uint64_t candidates_scanned = 0;
  /// Entries whose adjusted relative value v'(r) was recomputed in full.
  std::uint64_t entries_rescored = 0;
  /// Heap pushes + pops performed by the Reference greedy's lazy heap.
  /// The incremental engine keeps no heap; it reports the same count,
  /// derived from its key changes.
  std::uint64_t heap_ops = 0;

  void merge(const SelectionCost& other) noexcept {
    decisions += other.decisions;
    candidates_scanned += other.candidates_scanned;
    entries_rescored += other.entries_rescored;
    heap_ops += other.heap_ops;
  }

  /// The effort counted since the snapshot `earlier` of the same counter.
  [[nodiscard]] SelectionCost operator-(
      const SelectionCost& earlier) const noexcept {
    return {decisions - earlier.decisions,
            candidates_scanned - earlier.candidates_scanned,
            entries_rescored - earlier.entries_rescored,
            heap_ops - earlier.heap_ops};
  }
};

/// Accumulated counters for one simulation run.
///
/// The simulator calls the record_* methods; consumers read the derived
/// ratio accessors. "Measured" jobs exclude the configured warm-up prefix.
class CacheMetrics {
 public:
  /// Records a serviced job: `requested` total bundle bytes, `missed` bytes
  /// that had to be fetched (0 for a request-hit), and the file-level
  /// counts backing the classic per-file hit ratio.
  void record_job(Bytes requested, Bytes missed, std::size_t files_requested,
                  std::size_t files_hit) noexcept;

  /// Records an eviction of `bytes`.
  void record_eviction(Bytes bytes) noexcept;

  /// Records `bytes` loaded speculatively (policy prefetch, not demanded
  /// by the job being serviced).
  void record_prefetch(Bytes bytes) noexcept;

  /// Records a job whose bundle can never fit in the cache (skipped).
  void record_unserviceable() noexcept;

  /// Accumulates one replacement decision's selection effort.
  void record_selection_cost(const SelectionCost& cost) noexcept;

  /// Records how many other services a queued job waited through before
  /// being served (0 under FCFS; grows when scheduling reorders it).
  void record_queue_wait(double services_waited) noexcept;

  // -- raw counters -------------------------------------------------------

  [[nodiscard]] std::uint64_t jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::uint64_t request_hits() const noexcept {
    return request_hits_;
  }
  [[nodiscard]] std::uint64_t files_requested() const noexcept {
    return files_requested_;
  }
  [[nodiscard]] std::uint64_t file_hits() const noexcept { return file_hits_; }
  [[nodiscard]] Bytes bytes_requested() const noexcept {
    return bytes_requested_;
  }
  [[nodiscard]] Bytes bytes_missed() const noexcept { return bytes_missed_; }
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }
  [[nodiscard]] Bytes bytes_evicted() const noexcept { return bytes_evicted_; }
  [[nodiscard]] std::uint64_t unserviceable() const noexcept {
    return unserviceable_;
  }
  [[nodiscard]] Bytes bytes_prefetched() const noexcept {
    return bytes_prefetched_;
  }
  /// Selection effort accumulated over all replacement decisions (all
  /// zeros when the policy does not report it).
  [[nodiscard]] const SelectionCost& selection_cost() const noexcept {
    return selection_cost_;
  }

  // -- per-decision selection-effort distributions ------------------------
  //
  // The totals above hide tail decisions; these histograms hold one
  // observation per replacement decision, so `fbcsim --obs` can report
  // p50/p95/p99 of the selection effort instead of only means.

  /// History entries examined, per decision.
  [[nodiscard]] const obs::Histogram& scanned_hist() const noexcept {
    return scanned_hist_;
  }
  /// Entries fully rescored, per decision.
  [[nodiscard]] const obs::Histogram& rescored_hist() const noexcept {
    return rescored_hist_;
  }
  /// Heap pushes + pops, per decision.
  [[nodiscard]] const obs::Histogram& heap_ops_hist() const noexcept {
    return heap_ops_hist_;
  }

  // -- derived metrics (paper §1.2) ---------------------------------------

  /// Fraction of jobs whose whole bundle was already resident.
  [[nodiscard]] double request_hit_ratio() const noexcept;

  /// Fraction of jobs that required at least one fetch.
  [[nodiscard]] double request_miss_ratio() const noexcept;

  /// Per-file hit ratio (the classic metric the paper argues is the wrong
  /// target for bundles).
  [[nodiscard]] double file_hit_ratio() const noexcept;

  /// Demand bytes fetched / bytes requested -- the paper's headline
  /// metric (§1.2: bytes of requested files not found in the cache).
  /// Speculative prefetch traffic is NOT included here; see
  /// moved_bytes_ratio().
  [[nodiscard]] double byte_miss_ratio() const noexcept;

  /// 1 - byte_miss_ratio().
  [[nodiscard]] double byte_hit_ratio() const noexcept;

  /// (demand + prefetch bytes moved into the cache) / bytes requested:
  /// the total-traffic counterpart of byte_miss_ratio().
  [[nodiscard]] double moved_bytes_ratio() const noexcept;

  /// Average bytes moved into the cache per serviced job, prefetches
  /// included (Fig. 8 metric).
  [[nodiscard]] double avg_bytes_moved_per_job() const noexcept;

  /// Mean queue wait in services (0 when never recorded).
  [[nodiscard]] double mean_queue_wait() const noexcept;

  /// Worst queue wait in services -- the lockout indicator.
  [[nodiscard]] double max_queue_wait() const noexcept;

  /// Merges another run's counters into this one (multi-seed aggregation).
  void merge(const CacheMetrics& other) noexcept;

  /// One-line human-readable summary.
  [[nodiscard]] std::string summary() const;

 private:
  std::uint64_t jobs_ = 0;
  std::uint64_t request_hits_ = 0;
  std::uint64_t files_requested_ = 0;
  std::uint64_t file_hits_ = 0;
  Bytes bytes_requested_ = 0;
  Bytes bytes_missed_ = 0;
  std::uint64_t evictions_ = 0;
  Bytes bytes_evicted_ = 0;
  Bytes bytes_prefetched_ = 0;
  std::uint64_t unserviceable_ = 0;
  SelectionCost selection_cost_;
  obs::Histogram scanned_hist_;
  obs::Histogram rescored_hist_;
  obs::Histogram heap_ops_hist_;
  std::uint64_t wait_count_ = 0;
  double wait_sum_ = 0.0;
  double wait_max_ = 0.0;
};

}  // namespace fbc
