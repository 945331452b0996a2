// ReplacementPolicy: the interface every caching algorithm implements.
//
// admit() (cache/simulator.hpp) drives the protocol per arriving job r,
// for the simulator, the SRM, the bundle server and the adaptive policy's
// shadow caches alike:
//
//   1. on_job_arrival(r, cache)      -- observe every arrival (history
//                                       bookkeeping happens here);
//   2. if the cache already supports r:    on_request_hit(r, cache);
//   3. else, if r's missing files exceed free space:
//        select_victims(r, needed, cache)  -- the policy returns the files
//        to evict. It may return MORE than needed (OptFileBundle
//        reorganizes the whole cache); it must never return files of r
//        itself or pinned files, and the freed bytes must cover `needed`.
//   4. the step evicts the victims, loads r's missing files, then
//      calls on_files_loaded(r, loaded, cache);
//   5. after a miss, it loads prefetch(r, cache) into free space and
//      calls on_prefetched(loaded, cache).
//
// Policies are stateful and single-simulation: construct a fresh instance
// (or call reset()) per run.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>

#include "cache/cache.hpp"
#include "cache/metrics.hpp"
#include "cache/types.hpp"

namespace fbc {

/// Abstract cache replacement policy (see file comment for the protocol).
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Stable policy name used by the registry and in benchmark tables.
  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once for every arriving job, before hit/miss is resolved.
  virtual void on_job_arrival(const Request& request, const DiskCache& cache) {
    (void)request;
    (void)cache;
  }

  /// Called when the cache already supports `request` (a request-hit).
  virtual void on_request_hit(const Request& request, const DiskCache& cache) {
    (void)request;
    (void)cache;
  }

  /// Chooses files to evict so that at least `bytes_needed` bytes are
  /// freed. `bytes_needed` is > 0 and never exceeds what evicting every
  /// unpinned non-requested file would free. Returning extra victims is
  /// allowed; returning a file of `request`, a pinned file, or a
  /// non-resident file is a contract violation (admit() throws).
  [[nodiscard]] virtual std::vector<FileId> select_victims(
      const Request& request, Bytes bytes_needed, const DiskCache& cache) = 0;

  /// Called after admit() loads `loaded` (the files of `request` that
  /// were missing) into the cache.
  virtual void on_files_loaded(const Request& request,
                               std::span<const FileId> loaded,
                               const DiskCache& cache) {
    (void)request;
    (void)loaded;
    (void)cache;
  }

  /// Called when a resident file is evicted for any reason (victims chosen
  /// by this policy included). Lets bookkeeping policies drop per-file
  /// state.
  virtual void on_file_evicted(FileId id) { (void)id; }

  /// Called after admit() loads files returned by prefetch() into
  /// free space. `loaded` lists only the files actually inserted (already
  /// resident or non-fitting ones were skipped). Event-driven policies
  /// need this: prefetch is the one cache mutation not covered by
  /// on_files_loaded / on_file_evicted.
  virtual void on_prefetched(std::span<const FileId> loaded,
                             const DiskCache& cache) {
    (void)loaded;
    (void)cache;
  }

  /// Optional prefetch hook, called after `request` has been serviced.
  /// The returned files are loaded in order as long as they fit in the
  /// current free space (files that do not fit, or are already resident,
  /// are skipped); prefetched bytes are charged to the metrics as moved
  /// data. OptFileBundle uses this for Algorithm 2 step 3, which loads
  /// F(Opt) \ F(C) -- files of valuable historical requests that are not
  /// resident (only possible under Full/Window history truncation).
  [[nodiscard]] virtual std::vector<FileId> prefetch(const Request& request,
                                                     const DiskCache& cache) {
    (void)request;
    (void)cache;
    return {};
  }

  /// Queue scheduling hook: picks which queued request to serve next.
  /// `queue` is non-empty; the default is FCFS (index 0). OptFileBundle
  /// overrides this with highest-adjusted-relative-value-first (paper §5.3).
  [[nodiscard]] virtual std::size_t choose_next(
      std::span<const Request> queue, const DiskCache& cache) {
    (void)queue;
    (void)cache;
    return 0;
  }

  /// Age-aware variant used by the sliding queue (paper §5.2: a fair
  /// scheduler "avoids request lockout but at the same time minimizes the
  /// byte miss ratio"). `ages[i]` is how many services job i has already
  /// waited through. Defaults to ignoring ages.
  [[nodiscard]] virtual std::size_t choose_next(
      std::span<const Request> queue, std::span<const double> ages,
      const DiskCache& cache) {
    (void)ages;
    return choose_next(queue, cache);
  }

  /// Cumulative selection-effort counters, or nullptr when the policy does
  /// not instrument its replacement decisions. admit() snapshots
  /// this around select_victims and charges the delta to CacheMetrics.
  [[nodiscard]] virtual const SelectionCost* selection_cost() const {
    return nullptr;
  }

  /// Clears all per-run state, making the instance reusable.
  virtual void reset() {}
};

using PolicyPtr = std::unique_ptr<ReplacementPolicy>;

}  // namespace fbc
