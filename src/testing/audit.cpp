#include "testing/audit.hpp"

#include <unordered_set>

namespace fbc::testing {

InvariantAuditor::InvariantAuditor(const FileCatalog& catalog,
                                   std::string subject)
    : catalog_(&catalog), subject_(std::move(subject)) {}

InvariantAuditor::Snapshot InvariantAuditor::snapshot(
    const CacheMetrics& metrics) noexcept {
  Snapshot s;
  s.jobs = metrics.jobs();
  s.request_hits = metrics.request_hits();
  s.files_requested = metrics.files_requested();
  s.file_hits = metrics.file_hits();
  s.bytes_requested = metrics.bytes_requested();
  s.bytes_missed = metrics.bytes_missed();
  s.evictions = metrics.evictions();
  s.bytes_evicted = metrics.bytes_evicted();
  s.bytes_prefetched = metrics.bytes_prefetched();
  s.unserviceable = metrics.unserviceable();
  return s;
}

void InvariantAuditor::report(const std::string& oracle,
                              const std::string& detail) {
  violations_.push_back(Violation{oracle, subject_, detail});
}

void InvariantAuditor::audit_cache_state(const DiskCache& cache,
                                         const std::string& where) {
  if (cache.used_bytes() > cache.capacity()) {
    report("sim.capacity", where + ": used " +
                               std::to_string(cache.used_bytes()) +
                               " exceeds capacity " +
                               std::to_string(cache.capacity()));
  }
  Bytes recomputed = 0;
  Bytes pinned_recomputed = 0;
  std::size_t pinned_count = 0;
  std::unordered_set<FileId> seen;
  for (FileId id : cache.resident_files()) {
    if (!catalog_->valid(id)) {
      report("sim.capacity",
             where + ": resident id " + std::to_string(id) +
                 " is not in the catalog");
      continue;
    }
    if (!seen.insert(id).second) {
      report("sim.capacity",
             where + ": file " + std::to_string(id) + " resident twice");
    }
    recomputed += catalog_->size_of(id);
    if (cache.pinned(id)) {
      report("sim.pin", where + ": file " + std::to_string(id) +
                            " left pinned between jobs");
      ++pinned_count;
      pinned_recomputed += catalog_->size_of(id);
    }
  }
  if (recomputed != cache.used_bytes()) {
    report("sim.capacity",
           where + ": used_bytes " + std::to_string(cache.used_bytes()) +
               " != recomputed resident sum " + std::to_string(recomputed));
  }
  // The cache maintains its pinned set incrementally; tie it out against
  // the per-file pin flags.
  if (pinned_count != cache.pinned_files().size() ||
      pinned_recomputed != cache.pinned_bytes()) {
    report("sim.capacity",
           where + ": pinned set (" +
               std::to_string(cache.pinned_files().size()) + " files, " +
               std::to_string(cache.pinned_bytes()) +
               " bytes) != recount (" + std::to_string(pinned_count) +
               " files, " + std::to_string(pinned_recomputed) + " bytes)");
  }
}

void InvariantAuditor::on_job_start(const Request& request,
                                    const DiskCache& cache) {
  used_before_ = cache.used_bytes();
  const std::vector<FileId> missing = cache.missing_files(request);
  missing_before_ = catalog_->bundle_bytes(missing);
  files_resident_before_ = request.size() - missing.size();
  job_evictions_ = 0;
  job_evicted_bytes_ = 0;
}

void InvariantAuditor::on_eviction(FileId id, const DiskCache& cache) {
  if (cache.contains(id)) {
    report("sim.eviction",
           "evicted file " + std::to_string(id) + " is still resident");
  }
  ++job_evictions_;
  ++total_evictions_;
  if (catalog_->valid(id)) job_evicted_bytes_ += catalog_->size_of(id);
}

void InvariantAuditor::on_job_serviced(const Request& request,
                                       const DiskCache& cache,
                                       const CacheMetrics& metrics) {
  ++jobs_;
  audit_cache_state(cache, "job " + std::to_string(jobs_));

  const Snapshot before = last_[&metrics];  // zero-initialized on first use
  const Snapshot now = snapshot(metrics);
  last_[&metrics] = now;
  const std::string job = "job " + std::to_string(jobs_);

  const Bytes request_bytes = catalog_->request_bytes(request);
  if (now.unserviceable != before.unserviceable) {
    // Skipped job: the only legal counter change is unserviceable += 1.
    if (now.unserviceable != before.unserviceable + 1) {
      report("sim.accounting", job + ": unserviceable jumped by more than 1");
    }
    if (request_bytes <= cache.capacity()) {
      report("sim.accounting",
             job + ": request of " + std::to_string(request_bytes) +
                 " bytes marked unserviceable but fits in capacity " +
                 std::to_string(cache.capacity()));
    }
    if (now.jobs != before.jobs || now.bytes_requested != before.bytes_requested ||
        now.evictions != before.evictions) {
      report("sim.accounting",
             job + ": unserviceable job also changed serviced-job counters");
    }
    if (cache.used_bytes() != used_before_ || job_evictions_ != 0) {
      report("sim.accounting",
             job + ": unserviceable job mutated the cache");
    }
    return;
  }

  if (now.jobs != before.jobs + 1) {
    report("sim.accounting", job + ": jobs counter advanced by " +
                                 std::to_string(now.jobs - before.jobs));
  }
  if (now.bytes_requested - before.bytes_requested != request_bytes) {
    report("sim.accounting",
           job + ": bytes_requested delta " +
               std::to_string(now.bytes_requested - before.bytes_requested) +
               " != bundle size " + std::to_string(request_bytes));
  }
  if (now.bytes_missed - before.bytes_missed != missing_before_) {
    report("sim.accounting",
           job + ": bytes_missed delta " +
               std::to_string(now.bytes_missed - before.bytes_missed) +
               " != missing bytes observed before service " +
               std::to_string(missing_before_));
  }
  if (now.files_requested - before.files_requested != request.size()) {
    report("sim.accounting", job + ": files_requested delta != bundle count");
  }
  if (now.file_hits - before.file_hits != files_resident_before_) {
    report("sim.accounting",
           job + ": file_hits delta " +
               std::to_string(now.file_hits - before.file_hits) +
               " != resident file count observed before service " +
               std::to_string(files_resident_before_));
  }
  const std::uint64_t expected_hit = missing_before_ == 0 ? 1 : 0;
  if (now.request_hits - before.request_hits != expected_hit) {
    report("sim.accounting", job + ": request_hits delta wrong (missing " +
                                 std::to_string(missing_before_) +
                                 " bytes before service)");
  }
  if (now.evictions - before.evictions != job_evictions_ ||
      now.bytes_evicted - before.bytes_evicted != job_evicted_bytes_) {
    report("sim.accounting",
           job + ": eviction counters disagree with observed evictions (" +
               std::to_string(job_evictions_) + " victims, " +
               std::to_string(job_evicted_bytes_) + " bytes)");
  }

  // Residency: the whole bundle must be in the cache once the job is done.
  for (FileId id : request.files) {
    if (!cache.contains(id)) {
      report("sim.residency", job + ": serviced bundle file " +
                                  std::to_string(id) + " not resident");
      break;
    }
  }

  // Byte conservation: loads (demand + prefetch) minus evictions must
  // explain the used-bytes change exactly.
  const Bytes prefetched = now.bytes_prefetched - before.bytes_prefetched;
  if (cache.used_bytes() + job_evicted_bytes_ !=
      used_before_ + missing_before_ + prefetched) {
    report("sim.accounting",
           job + ": byte conservation violated (used " +
               std::to_string(used_before_) + " -> " +
               std::to_string(cache.used_bytes()) + ", missing " +
               std::to_string(missing_before_) + ", prefetched " +
               std::to_string(prefetched) + ", evicted " +
               std::to_string(job_evicted_bytes_) + ")");
  }
}

void InvariantAuditor::on_run_complete(const DiskCache& cache,
                                       const SimulationResult& result) {
  audit_cache_state(cache, "run end");
  if (result.victims != total_evictions_) {
    report("sim.accounting",
           "run end: result.victims " + std::to_string(result.victims) +
               " != observed evictions " + std::to_string(total_evictions_));
  }
}

}  // namespace fbc::testing
