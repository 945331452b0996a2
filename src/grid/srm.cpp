#include "grid/srm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "cache/simulator.hpp"
#include "util/log.hpp"

namespace fbc {

double SrmReport::throughput_jobs_per_hour() const noexcept {
  if (makespan_s <= 0.0) return 0.0;
  return static_cast<double>(outcomes.size()) / makespan_s * 3600.0;
}

StorageResourceManager::StorageResourceManager(const SrmConfig& config,
                                               const StorageBackend& mss,
                                               ReplacementPolicy& policy)
    : config_(config),
      mss_(&mss),
      policy_(&policy),
      cache_(config.cache_bytes, mss.catalog()) {
  if (config_.service_slots == 0)
    throw std::invalid_argument("SRM: service_slots must be >= 1");
  slots_.resize(config_.service_slots);
}

void StorageResourceManager::release_finished(double now) {
  for (Slot& slot : slots_) {
    if (!slot.pinned.empty() && slot.finish_s <= now) {
      for (FileId id : slot.pinned) cache_.unpin(id);
      slot.pinned.clear();
    }
  }
}

double StorageResourceManager::stage_files(const Request& request,
                                           JobOutcome& outcome,
                                           std::vector<FileId>& pinned) {
  auto pin_once = [&](FileId id) {
    cache_.pin(id);
    pinned.push_back(id);
  };
  // Pin the resident part of the bundle before any eviction decision, and
  // the files loaded for it after.
  for (FileId id : request.files) {
    if (cache_.contains(id)) pin_once(id);
  }
  const AdmitOutcome admitted = admit(request, cache_, *policy_, metrics_);
  for (FileId id : admitted.demand()) pin_once(id);

  outcome.request_hit = outcome.request_hit && admitted.request_hit;
  outcome.bytes_staged += mss_->catalog().bundle_bytes(admitted.fetched);
  return config_.transfers.stage_seconds(admitted.fetched, *mss_);
}

SrmReport StorageResourceManager::run(std::span<const GridJob> jobs) {
  SrmReport report;
  report.outcomes.resize(jobs.size());

  // Pending jobs in arrival order (the input precondition); served in
  // config order (FCFS keeps this order, SJF picks the smallest arrived
  // bundle at each slot-free instant).
  std::vector<std::size_t> pending(jobs.size());
  for (std::size_t i = 0; i < pending.size(); ++i) pending[i] = i;

  while (!pending.empty()) {
    // The next job starts on the slot that frees earliest.
    auto slot_it = std::min_element(
        slots_.begin(), slots_.end(),
        [](const Slot& a, const Slot& b) { return a.finish_s < b.finish_s; });
    Slot& slot = *slot_it;

    // Decision instant: the slot is free and at least one job has arrived.
    const double decision_s =
        std::max(slot.finish_s, jobs[pending.front()].arrival_s);

    // Choose among the jobs that have arrived by then.
    std::size_t chosen_pos = 0;
    if (config_.order == ServiceOrder::ShortestBundleFirst) {
      Bytes best_bytes = std::numeric_limits<Bytes>::max();
      for (std::size_t p = 0; p < pending.size(); ++p) {
        if (jobs[pending[p]].arrival_s > decision_s) break;  // sorted
        const Bytes bytes =
            mss_->catalog().request_bytes(jobs[pending[p]].request);
        if (bytes < best_bytes) {
          best_bytes = bytes;
          chosen_pos = p;
        }
      }
    }
    const std::size_t job_index = pending[chosen_pos];
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(chosen_pos));
    const GridJob& job = jobs[job_index];

    JobOutcome outcome;
    outcome.start_s = std::max(slot.finish_s, job.arrival_s);
    release_finished(outcome.start_s);

    const Bytes bundle_bytes = mss_->catalog().request_bytes(job.request);
    if (bundle_bytes > cache_.capacity()) {
      FBC_LOG(Warn) << "SRM: skipping unserviceable job "
                    << job.request.to_string();
      outcome.staged_s = outcome.start_s;
      outcome.finish_s = outcome.start_s;
      report.outcomes[job_index] = outcome;
      continue;
    }

    // With concurrent slots, the bundle must fit alongside every still-
    // running job's pinned working set; if it cannot, the job waits for
    // enough predecessors to complete. (Bytes pinned by the bundle itself
    // do not conflict: shared pinned files stay resident for free.)
    for (;;) {
      Bytes conflicting = 0;
      for (const Slot& s : slots_) {
        for (FileId id : s.pinned) {
          if (!job.request.contains(id))
            conflicting += mss_->catalog().size_of(id);
        }
      }
      if (bundle_bytes + conflicting <= cache_.capacity()) break;
      // Advance to the next completion strictly after `start`.
      double next_finish = std::numeric_limits<double>::infinity();
      for (const Slot& s : slots_) {
        if (!s.pinned.empty() && s.finish_s > outcome.start_s)
          next_finish = std::min(next_finish, s.finish_s);
      }
      if (!std::isfinite(next_finish))
        throw std::runtime_error(
            "SRM: job cannot fit alongside pinned working sets");
      outcome.start_s = next_finish;
      release_finished(outcome.start_s);
    }

    double stage = 0.0;
    std::vector<FileId> pinned;
    outcome.request_hit = true;  // until an admission misses
    if (job.model == ServiceModel::BundleAtATime) {
      stage = stage_files(job.request, outcome, pinned);
    } else {
      // One file at a time (paper §2): each file is staged and processed
      // as its own single-file request, serially; every file of the job
      // stays pinned until the job completes.
      for (FileId id : job.request.files) {
        Request single({id});
        stage += stage_files(single, outcome, pinned);
      }
    }

    outcome.staged_s = outcome.start_s + stage;
    outcome.finish_s = outcome.staged_s + job.service_s;
    slot.finish_s = outcome.finish_s;
    slot.pinned = std::move(pinned);
    // Single-slot mode releases immediately at the next job's start, which
    // reproduces the classic non-overlapping service discipline.

    report.response_s.add(outcome.finish_s - job.arrival_s);
    report.stage_s.add(stage);
    report.bytes_staged += outcome.bytes_staged;
    if (outcome.request_hit) ++report.request_hits;
    report.makespan_s = std::max(report.makespan_s, outcome.finish_s);
    report.outcomes[job_index] = outcome;
  }

  // Drain: release every outstanding pin.
  release_finished(std::numeric_limits<double>::infinity());
  return report;
}

}  // namespace fbc
