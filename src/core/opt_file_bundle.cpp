#include "core/opt_file_bundle.hpp"

#include <algorithm>
#include <utility>

namespace fbc {

OptFileBundlePolicy::OptFileBundlePolicy(const FileCatalog& catalog,
                                         OptFileBundleConfig config)
    : catalog_(&catalog), config_(config), history_(catalog, config.history) {
  if (config_.engine == SelectEngine::Incremental) {
    history_.set_journaling(true);
    incremental_ = std::make_unique<IncrementalSelector>(catalog, history_);
  }
}

std::string OptFileBundlePolicy::name() const {
  std::string label = "optfb";
  if (config_.variant != SelectVariant::Resort)
    label += "-" + to_string(config_.variant);
  if (config_.history.mode != HistoryMode::CacheResident)
    label += "-" + to_string(config_.history.mode);
  if (config_.value_model == ValueModel::BytesWeighted) label += "-bytes";
  if (config_.engine == SelectEngine::Incremental) label += "-inc";
  return label;
}

void OptFileBundlePolicy::on_job_arrival(const Request& request,
                                         const DiskCache&) {
  // Algorithm 2 step 4 (we update L(R) at arrival; the ordering relative
  // to the selection is immaterial because the incoming request's files
  // are reserved outside the selection budget anyway).
  double weight = 1.0;
  if (config_.value_model == ValueModel::BytesWeighted) {
    weight = static_cast<double>(catalog_->request_bytes(request)) /
             static_cast<double>(1024 * 1024);
  }
  history_.observe(request, weight);
}

std::vector<FileId> OptFileBundlePolicy::select_victims(const Request& request,
                                                        Bytes bytes_needed,
                                                        const DiskCache& cache) {
  (void)bytes_needed;  // the reorganization below frees at least this much

  // Algorithm 2 steps 1-2: reserve space for the incoming bundle and pick
  // the best set of historical requests for the remaining budget. We
  // reserve the *whole* bundle (not just the missing part): the resident
  // part of F(r_new) is pinned and stays, so counting it in the budget
  // would overcommit the cache.
  // Files pinned by other in-flight jobs (multi-slot SRM, cluster nodes)
  // cannot be evicted: they stay regardless, so they are free to the
  // selection but their bytes shrink the budget.
  reserved_.assign(request.files.begin(), request.files.end());
  Bytes pinned_bytes = 0;
  for (FileId id : cache.pinned_files()) {
    if (!request.contains(id)) {
      reserved_.push_back(id);
      pinned_bytes += catalog_->size_of(id);
    }
  }

  const Bytes bundle = catalog_->request_bytes(request);
  const Bytes reserved_bytes = bundle + pinned_bytes;
  const Bytes budget = reserved_bytes < cache.capacity()
                           ? cache.capacity() - reserved_bytes
                           : 0;

  ++cost_.decisions;
  if (config_.engine == SelectEngine::Incremental) {
    IncrementalSelector::Selection selection =
        incremental_->select(request, reserved_, budget, config_.variant,
                             cache, &cost_, std::move(last_selection_));
    last_candidates_ = selection.candidate_count;
    last_selection_ = std::move(selection.result);
  } else {
    std::vector<const HistoryEntry*> candidates =
        history_.candidates(cache, &request);
    last_candidates_ = candidates.size();
    cost_.candidates_scanned += history_.distinct_requests();

    // Stability: OptCacheSelect breaks ranking ties by item index, so list
    // the requests currently supported by the cache first. Without this,
    // near-tied values make successive decisions flip between equivalent
    // bundles, churning the cache (and, under Full/Window history with
    // prefetching, paying for the churn in moved bytes).
    std::stable_partition(
        candidates.begin(), candidates.end(),
        [&cache](const HistoryEntry* e) { return cache.supports(e->request); });

    std::vector<SelectionItem> items;
    items.reserve(candidates.size());
    for (const HistoryEntry* entry : candidates) {
      items.push_back(SelectionItem{&entry->request, entry->value});
    }

    OptCacheSelect selector(*catalog_, history_.degrees());
    last_selection_ =
        selector.select(items, budget, config_.variant, reserved_, &cost_);
  }
  const SelectionResult& keep = last_selection_;

  // Step 3 (inverted): everything resident that is neither selected, nor
  // part of the incoming bundle, nor pinned elsewhere is evicted. Stamp the
  // kept files, then walk the resident set once in its own order.
  ++keep_epoch_;
  if (keep_mark_.size() < catalog_->count())
    keep_mark_.resize(catalog_->count(), 0);
  for (FileId id : reserved_) keep_mark_[id] = keep_epoch_;
  for (FileId id : keep.files) keep_mark_[id] = keep_epoch_;
  std::vector<FileId> victims;
  for (FileId id : cache.resident_files()) {
    if (keep_mark_[id] != keep_epoch_) victims.push_back(id);
  }

  // Step 3 verbatim loads F(Opt) \ F(C); under untruncated history the
  // selection can include non-resident files, which we hand to the
  // simulator as prefetches after the admission completes.
  pending_prefetch_.clear();
  if (config_.prefetch_selected) {
    for (FileId id : keep.files) {
      if (!cache.contains(id)) pending_prefetch_.push_back(id);
    }
  }
  return victims;
}

void OptFileBundlePolicy::on_files_loaded(const Request&,
                                          std::span<const FileId> loaded,
                                          const DiskCache&) {
  if (incremental_ != nullptr) incremental_->on_files_loaded(loaded);
}

void OptFileBundlePolicy::on_file_evicted(FileId id) {
  if (incremental_ != nullptr) incremental_->on_file_evicted(id);
}

void OptFileBundlePolicy::on_prefetched(std::span<const FileId> loaded,
                                        const DiskCache&) {
  if (incremental_ != nullptr) incremental_->on_files_loaded(loaded);
}

std::vector<FileId> OptFileBundlePolicy::prefetch(const Request&,
                                                  const DiskCache&) {
  return std::exchange(pending_prefetch_, {});
}

std::size_t OptFileBundlePolicy::choose_next(std::span<const Request> queue,
                                             const DiskCache& cache) {
  return choose_next(queue, {}, cache);
}

std::size_t OptFileBundlePolicy::choose_next(std::span<const Request> queue,
                                             std::span<const double> ages,
                                             const DiskCache&) {
  // Serve the queued request of highest adjusted relative value (§5.3),
  // boosted by waiting time when aging is configured (lockout avoidance,
  // §5.2). The queued occurrence itself counts as one appearance.
  std::size_t best = 0;
  double best_value = -1.0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    double v = history_.relative_value(queue[i], /*extra_weight=*/1.0);
    if (config_.aging_factor > 0.0 && i < ages.size()) {
      v *= 1.0 + config_.aging_factor * ages[i];
    }
    if (v > best_value) {
      best_value = v;
      best = i;
    }
  }
  return best;
}

void OptFileBundlePolicy::reset() {
  history_.clear();
  if (incremental_ != nullptr) incremental_->reset();
  cost_ = SelectionCost{};
  last_selection_ = SelectionResult{};
  last_candidates_ = 0;
  pending_prefetch_.clear();
}

}  // namespace fbc
