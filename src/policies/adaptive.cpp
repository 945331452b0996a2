#include "policies/adaptive.hpp"

#include <stdexcept>
#include <utility>

#include "cache/simulator.hpp"
#include "util/rng.hpp"

namespace fbc {

AdaptivePolicy::AdaptivePolicy(const FileCatalog& catalog,
                               AdaptiveConfig config,
                               std::vector<AdaptiveContender> contenders,
                               OracleFactory oracle_factory)
    : catalog_(&catalog),
      config_(config),
      contenders_(std::move(contenders)),
      oracle_factory_(std::move(oracle_factory)) {
  if (contenders_.empty()) {
    throw std::invalid_argument("AdaptivePolicy: contenders must be non-empty");
  }
  if (config_.sample_period == 0) config_.sample_period = 1;
  if (config_.phase_jobs == 0) config_.phase_jobs = 1;
  for (const AdaptiveContender& c : contenders_) {
    if (!c.live || !c.shadow) {
      throw std::invalid_argument(
          "AdaptivePolicy: every contender needs live + shadow instances");
    }
  }
  scores_.assign(contenders_.size(), 0.0);
}

std::string AdaptivePolicy::name() const { return "adaptive"; }

bool AdaptivePolicy::sampled(const Request& request) const {
  if (config_.sample_period <= 1) return true;
  // Hash sampling keyed by request identity: the same bundle always lands
  // in (or out of) the sample regardless of arrival position, and the mix
  // through SplitMix64 decorrelates the sample set from the hash's use as
  // a history key.
  SplitMix64 mix(static_cast<std::uint64_t>(RequestHash{}(request)) ^
                 config_.seed);
  return mix() % config_.sample_period == 0;
}

void AdaptivePolicy::ensure_duel_state(const DiskCache& cache) {
  if (!shadows_.empty()) return;
  shadows_.reserve(contenders_.size());
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    shadows_.push_back(
        std::make_unique<DiskCache>(cache.capacity(), *catalog_));
  }
  if (oracle_factory_) oracle_ = oracle_factory_(cache.capacity());
}

void AdaptivePolicy::elect() {
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores_.size(); ++i) {
    if (scores_[i] > scores_[best]) best = i;
  }
  leader_ = best;
  winner_history_.push_back(best);
  for (double& s : scores_) s = 0.0;
}

void AdaptivePolicy::duel(const Request& request, const DiskCache& cache) {
  ensure_duel_state(cache);
  if (arrivals_ > 0 && arrivals_ % config_.phase_jobs == 0) elect();
  ++arrivals_;
  if (!sampled(request)) return;
  const bool oracle_hit = oracle_ ? oracle_(request) : false;
  const double weight = (oracle_hit ? 2.0 : 1.0) *
                        static_cast<double>(catalog_->request_bytes(request));
  for (std::size_t i = 0; i < contenders_.size(); ++i) {
    if (admit(request, *shadows_[i], *contenders_[i].shadow, shadow_metrics_)
            .request_hit)
      scores_[i] += weight;
  }
}

void AdaptivePolicy::on_job_arrival(const Request& request,
                                    const DiskCache& cache) {
  duel(request, cache);
  for (AdaptiveContender& c : contenders_) c.live->on_job_arrival(request, cache);
}

void AdaptivePolicy::on_request_hit(const Request& request,
                                    const DiskCache& cache) {
  for (AdaptiveContender& c : contenders_) c.live->on_request_hit(request, cache);
}

std::vector<FileId> AdaptivePolicy::select_victims(const Request& request,
                                                   Bytes bytes_needed,
                                                   const DiskCache& cache) {
  ReplacementPolicy& lead = *contenders_[leader_].live;
  const SelectionCost* counter = lead.selection_cost();
  const SelectionCost before = counter != nullptr ? *counter : SelectionCost{};
  std::vector<FileId> victims =
      lead.select_victims(request, bytes_needed, cache);
  SelectionCost spent =
      counter != nullptr ? *counter - before : SelectionCost{};
  spent.decisions = 1;
  cost_.merge(spent);
  return victims;
}

void AdaptivePolicy::on_files_loaded(const Request& request,
                                     std::span<const FileId> loaded,
                                     const DiskCache& cache) {
  for (AdaptiveContender& c : contenders_) {
    c.live->on_files_loaded(request, loaded, cache);
  }
}

void AdaptivePolicy::on_file_evicted(FileId id) {
  for (AdaptiveContender& c : contenders_) c.live->on_file_evicted(id);
}

void AdaptivePolicy::on_prefetched(std::span<const FileId> loaded,
                                   const DiskCache& cache) {
  for (AdaptiveContender& c : contenders_) c.live->on_prefetched(loaded, cache);
}

std::vector<FileId> AdaptivePolicy::prefetch(const Request& request,
                                             const DiskCache& cache) {
  return contenders_[leader_].live->prefetch(request, cache);
}

std::size_t AdaptivePolicy::choose_next(std::span<const Request> queue,
                                        const DiskCache& cache) {
  return contenders_[leader_].live->choose_next(queue, cache);
}

std::size_t AdaptivePolicy::choose_next(std::span<const Request> queue,
                                        std::span<const double> ages,
                                        const DiskCache& cache) {
  return contenders_[leader_].live->choose_next(queue, ages, cache);
}

const SelectionCost* AdaptivePolicy::selection_cost() const { return &cost_; }

void AdaptivePolicy::reset() {
  for (AdaptiveContender& c : contenders_) {
    c.live->reset();
    c.shadow->reset();
  }
  shadows_.clear();
  oracle_ = nullptr;
  scores_.assign(contenders_.size(), 0.0);
  winner_history_.clear();
  leader_ = 0;
  arrivals_ = 0;
  cost_ = SelectionCost{};
}

}  // namespace fbc
