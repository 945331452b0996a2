// AdaptivePolicy: a set-dueling meta-policy trained by an OPT oracle.
//
// Wraps N contender policies (OptFileBundle vs Landlord vs GDSF in the
// registry's default line-up) and follows the per-phase winner:
//
//   * Every contender has a LIVE instance that observes every event on the
//     real cache (arrivals, hits, loads, evictions, prefetch loads), so its
//     model of residency is always accurate; only the current leader's
//     live instance is asked for victims / prefetches / scheduling.
//   * Every contender also has a SHADOW instance driving a private shadow
//     DiskCache of the same capacity. A deterministically hash-sampled
//     subset of requests (1 in `sample_period`) is replayed through every
//     shadow cache by the simulator's own admit() step -- the set-dueling
//     monitor. A shadow request-hit scores the contender by the request's
//     bundle bytes, doubled when the injected OPT oracle (core/optgen's
//     BundleOPTgen, fed the same sampled subsequence) says OPT would have
//     kept the bundle too -- hits that the oracle endorses are evidence of
//     OPT-like behaviour, not luck.
//   * Every `phase_jobs` arrivals the scores are compared (highest wins,
//     ties break to the lowest index == the registry order) and the winner
//     leads the next phase; scores then reset so old phases cannot
//     outvote a workload shift -- the drift workloads are the target.
//
// The oracle is injected as a factory closure rather than a concrete type
// so this layer stays independent of core/ (the registry wires in
// BundleOPTgen; tests can wire in anything).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cache/policy.hpp"

namespace fbc {

/// Set-dueling knobs (surfaced as PolicyContext::duel_* / fbcsim flags).
struct AdaptiveConfig {
  /// Seed mixed into the request-hash sampler.
  std::uint64_t seed = 0x5eedULL;
  /// One request in `sample_period` joins the duel sample (>= 1; 1 duels
  /// on every request).
  std::size_t sample_period = 8;
  /// Leader re-election interval in arrivals (>= 1).
  std::size_t phase_jobs = 64;
};

/// One dueling contender: paired live + shadow instances of the same
/// policy (separate instances so shadow-cache events never corrupt the
/// live instance's model of the real cache).
struct AdaptiveContender {
  std::string name;
  PolicyPtr live;
  PolicyPtr shadow;
};

/// The meta-policy (see file comment).
class AdaptivePolicy final : public ReplacementPolicy {
 public:
  /// Consumes the sampled request stream, answering "would OPT have kept
  /// this bundle?" Stateful: called exactly once per sampled request.
  using OracleStream = std::function<bool(const Request&)>;
  /// Builds a fresh oracle stream for a cache of `capacity` bytes; called
  /// lazily on the first arrival (capacity is unknown until then) and
  /// again after reset().
  using OracleFactory = std::function<OracleStream(Bytes capacity)>;

  /// The catalog must outlive the policy. `contenders` must be non-empty;
  /// `oracle_factory` may be null (hits then score their plain weight).
  AdaptivePolicy(const FileCatalog& catalog, AdaptiveConfig config,
                 std::vector<AdaptiveContender> contenders,
                 OracleFactory oracle_factory);

  [[nodiscard]] std::string name() const override;
  void on_job_arrival(const Request& request, const DiskCache& cache) override;
  void on_request_hit(const Request& request, const DiskCache& cache) override;
  [[nodiscard]] std::vector<FileId> select_victims(
      const Request& request, Bytes bytes_needed,
      const DiskCache& cache) override;
  void on_files_loaded(const Request& request, std::span<const FileId> loaded,
                       const DiskCache& cache) override;
  void on_file_evicted(FileId id) override;
  void on_prefetched(std::span<const FileId> loaded,
                     const DiskCache& cache) override;
  [[nodiscard]] std::vector<FileId> prefetch(const Request& request,
                                             const DiskCache& cache) override;
  [[nodiscard]] std::size_t choose_next(std::span<const Request> queue,
                                        const DiskCache& cache) override;
  [[nodiscard]] std::size_t choose_next(std::span<const Request> queue,
                                        std::span<const double> ages,
                                        const DiskCache& cache) override;
  [[nodiscard]] const SelectionCost* selection_cost() const override;
  void reset() override;

  /// Index of the contender currently leading the real cache.
  [[nodiscard]] std::size_t leader() const noexcept { return leader_; }
  /// Winner of every completed phase, in order (the determinism and
  /// phase-switch regression tests pin this sequence).
  [[nodiscard]] std::span<const std::size_t> winner_history() const noexcept {
    return winner_history_;
  }
  /// Current-phase duel scores, indexed like the contenders.
  [[nodiscard]] std::span<const double> scores() const noexcept {
    return scores_;
  }
  [[nodiscard]] std::size_t contender_count() const noexcept {
    return contenders_.size();
  }
  [[nodiscard]] const std::string& contender_name(std::size_t i) const {
    return contenders_.at(i).name;
  }
  /// True when `request` belongs to the duel sample (exposed for the
  /// sample-set determinism test).
  [[nodiscard]] bool sampled(const Request& request) const;

 private:
  void ensure_duel_state(const DiskCache& cache);
  void elect();
  void duel(const Request& request, const DiskCache& cache);

  const FileCatalog* catalog_;
  AdaptiveConfig config_;
  std::vector<AdaptiveContender> contenders_;
  OracleFactory oracle_factory_;
  OracleStream oracle_;
  std::vector<std::unique_ptr<DiskCache>> shadows_;
  /// The shadow admissions' counters; unread (hits score the duel).
  CacheMetrics shadow_metrics_;
  std::vector<double> scores_;
  std::vector<std::size_t> winner_history_;
  std::size_t leader_ = 0;
  std::uint64_t arrivals_ = 0;
  SelectionCost cost_;
};

}  // namespace fbc
