// Policy registry: creates any replacement policy by its string name.
// The single entry point bench harnesses, examples and user code use to
// instantiate policies uniformly.
//
// Known names:
//   optfb            OptFileBundle, CacheResident history, Resort greedy
//                    (the paper's recommended configuration)
//   optfb-basic      ... with the Basic (single-sort) greedy
//   optfb-seeded1    ... with the 1-seeded greedy
//   optfb-seeded2    ... with the 2-seeded greedy (improved bound, slow)
//   optfb-full       ... with untruncated history (+ step-3 prefetching)
//   optfb-window     ... with sliding-window history
//   optfb-bytes      ... with byte-weighted request values (targets byte
//                        misses instead of request misses)
//   landlord         bundle-adapted Landlord (paper Algorithm 3)
//   landlord-size    Landlord with size-proportional credits
//   dist-online      distributed online rule (Qin & Etesami): accumulating
//                    equal bundle-cost credit shares, composable across
//                    cluster shards
//   lru, lfu, fifo   classic baselines adapted to bundles
//   lru-2, lru-3     LRU-K (O'Neil et al.): K-th-reference recency
//   gds-unit, gds-size, gds-fetch   GreedyDual-Size cost variants
//   gdsf, gdsf-unit  GreedyDual-Size-Frequency (Cherkasova)
//   random           uniform random eviction
//   lookahead        clairvoyant farthest-next-use (needs the job stream)
//   adaptive         set-dueling meta-policy: OptFileBundle vs Landlord vs
//                    GDSF on sampled request subsets, scored against the
//                    BundleOPTgen oracle, following the per-phase winner
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/policy.hpp"
#include "core/opt_file_bundle.hpp"
#include "util/config_fields.hpp"

namespace fbc {

/// The tunable fields of PolicyContext, one row each (see
/// util/config_fields.hpp); fbcsim expands the same list into its flags.
// clang-format off
#define FBC_POLICY_CONTEXT_FIELDS(X)                                          \
  /* Queue-scheduling aging factor for optfb* policies (0 = pure value        \
     order; see OptFileBundleConfig::aging_factor). */                        \
  X(double, aging_factor, 0.0, "aging",                                       \
    "queue aging factor for optfb* policies")                                 \
  X(std::size_t, history_max_entries, 0, "history-cap",                       \
    "bounded-memory history entries for optfb* (0 = unbounded)")              \
  X(std::uint64_t, history_window_jobs, 1000, "window",                       \
    "sliding-window length in jobs for optfb-window")                         \
  /* Reference until the incremental engine has soaked; see                  \
     core/incremental_select.hpp. */                                          \
  X(SelectEngine, select_engine, SelectEngine::Reference, "engine",           \
    "selection engine for optfb* policies: "                                  \
    "reference|incremental (identical results; incremental "                  \
    "rescores only dirty history entries per miss)")                          \
  X(std::size_t, duel_sample_period, 8, "duel-sample",                        \
    "adaptive: one request in N joins the set-dueling sample")                \
  X(std::size_t, duel_phase_jobs, 64, "duel-phase",                           \
    "adaptive: leader re-election interval, in arrivals")
// clang-format on

/// Everything a policy constructor might need.
struct PolicyContext {
  /// Required for optfb* policies.
  const FileCatalog* catalog = nullptr;
  /// Seed for stochastic policies (random).
  std::uint64_t seed = 0x5eedULL;
  /// Future job stream; required for lookahead.
  std::span<const Request> jobs = {};
  FBC_POLICY_CONTEXT_FIELDS(FBC_CONFIG_MEMBER)
};

/// Creates the policy registered under `name`.
/// Throws std::invalid_argument for unknown names or missing context.
[[nodiscard]] PolicyPtr make_policy(const std::string& name,
                                    const PolicyContext& context);

/// All registered policy names, in display order.
[[nodiscard]] std::vector<std::string> policy_names();

}  // namespace fbc
