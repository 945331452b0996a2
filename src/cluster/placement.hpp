// Placement: maps bundles onto shards.
//
// Two strategies (ClusterConfig::placement):
//
//  - HashFile: every file has one home shard, found on a consistent-hash
//    ring (shards x vnodes points; lookup = first ring point clockwise of
//    hash(file)). Bundles partition file-by-file, so acquires usually
//    scatter but no file is ever cached on two shards.
//
//  - BundleAffinity: the whole canonical file set hashes to one home
//    shard, so a job's files are co-located and acquire is single-shard.
//    Bundles bigger than spill_threshold x shard capacity fall back to
//    the HashFile scatter (the split-bundle case).
//
// Placement is pure and deterministic: same config + catalog => same plan
// for every request, which is what lets fbcload and fbcgrid agree without
// coordination and what the serial-vs-concurrent fuzz oracle relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/types.hpp"
#include "cluster/config.hpp"

namespace fbc::cluster {

/// One shard's slice of a bundle.
struct SubRequest {
  std::uint32_t shard = 0;
  Request request;
};

/// How a bundle lands on the cluster: one part (single-shard fast path)
/// or several (scatter/gather with cross-shard lease conjunction). Parts
/// are in strictly increasing shard order -- the router reserves in that
/// order so concurrent split bundles cannot deadlock or livelock.
struct PlacementPlan {
  std::vector<SubRequest> parts;

  /// True when a live-filtered plan diverged from the healthy placement
  /// (some file or bundle home walked past a down shard). The router
  /// counts these under grid.acquire.rerouted.
  bool rerouted = false;

  [[nodiscard]] bool split() const noexcept { return parts.size() > 1; }
};

/// Deterministic bundle-to-shard mapping for one cluster.
class Placement {
 public:
  /// `shard_capacity` is one shard's cache size (the spill threshold is
  /// relative to it). Precondition: config.shards >= 1, vnodes >= 1.
  Placement(const ClusterConfig& config, const FileCatalog& catalog,
            Bytes shard_capacity);

  /// Home shard of one file on the consistent-hash ring.
  [[nodiscard]] std::uint32_t file_shard(FileId id) const;

  /// Home shard of one file among the live shards: the ring walk
  /// continues clockwise past down shards' points, so each file lands on
  /// the *next* live shard and moves back home when its shard recovers.
  /// Precondition: live.size() == shard_count(), at least one true.
  [[nodiscard]] std::uint32_t file_shard(FileId id,
                                         const std::vector<bool>& live) const;

  /// Home shard of a whole bundle (affinity placement). Precondition:
  /// `request` is canonical.
  [[nodiscard]] std::uint32_t bundle_home(const Request& request) const;

  /// Splits `request` into per-shard sub-requests per the configured
  /// strategy. Precondition: `request` is canonical and non-empty.
  [[nodiscard]] PlacementPlan plan(const Request& request) const;

  /// Degraded placement: plan() restricted to shards where live[shard]
  /// is true. An affinity bundle whose home shard is down falls back to
  /// its hash partition over the live shards; hash placement walks each
  /// file clockwise past down ring points. Returns an empty plan when no
  /// shard is live (the router reports ShardsDown). Precondition:
  /// live.size() == shard_count().
  [[nodiscard]] PlacementPlan plan(const Request& request,
                                   const std::vector<bool>& live) const;

  [[nodiscard]] std::uint32_t shard_count() const noexcept {
    return config_.shards;
  }

 private:
  ClusterConfig config_;
  const FileCatalog* catalog_;
  Bytes shard_capacity_;
  /// Sorted (hash, shard) ring points; lookup is upper_bound with wrap.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

}  // namespace fbc::cluster
