// ClusterConfig: knobs for the sharded serving cluster (fbcgrid).
//
// A cluster is N BundleServer shards behind one ClusterRouter. The config
// picks how bundles map to shards (placement strategy), when an affinity
// bundle is too big for one shard and must scatter (spill_threshold), and
// when the router gives up on, and probes, a failing shard.
//
// The same config drives every cluster the project builds: the fbcgrid
// fleet, the in-process stacks of cluster::make_local_cluster (fbcload
// --cluster, bench_cluster, bench_partition_penalty, examples/grid_site)
// and the replay harnesses.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/config_fields.hpp"

namespace fbc::cluster {

/// How the router maps a bundle onto shards.
enum class PlacementMode : std::uint8_t {
  /// Partition every bundle file-by-file over a consistent-hash ring:
  /// each file has one home shard regardless of which bundle asks for it,
  /// so no file is ever cached twice, but most bundles scatter.
  HashFile,
  /// Hash the *canonical file set* to pick one home shard for the whole
  /// bundle: the job's files are co-located, acquire stays single-shard
  /// (one lease, no cross-shard conjunction), at the cost of popular
  /// files being duplicated on several shards. Bundles bigger than
  /// spill_threshold x shard capacity fall back to HashFile scatter.
  BundleAffinity,
};

/// Parses "hash" | "affinity" (the --placement flag values).
inline PlacementMode parse_placement(const std::string& name) {
  if (name == "hash") return PlacementMode::HashFile;
  if (name == "affinity") return PlacementMode::BundleAffinity;
  throw std::invalid_argument("unknown placement mode: " + name +
                              " (expected affinity|hash)");
}

inline const char* to_string(PlacementMode mode) noexcept {
  switch (mode) {
    case PlacementMode::HashFile:
      return "hash";
    case PlacementMode::BundleAffinity:
      return "affinity";
  }
  return "?";
}

/// The command-line fields of ClusterConfig, one row each (see
/// util/config_fields.hpp). The help text doubles as the field's summary.
// clang-format off
#define FBC_CLUSTER_CONFIG_FIELDS(X)                                          \
  X(std::uint32_t, shards, 4, "shards",                                       \
    "BundleServer shards behind the router")                                  \
  X(cluster::PlacementMode, placement, PlacementMode::BundleAffinity,         \
    "placement", "bundle placement: affinity|hash")                           \
  /* A bundle near shard capacity would evict everything its home shard       \
     holds; splitting it is the lesser evil. */                               \
  X(double, spill_threshold, 0.5, "spill-threshold",                          \
    "bundle-to-shard-capacity ratio beyond which an affinity bundle "         \
    "scatters across shards")                                                 \
  /* More vnodes = smoother file distribution, slightly larger ring. */       \
  X(std::uint32_t, vnodes, 64, "vnodes",                                      \
    "consistent-hash virtual nodes per shard")                                \
  /* The router then stops routing requests to the shard (degraded            \
     placement). */                                                           \
  X(std::uint32_t, down_threshold, 3, "down-threshold",                       \
    "consecutive NetErrors before a shard is marked down")                    \
  /* One request per interval is routed at the dead shard as an               \
     opportunistic probe (a failure just re-routes, so clients never see      \
     it). 0 is deterministic, used by the replay harnesses. */                \
  X(std::uint64_t, probe_ms, 500, "probe-ms",                                 \
    "recovery-probe interval for down shards (0 = every request)")
// clang-format on

/// Configuration for one ClusterRouter and the shards behind it.
struct ClusterConfig {
  FBC_CLUSTER_CONFIG_FIELDS(FBC_CONFIG_MEMBER)

  bool operator==(const ClusterConfig&) const = default;
};

}  // namespace fbc::cluster
