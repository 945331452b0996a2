// Mass Storage System model: where files live when they are not cached,
// and what it costs (in time) to stage them.
//
// A data-grid host's SRM fronts one or more MSS instances -- local tape
// robots, remote HPSS sites, replica servers across the WAN (paper §2).
// We model each as a StorageTier with a fixed per-request latency (mount,
// queue, RPC) plus a streaming bandwidth, and assign every file to a tier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/catalog.hpp"
#include "cache/types.hpp"
#include "grid/backend.hpp"

namespace fbc {

/// One storage backend reachable from the SRM host.
struct StorageTier {
  std::string name = "local-mss";
  /// Fixed setup cost per file fetch, seconds (tape mount, WAN RTTs...).
  double latency_s = 1.0;
  /// Streaming bandwidth, bytes/second.
  double bandwidth_bps = 100.0 * 1024 * 1024;

  /// Time to fetch one file of `bytes` from this tier.
  [[nodiscard]] double fetch_seconds(Bytes bytes) const noexcept {
    return latency_s + static_cast<double>(bytes) / bandwidth_bps;
  }
};

/// Builds the three canonical tiers used in the examples/benches:
/// a fast local disk pool, a local tape MSS and a remote (WAN) MSS.
[[nodiscard]] std::vector<StorageTier> default_tiers();

class MassStorageSystem;

/// Places the catalog's files on default_tiers() per `mix`, the
/// "<tape>,<remote>" fractions of the --tier-mix flag: that share of the
/// files goes to local tape, that share to the remote MSS, and the rest
/// stays on the disk pool. Deterministic in `seed`. Throws
/// std::invalid_argument unless both fractions are plain numbers in [0,1]
/// summing to at most 1.
void place_tier_mix(MassStorageSystem& mss, const std::string& mix,
                    std::uint64_t seed);

/// File-to-tier placement plus fetch-time queries.
class MassStorageSystem : public StorageBackend {
 public:
  /// All files initially live on tier 0. Precondition: at least one tier.
  MassStorageSystem(std::vector<StorageTier> tiers, const FileCatalog& catalog);

  /// Number of tiers.
  [[nodiscard]] std::size_t tier_count() const noexcept {
    return tiers_.size();
  }

  [[nodiscard]] const StorageTier& tier(std::size_t index) const {
    return tiers_.at(index);
  }

  /// Assigns `id` to tier `tier_index`. Precondition: both valid.
  void place_file(FileId id, std::size_t tier_index);

  /// Tier index currently hosting `id`.
  [[nodiscard]] std::size_t tier_of(FileId id) const;

  /// Seconds to fetch `id` from its tier into the cache.
  [[nodiscard]] double fetch_seconds(FileId id) const override;

  /// The catalog file sizes are resolved against.
  [[nodiscard]] const FileCatalog& catalog() const noexcept override {
    return *catalog_;
  }

 private:
  std::vector<StorageTier> tiers_;
  const FileCatalog* catalog_;
  std::vector<std::uint32_t> placement_;
};

}  // namespace fbc
