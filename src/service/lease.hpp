// Pin leases: reference-counted residency guarantees for in-flight jobs.
//
// The single-job pinning the simulator and SRM use (pin the bundle of the
// one job currently being admitted) generalizes here to many concurrent
// jobs: each granted lease pins every file of its bundle in the DiskCache,
// and because DiskCache pins are counted, overlapping bundles simply stack
// pins. A file is evictable again only once every lease covering it has
// been released -- DiskCache::evict throws on a pinned file, so the lease
// invariant (no eviction of a leased file) is enforced at the cache layer,
// not merely by policy convention.
//
// LeaseTable is not itself thread-safe: BundleServer mutates it under its
// admission mutex, which also guards the cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "service/protocol.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::service {

/// Registry of outstanding pin leases over one DiskCache.
class LeaseTable {
 public:
  /// Pins every file of `request` in `cache` and records the lease.
  /// Precondition: every file of the bundle is resident. Lease ids are
  /// dense, start at 1, and are never reused within a server lifetime.
  [[nodiscard]] LeaseId grant(const Request& request, DiskCache& cache);

  /// Unpins the lease's files and forgets it. Returns false for unknown
  /// (or already released) ids.
  bool release(LeaseId id, DiskCache& cache);

  /// Outstanding lease count.
  [[nodiscard]] std::size_t active() const noexcept { return leases_.size(); }

  /// Total leases ever granted.
  [[nodiscard]] std::uint64_t granted() const noexcept { return next_ - 1; }

  /// True when at least one active lease covers `id`.
  [[nodiscard]] bool covers(FileId id) const noexcept;

  /// The bundle held by a lease, or nullptr for unknown ids.
  [[nodiscard]] const Request* bundle(LeaseId id) const noexcept;

  /// Releases every outstanding lease (server shutdown).
  void release_all(DiskCache& cache);

  /// Read-only view of the live table, for audits.
  [[nodiscard]] const std::unordered_map<LeaseId, Request>& leases()
      const noexcept {
    return leases_;
  }

 private:
  std::unordered_map<LeaseId, Request> leases_;
  LeaseId next_ = 1;
};

/// Thread-safe sharded lease registry for the concurrent serving path.
///
/// Two independent shard arrays, each shard with its own mutex:
///   * lease shards, keyed by lease id: id -> bundle, for grant/take;
///   * file shards, keyed by file id: per-file count of covering leases,
///     so covers() is an O(1) lookup instead of a scan over every lease.
///
/// Unlike LeaseTable this class does NOT touch the DiskCache: cache pins
/// stay under the server's admission mutex (they interact with eviction
/// decisions), while the lease bookkeeping here -- the hash-map inserts,
/// Request copies and coverage counts -- runs under the small per-shard
/// locks only. Counters (granted/active) are atomics, so stats snapshots
/// never serialize against admissions. Shard locks are leaves: no method
/// acquires any other lock while holding one, so callers may invoke any
/// method while holding their own locks without ordering concerns.
class ShardedLeaseTable {
 public:
  /// `shards` is clamped to at least 1.
  explicit ShardedLeaseTable(std::size_t shards);

  /// Records a lease over `request` and returns its id (dense from 1,
  /// never reused). The caller is responsible for pinning the files.
  [[nodiscard]] LeaseId grant(const Request& request);

  /// Removes the lease and returns its bundle, or std::nullopt for
  /// unknown (or already taken) ids. The caller unpins the files.
  [[nodiscard]] std::optional<Request> take(LeaseId id);

  /// True when at least one live lease covers file `id`.
  [[nodiscard]] bool covers(FileId id) const;

  /// Number of live leases covering file `id`.
  [[nodiscard]] std::uint32_t cover_count(FileId id) const;

  /// The bundle held by a lease (copy), or std::nullopt for unknown ids.
  [[nodiscard]] std::optional<Request> bundle(LeaseId id) const;

  /// Outstanding lease count.
  [[nodiscard]] std::size_t active() const noexcept {
    return active_.load(std::memory_order_acquire);
  }

  /// Total leases ever granted.
  [[nodiscard]] std::uint64_t granted() const noexcept {
    return next_.load(std::memory_order_acquire) - 1;
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Copy of the live table (audits; not a consistent point-in-time
  /// snapshot across shards unless the caller has quiesced mutators).
  [[nodiscard]] std::vector<std::pair<LeaseId, Request>> snapshot() const;

  /// Removes every lease and returns the bundles (server shutdown).
  std::vector<Request> take_all();

 private:
  struct LeaseShard {
    // fbc:lock-level(20)
    // fbc:guards(leases)
    mutable OrderedMutex lease_mu{20, "ShardedLeaseTable::lease_mu"};
    std::unordered_map<LeaseId, Request> leases;
  };
  struct FileShard {
    // Distinct level from lease_mu even though neither nests inside the
    // other today (grant/take drop the lease shard before touching
    // coverage): a same-level pair would make any future nesting an
    // instant violation instead of a reviewed decision.
    // fbc:lock-level(22)
    // fbc:guards(covers)
    mutable OrderedMutex file_mu{22, "ShardedLeaseTable::file_mu"};
    std::unordered_map<FileId, std::uint32_t> covers;
  };

  [[nodiscard]] LeaseShard& lease_shard(LeaseId id) noexcept {
    return shards_[id % shards_.size()];
  }
  [[nodiscard]] const LeaseShard& lease_shard(LeaseId id) const noexcept {
    return shards_[id % shards_.size()];
  }
  [[nodiscard]] FileShard& file_shard(FileId id) noexcept {
    return file_shards_[id % file_shards_.size()];
  }
  [[nodiscard]] const FileShard& file_shard(FileId id) const noexcept {
    return file_shards_[id % file_shards_.size()];
  }
  void add_cover(const Request& request);
  void drop_cover(const Request& request);

  std::vector<LeaseShard> shards_;
  std::vector<FileShard> file_shards_;
  std::atomic<LeaseId> next_ = 1;
  std::atomic<std::size_t> active_ = 0;
};

}  // namespace fbc::service
