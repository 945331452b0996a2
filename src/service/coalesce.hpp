// FetchCoalescer: single-flight staging of files shared between
// concurrent admissions.
//
// Reservation inserts a bundle's missing files into the cache immediately
// (two-phase admit), so a second request overlapping an in-flight fetch
// sees those files "resident" and is granted without staging them again --
// there is never a duplicate MSS transfer. What WAS missing before this
// class is the wait: the second request's job would start running before
// the bytes actually arrived. The coalescer closes that gap: the fetching
// admission registers its missing files as in-flight, completes them when
// the (simulated) transfer finishes, and every other granted request whose
// bundle intersects an in-flight set blocks on that one transfer instead
// of issuing -- or skipping -- its own.
//
// A transfer registered with a ready instant (the server stamps the
// reserve instant plus the scaled stage time under its admission lock) is
// complete at that instant, whoever calls complete_fetch() and whenever:
// waiters never wait past it. The thread that reserved a transfer may be
// blocked elsewhere before it runs its fetch phase -- a router reserving
// the next part of a scattered bundle queues on another shard -- and an
// overlapping grant must not depend on that thread making progress.
// complete_fetch() then only retires the entry; it wakes the waiters of
// transfers registered without a ready instant.
//
// The in-flight table is indexed by FileId and grows only to the largest
// id ever begun, so begin_fetch and complete_fetch allocate nothing in
// steady state, and a count of files in flight lets wait_for return at
// once when nothing is. The internal mutex (level 30 in the
// docs/SERVING.md lock hierarchy) is a leaf: it is never held while any
// other lock is taken, and waits happen outside the server's admission
// mutex entirely, so coalescing adds no contention to the grant path.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <span>
#include <vector>

#include "cache/types.hpp"
#include "util/ordered_mutex.hpp"

namespace fbc::service {

/// What one wait_for() call observed (obs wiring: the coalesced-wait
/// histogram records wait_us for calls with waited_files > 0).
struct CoalesceWait {
  std::size_t waited_files = 0;  ///< distinct in-flight files waited on
  std::uint64_t wait_us = 0;     ///< wall time blocked, microseconds
};

/// Tracks files currently being staged (see file comment). Thread-safe.
class FetchCoalescer {
 public:
  using Clock = std::chrono::steady_clock;

  /// Marks `files` in-flight on behalf of one transfer whose bytes are
  /// ready at `ready_at`; the default (time_point::max()) leaves the
  /// arrival to complete_fetch(). A file can already be in flight: no
  /// lease pins a prefetched file, so another admission may evict it
  /// mid-flight and fetch it again. Each such file is counted per owner
  /// and keeps the latest ready instant.
  void begin_fetch(std::span<const FileId> files,
                   Clock::time_point ready_at = Clock::time_point::max());

  /// Retires `files` and wakes every waiter. A file not in flight (never
  /// begun, or already completed by every owner) is left as it is.
  void complete_fetch(std::span<const FileId> files);

  /// Blocks until no file of `files` is in-flight: each overlapping file
  /// has been completed or has reached its ready instant. Returns what
  /// was waited on; zero-valued when nothing overlapped (the fast path:
  /// one lock acquisition, no wait). Without ready instants it may block
  /// indefinitely, so the caller must not hold the admission mutex.
  // fbc:excludes(mu_) fbc:blocking
  [[nodiscard]] CoalesceWait wait_for(std::span<const FileId> files);

  /// Total transfers begun (begin_fetch calls).
  [[nodiscard]] std::uint64_t transfers() const;

  /// Total wait_for() calls that actually blocked on an in-flight file.
  [[nodiscard]] std::uint64_t coalesced_waits() const;

  /// Files currently registered in-flight, ready or not (tests/audit).
  /// O(1): the table keeps the count.
  [[nodiscard]] std::size_t in_flight() const;

  /// Length of the in-flight table: one past the largest id ever begun
  /// (tests).
  [[nodiscard]] std::size_t table_size() const;

 private:
  struct Flight {
    std::uint32_t owners = 0;       ///< transfers currently staging it
    Clock::time_point ready_at{};   ///< latest owner's ready instant
  };

  /// True when file `id` has an owner and its bytes are not ready at
  /// `now`.
  // fbc:requires(inflight_mu_)
  [[nodiscard]] bool pending_locked(FileId id, Clock::time_point now) const;

  // fbc:lock-level(30)
  // fbc:guards(flights_, in_flight_, transfers_, coalesced_waits_)
  mutable OrderedMutex inflight_mu_{30, "FetchCoalescer::inflight_mu_"};
  std::condition_variable_any cv_;
  /// Indexed by FileId; a file is in flight while its owners > 0.
  std::vector<Flight> flights_;
  std::size_t in_flight_ = 0;  ///< files with owners > 0
  std::uint64_t transfers_ = 0;
  std::uint64_t coalesced_waits_ = 0;
};

}  // namespace fbc::service
