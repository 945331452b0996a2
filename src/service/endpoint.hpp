// ServingEndpoint: the transport-facing interface of anything that can
// answer the wire protocol's request messages.
//
// BundleDaemon serves *an endpoint*, not a BundleServer: the same acceptor
// and frame loop front either a single shard (fbcd) or a ClusterRouter
// fanning out to N shards (fbcgrid). Everything the daemon needs --
// acquire/release forwarding, stats/metrics snapshots, identity for
// HelloRequest, and close-on-shutdown -- goes through this interface, so
// acquire/release frames are forwardable to whatever sits behind it.
//
// An acquire can also run split in two (reserve(), then finish() on the
// Reservation it returns): the ReserveRequest frame and the router's
// scatter use the split to learn the instant a bundle is pinned before
// its bytes are staged.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "cache/types.hpp"
#include "service/protocol.hpp"

namespace fbc::service {

/// Result of a (possibly forwarded) acquire call.
struct AcquireResult {
  AcquireStatus status = AcquireStatus::Ok;
  LeaseId lease = 0;
  bool request_hit = false;
  std::uint32_t retry_after_ms = 0;
  std::uint32_t retries = 0;
};

/// The fetch phase of a reserved acquire (see ServingEndpoint::reserve).
/// Each endpoint with a native split derives its own.
class PendingGrant {
 public:
  virtual ~PendingGrant() = default;

  /// Blocks until the reserved bundle is staged and returns the grant.
  /// Called at most once.
  virtual AcquireResult finish() = 0;
};

/// What ServingEndpoint::reserve() returns. `result.status == Ok` means
/// reserved: the bundle is admitted and pinned under `result.lease`, which
/// is live from here on (release() it like any lease), and the job may
/// run once finish() returns the grant. Any other status is final, exactly
/// as acquire() would have returned it.
struct Reservation {
  AcquireResult result;
  /// The fetch phase still to run; null when there is none (a refusal, or
  /// an endpoint that ran the whole acquire in reserve()).
  std::unique_ptr<PendingGrant> pending;
};

/// Completes `reservation`: runs its fetch phase, if one is pending, and
/// returns the grant; otherwise returns its result as is.
inline AcquireResult finish(Reservation& reservation) {
  if (!reservation.pending) return reservation.result;
  const std::unique_ptr<PendingGrant> pending = std::move(reservation.pending);
  return pending->finish();
}

/// Identity reported in a HelloReply (see protocol.hpp). `shards_down`
/// is the router's live count of shards currently marked down (0 for a
/// standalone shard) -- the wire-visible health signal fbcctl surfaces.
struct EndpointInfo {
  EndpointRole role = EndpointRole::Shard;
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t shards_down = 0;
};

/// Abstract serving endpoint (see file comment). Implementations must be
/// thread-safe: the daemon calls from one thread per connection.
class ServingEndpoint {
 public:
  virtual ~ServingEndpoint() = default;

  /// Blocks until the bundle is leased or the acquire fails; `request`
  /// must stay alive for the duration of the call.
  virtual AcquireResult acquire(const Request& request) = 0;

  /// Phase one of a split acquire: returns once the request is reserved
  /// (admitted, pinned and leased) or refused; finish() on the result
  /// completes it. `request` must stay alive until then. The default, for
  /// endpoints without a native split, runs the whole acquire here and
  /// leaves nothing to finish.
  virtual Reservation reserve(const Request& request) {
    return {acquire(request), nullptr};
  }

  /// Returns false for an unknown (or already released) lease.
  virtual bool release(LeaseId lease) = 0;

  [[nodiscard]] virtual ServiceStats stats() const = 0;

  [[nodiscard]] virtual MetricsSnapshot metrics() const = 0;

  /// Identity for HelloReply frames.
  [[nodiscard]] virtual EndpointInfo info() const = 0;

  /// Wakes every queued waiter with Closed and rejects future acquires;
  /// release/stats keep working so draining clients can finish.
  virtual void close() = 0;
};

}  // namespace fbc::service
