// fbcd wire protocol: length-prefixed binary frames over a stream socket.
//
// Frame layout (all integers little-endian, see docs/SERVING.md):
//
//   +----------------+--------+------------------------+
//   | payload_len u32| type u8| payload (payload_len B)|
//   +----------------+--------+------------------------+
//
// The protocol is deliberately minimal -- request/reply pairs to acquire
// a bundle lease, release a lease, snapshot server stats, export an
// observability metrics snapshot and identify the endpoint -- and
// strictly client-initiated: the server sends exactly one reply frame per
// request frame, with one exception. A ReserveRequest (the two-phase
// acquire) is answered by one AcquireReply once the bundle is reserved
// and, when that reply is Ok, by a second AcquireReply once the bundle is
// staged. Replies always come back in request order. Unknown message
// types and oversized or truncated frames are protocol errors; the server
// closes the connection.
//
// Every MsgType enumerator must be handled by the encoder and decoder
// switches in protocol.cpp; that translation unit builds with
// -Werror=switch and -Werror=switch-enum, so a missing case fails the
// build even beside a default label.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "cache/types.hpp"
#include "obs/counter.hpp"
#include "obs/histogram.hpp"

namespace fbc::service {

/// Lease handle returned by a successful acquire; 0 is never granted.
using LeaseId = std::uint64_t;

/// Frame type tag (one byte on the wire).
enum class MsgType : std::uint8_t {
  AcquireRequest = 1,
  AcquireReply = 2,
  ReleaseRequest = 3,
  ReleaseReply = 4,
  StatsRequest = 5,
  StatsReply = 6,
  MetricsRequest = 7,
  MetricsReply = 8,
  HelloRequest = 9,
  HelloReply = 10,
  ReserveRequest = 11,
};

/// What kind of endpoint answered a HelloRequest (one byte on the wire).
enum class EndpointRole : std::uint8_t {
  Shard = 1,   ///< a single BundleServer (fbcd)
  Router = 2,  ///< a ClusterRouter fronting shard_count shards (fbcgrid)
};

/// Outcome of an acquire call (one byte on the wire).
enum class AcquireStatus : std::uint8_t {
  Ok = 0,              ///< bundle staged and leased
  QueueFull = 1,       ///< backpressure: retry after retry_after_ms
  TimedOut = 2,        ///< not admitted within the request timeout
  Unserviceable = 3,   ///< bundle larger than the whole cache
  InvalidRequest = 4,  ///< empty bundle or unknown file id
  TransferFailed = 5,  ///< MSS staging failed after all retries
  Closed = 6,          ///< server is shutting down
  ShardsDown = 7,      ///< cluster: no live shard can host the bundle
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;
[[nodiscard]] const char* to_string(AcquireStatus status) noexcept;

/// The ServiceStats counters, one row each: X(kind, member). Row order
/// is the wire order, and every field is a u64 on the wire. `kind` says
/// whether the value counts events (Count) or bytes (Bytes); fbcctl
/// prints the latter with a unit.
// clang-format off
#define FBC_SERVICE_STATS_FIELDS(X)                                           \
  X(Count, requests)          /* acquire calls accepted for service */        \
  X(Count, request_hits)      /* whole bundle already resident */             \
  X(Count, rejected_full)     /* backpressure rejections */                   \
  X(Count, timed_out)         /* queue-wait timeouts */                       \
  X(Count, unserviceable)     /* bundle bigger than the cache */              \
  X(Count, invalid)           /* malformed acquire requests */                \
  X(Count, transfer_retries)  /* MSS transfer attempts retried */             \
  X(Count, transfer_failures) /* acquires failed after retries */             \
  X(Count, leases_granted)                                                    \
  X(Count, leases_released)                                                   \
  X(Count, active_leases)                                                     \
  X(Count, queue_depth)       /* waiters queued at snapshot time */           \
  X(Count, evictions)                                                         \
  X(Bytes, bytes_requested)                                                   \
  X(Bytes, bytes_missed)      /* demand bytes staged from the MSS */          \
  X(Bytes, bytes_evicted)                                                     \
  X(Bytes, used_bytes)                                                        \
  X(Bytes, capacity_bytes)                                                    \
  X(Count, resident_files)
// clang-format on

/// Server counters reported by a stats snapshot.
struct ServiceStats {
#define FBC_STATS_MEMBER(kind, member) std::uint64_t member = 0;
  FBC_SERVICE_STATS_FIELDS(FBC_STATS_MEMBER)
#undef FBC_STATS_MEMBER

  bool operator==(const ServiceStats&) const = default;
};

/// How a ServiceStats field is shown.
enum class StatKind { Count, Bytes };

/// One ServiceStats field: its name, kind and member.
struct StatField {
  const char* name;
  StatKind kind;
  std::uint64_t ServiceStats::*member;
};

/// Every ServiceStats field, in wire order.
inline constexpr StatField kServiceStatsFields[] = {
#define FBC_STATS_FIELD(kind, member) \
  {#member, StatKind::kind, &ServiceStats::member},
    FBC_SERVICE_STATS_FIELDS(FBC_STATS_FIELD)
#undef FBC_STATS_FIELD
};

/// One exported histogram, keyed by a stable metric name
/// ("acquire.queue_us", "acquire.total_us", ...).
struct NamedHistogram {
  std::string name;
  obs::Histogram hist;

  bool operator==(const NamedHistogram&) const = default;
};

/// Full observability snapshot exported by MsgType::MetricsReply: the
/// plain stats counters plus named counters and latency/size histograms.
/// Wire format is documented in docs/OBSERVABILITY.md; every histogram is
/// validated through obs::Histogram::from_state on decode.
struct MetricsSnapshot {
  ServiceStats stats;
  std::vector<obs::CounterSample> counters;    ///< sorted by name
  std::vector<NamedHistogram> histograms;      ///< sorted by name

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Encoder-side caps mirrored by the decoder; frames outside these bounds
/// are protocol errors in both directions.
inline constexpr std::size_t kMaxMetricsCounters = 1024;
inline constexpr std::size_t kMaxMetricsHistograms = 64;
inline constexpr std::size_t kMaxMetricNameBytes = 64;

// -- message payloads ------------------------------------------------------

struct AcquireRequestMsg {
  /// Client-chosen correlation id, echoed in the reply.
  std::uint64_t cookie = 0;
  std::vector<FileId> files;
};

/// Two-phase acquire: same payload as AcquireRequestMsg, answered by two
/// AcquireReplyMsg frames (reserved, then granted) when the first is Ok.
struct ReserveRequestMsg {
  std::uint64_t cookie = 0;
  std::vector<FileId> files;
};

struct AcquireReplyMsg {
  std::uint64_t cookie = 0;
  AcquireStatus status = AcquireStatus::Ok;
  LeaseId lease = 0;
  /// Backpressure hint: when status == QueueFull, wait this long before
  /// retrying.
  std::uint32_t retry_after_ms = 0;
  /// MSS transfer attempts that had to be retried for this request.
  std::uint32_t retries = 0;
  /// True when the whole bundle was already resident (request-hit).
  std::uint8_t request_hit = 0;
};

struct ReleaseRequestMsg {
  LeaseId lease = 0;
};

struct ReleaseReplyMsg {
  std::uint8_t ok = 0;
};

struct StatsRequestMsg {};

struct StatsReplyMsg {
  ServiceStats stats;
};

struct MetricsRequestMsg {};

struct MetricsReplyMsg {
  MetricsSnapshot metrics;
};

struct HelloRequestMsg {};

/// Identity of the serving endpoint behind the socket: a lone shard, or a
/// cluster router. `shard_id` is the shard's position in its cluster (0
/// for a standalone fbcd or for a router); `shard_count` is the number of
/// shards behind the endpoint (1 for a shard); `shards_down` is how many
/// of them the router currently has marked down (always 0 for a shard).
struct HelloReplyMsg {
  EndpointRole role = EndpointRole::Shard;
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t shards_down = 0;
};

using Message =
    std::variant<AcquireRequestMsg, AcquireReplyMsg, ReleaseRequestMsg,
                 ReleaseReplyMsg, StatsRequestMsg, StatsReplyMsg,
                 MetricsRequestMsg, MetricsReplyMsg, HelloRequestMsg,
                 HelloReplyMsg, ReserveRequestMsg>;

/// Frame type of a message value.
[[nodiscard]] MsgType message_type(const Message& message) noexcept;

/// Raised by the decoder on malformed input. The daemon closes the
/// offending connection; it never crashes the server.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error("protocol: " + what) {}
};

/// Fixed-size frame prefix: payload length + type byte.
struct FrameHeader {
  std::uint32_t payload_len = 0;
  MsgType type = MsgType::AcquireRequest;
};

inline constexpr std::size_t kFrameHeaderBytes = 5;

/// Upper bound on payload size (a ~1M-file bundle); larger frames are a
/// protocol error so a corrupt length prefix cannot trigger a huge
/// allocation.
inline constexpr std::uint32_t kMaxPayloadBytes = 4u << 20;

/// Serializes `message` as one complete frame appended to `out`.
void encode_frame(const Message& message, std::vector<std::uint8_t>* out);

/// Parses and validates a frame header from exactly kFrameHeaderBytes
/// bytes. Throws ProtocolError for unknown types or oversized payloads.
[[nodiscard]] FrameHeader decode_header(std::span<const std::uint8_t> bytes);

/// Decodes a payload of the given type. Throws ProtocolError when the
/// payload is truncated, has trailing garbage, or carries invalid values.
[[nodiscard]] Message decode_payload(MsgType type,
                                     std::span<const std::uint8_t> payload);

}  // namespace fbc::service
