// BundleServer: thread-safe bundle-serving layer over the cache/policy
// stack.
//
// This is the concurrent counterpart of the single-threaded SRM loop: many
// client threads call acquire() simultaneously, each request passes through
// a bounded admission queue, and admission itself follows a two-phase
// protocol:
//
//   reserve  under the admission lock: the shared admit() step (cache/
//            simulator.hpp) lets the policy pick victims, evicts them,
//            inserts the missing files and any prefetched ones, and every
//            bundle file is pinned through a lease -- from this instant no
//            other admission can evict the bundle. The transfer's ready
//            instant (now plus the scaled stage time of every file loaded)
//            is stamped here too;
//   fetch    outside the lock: the simulated MSS transfer runs until its
//            ready instant (injectable failures with bounded exponential-
//            backoff retry happen before the reserve, so a reserved
//            acquire always ends in a grant); concurrent admissions
//            whose bundles overlap an in-flight transfer wait on that one
//            transfer through the FetchCoalescer -- never past its ready
//            instant -- instead of starting their jobs before the bytes
//            arrive;
//   lease    the lease id is returned to the caller, whose job runs with
//            the bundle guaranteed resident;
//   release  release() unpins the bundle; files become evictable once the
//            last overlapping lease is gone.
//
// acquire() runs both phases in the calling thread. reserve() returns
// after the first and hands back the second as a PendingGrant (see
// service/endpoint.hpp), so a caller -- the router scattering a bundle
// over several shards, or the daemon answering a ReserveRequest -- can
// reserve elsewhere while this shard's fetch is in flight. Both run the
// same two private phases.
//
// Admission is *batched*: whichever waiter thread holds the admission
// mutex drains up to ServiceConfig::admission_batch queued entries in one
// pass (drain_locked), admitting each in exactly the order the serial
// one-at-a-time server would (choose_locked per entry, FIFO or
// value-density), granting the lease, and handing the entry back to its
// own thread for the fetch phase. One lock acquisition -- and, with the
// incremental selection engine, one cheap dirty-entry rescore -- is
// amortized across up to k grants. Batching is decision-equivalent to
// admission_batch=1 by construction: the per-entry choose/fit/admit
// sequence is byte-identical, only the lock round-trips between entries
// disappear (testing/sched_sim pins this equivalence).
//
// All *decision* logic stays in the existing engines: admission runs
// the simulator's own admit() step with the configured policy
// (ServiceConfig::engine selects the reference or incremental
// OptFileBundle selector, and shadow_diff runs both in lock-step,
// asserting bit-identical decisions), and CacheMetrics does the
// accounting. The server owns only
// concurrency, queuing and backpressure, so invariants checked by the
// fuzzing oracles carry over unchanged (audit() re-checks them
// independently).
//
// Lock order: see the "Lock hierarchy" table in docs/SERVING.md. Every
// mutex in this layer is a util/ordered_mutex.hpp OrderedMutex carrying
// its level from that table; fbclint L007 checks the order statically
// from the fbc:lock-level annotations below, and FBC_LOCK_CHECK builds
// abort at runtime on any inversion.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hpp"
#include "cache/metrics.hpp"
#include "cache/policy.hpp"
#include "core/registry.hpp"
#include "grid/backend.hpp"
#include "grid/transfer.hpp"
#include "obs/counter.hpp"
#include "obs/histogram.hpp"
#include "obs/span.hpp"
#include "service/coalesce.hpp"
#include "service/endpoint.hpp"
#include "service/lease.hpp"
#include "service/protocol.hpp"
#include "util/config_fields.hpp"
#include "util/ordered_mutex.hpp"
#include "util/rng.hpp"

namespace fbc::service {

/// Order in which queued requests are admitted (the service-layer mirror
/// of the SRM's ServiceOrder).
enum class AdmitOrder {
  Fifo,          ///< strict arrival order
  ValueDensity,  ///< highest resident-byte fraction first (cheapest admit)
};

/// Parses "fifo" / "value" (throws std::invalid_argument otherwise).
[[nodiscard]] AdmitOrder parse_admit_order(const std::string& name);

/// The --order spelling of `order` (inverse of parse_admit_order).
[[nodiscard]] inline const char* to_string(AdmitOrder order) noexcept {
  return order == AdmitOrder::Fifo ? "fifo" : "value";
}

/// The command-line fields of ServiceConfig, one row each (see
/// util/config_fields.hpp). The help text doubles as the field's summary.
// clang-format off
#define FBC_SERVICE_CONFIG_FIELDS(X)                                          \
  X(ByteSize, cache_bytes, 1 * GiB, "cache", "staging cache capacity")        \
  X(std::string, policy, "optfb", "policy", "replacement policy name")        \
  /* Acquires beyond the bound are rejected with a retry-after hint           \
     instead of queuing. */                                                   \
  X(std::size_t, max_queue, 64, "max-queue",                                  \
    "admission queue bound (backpressure)")                                   \
  X(service::AdmitOrder, order, AdmitOrder::Fifo, "order",                    \
    "admission order: fifo|value")                                            \
  X(std::uint32_t, timeout_ms, 30000, "timeout-ms",                           \
    "per-request admission timeout (time waited in the queue)")               \
  X(std::uint32_t, max_retries, 3, "max-retries",                             \
    "MSS transfer retries per request")                                       \
  /* Attempt k waits retry_backoff_ms * 2^(k-1), capped at 8x the base. */    \
  X(std::uint32_t, retry_backoff_ms, 10, "retry-backoff-ms",                  \
    "base transfer retry backoff")                                            \
  X(double, transfer_fail_prob, 0.0, "fail-prob",                             \
    "per-attempt MSS transfer failure prob")                                  \
  /* 0 = no sleep: staging is instantaneous but still counted. */             \
  X(double, time_scale, 0.0, "time-scale",                                    \
    "wall seconds slept per simulated staging second")                        \
  X(std::size_t, transfer_streams, 4, "streams",                              \
    "parallel MSS transfer streams")                                          \
  X(std::uint64_t, seed, 1, "seed", "failure-injection / policy seed")        \
  /* With 0 the hint still saturates at the UINT32_MAX wire field. */         \
  X(std::uint32_t, retry_after_cap_ms, 60000, "retry-cap-ms",                 \
    "cap on the QueueFull retry-after hint (0 = uncapped)")                   \
  X(std::size_t, span_capacity, 1024, "span-capacity",                        \
    "per-request spans kept for debugging (0 disables)")                      \
  /* The serving hot path defaults to Incremental (per-decision cost stays    \
     ~flat as the history grows); shadow_diff and the sched_sim               \
     equivalence suites pin its decisions against Reference. */               \
  X(SelectEngine, engine, SelectEngine::Incremental, "engine",                \
    "optfb selection engine: reference|incremental")                          \
  /* Entries admitted under one admission-lock hold (the paper's              \
     admission-queue scheduling, batched): 1 replays the serial server        \
     exactly; larger values amortize the lock and the selection re-score      \
     across up to this many grants with identical decisions. */               \
  X(std::size_t, admission_batch, 8, "admission-batch",                       \
    "queue entries admitted per drain pass (1 = serial)")                     \
  /* Needs a policy_factory that honors it, e.g. the serving tools'           \
     wiring through testing::make_shadow_policy; a divergence throws out      \
     of acquire(). */                                                         \
  X(bool, shadow_diff, false, "shadow-diff",                                  \
    "run the Reference engine in lock-step shadow and assert "                \
    "bit-identical decisions (debug)")                                        \
  /* Reported in HelloReply; 0 for a standalone fbcd. */                      \
  X(std::uint32_t, shard_id, 0, "shard-id",                                   \
    "this server's position in its cluster")
// clang-format on

/// BundleServer's histograms, one row each: X(member, "metric name").
/// The rows are sorted by name, the order metrics() exports them in.
// clang-format off
#define FBC_SERVER_HISTOGRAMS(X)                                              \
  /* Blocked on an overlapping transfer. */                                   \
  X(coalesce_us_, "acquire.coalesce_us")                                      \
  X(fetch_us_, "acquire.fetch_us")        /* reserve -> bundle resident */    \
  X(queue_depth_, "acquire.queue_depth")  /* waiters ahead at enqueue */      \
  X(queue_us_, "acquire.queue_us")        /* enqueue -> admission */          \
  /* Admission -> space reserved and leased. */                               \
  X(reserve_us_, "acquire.reserve_us")                                        \
  X(total_us_, "acquire.total_us")        /* enqueue -> grant */              \
  /* Admissions per non-empty drain pass. */                                  \
  X(batch_size_, "admit.batch_size")                                          \
  X(hold_us_, "lease.hold_us")            /* grant -> release */
// clang-format on

/// Configuration of the serving layer.
struct ServiceConfig {
  FBC_SERVICE_CONFIG_FIELDS(FBC_CONFIG_MEMBER)
  /// Optional policy constructor override. When set, the server builds
  /// its replacement policy through this hook instead of make_policy --
  /// the seam the shadow_diff mode and the deterministic test harness use
  /// to inject instrumented policies without the service library
  /// depending on the testing library.
  std::function<PolicyPtr(const std::string&, const PolicyContext&)>
      policy_factory;
};

/// Thread-safe bundle-serving layer (see file comment).
class BundleServer : public ServingEndpoint {
 public:
  /// `mss` must outlive the server. Throws std::invalid_argument for a
  /// zero queue bound or an unknown policy name.
  BundleServer(const ServiceConfig& config, const StorageBackend& mss);
  ~BundleServer() override;

  BundleServer(const BundleServer&) = delete;
  BundleServer& operator=(const BundleServer&) = delete;

  /// Blocks until the bundle is resident and leased, the queue rejects it,
  /// or the timeout expires. Safe to call from any number of threads.
  [[nodiscard]] AcquireResult acquire(const Request& request) override;

  /// Returns as soon as the request is admitted (pinned under its lease,
  /// transfer in flight) or refused; finish() on the reservation waits
  /// out the fetch and returns the grant. A reservation dropped unfinished
  /// still runs its fetch phase, in the destructor.
  [[nodiscard]] Reservation reserve(const Request& request) override;

  /// Releases a lease. Returns false for unknown ids. Wakes queued
  /// admissions that were waiting for pinned bytes to free up.
  bool release(LeaseId lease) override;

  /// Wakes every queued waiter with AcquireStatus::Closed and rejects
  /// future acquires. release()/stats()/audit() keep working.
  void close() override;

  /// Test hook for the deterministic scheduling harness: while paused, no
  /// drain pass runs, so acquires enqueue (or reject on a full queue) but
  /// never admit. Unpausing wakes every waiter and drains normally. The
  /// hook makes queue composition -- and therefore the admission order,
  /// which is a pure function of queue content under mu_ -- independent
  /// of thread scheduling.
  void set_admission_paused(bool paused);

  [[nodiscard]] bool admission_paused() const;

  /// Consistent counter snapshot.
  [[nodiscard]] ServiceStats stats() const override;

  /// Full observability snapshot: stats() plus named counters and the
  /// per-stage latency/size histograms (the MsgType::MetricsReply body).
  /// Histogram counts tie to stats() once in-flight acquires have
  /// returned: every acquire.{queue,reserve,fetch,total}_us histogram
  /// then holds exactly `requests` observations and lease.hold_us holds
  /// `leases_released`. acquire.coalesce_us counts only grants that
  /// blocked on an overlapping transfer, and admit.batch_size counts
  /// drain passes that admitted at least one waiter.
  [[nodiscard]] MetricsSnapshot metrics() const override;

  /// A single shard: shard_id from the config, shard_count 1.
  [[nodiscard]] EndpointInfo info() const override {
    return {EndpointRole::Shard, config_.shard_id, 1};
  }

  /// Sorted snapshot of the resident file set. The deterministic
  /// scheduling harness (testing/sched_sim) compares this as the "final
  /// cache state" between batched and serial replays of one schedule.
  [[nodiscard]] std::vector<FileId> resident_files() const;

  /// Files of transfers registered in-flight and not yet retired by their
  /// fetch phase (0 once every reservation is finished).
  [[nodiscard]] std::size_t in_flight_files() const {
    return coalescer_.in_flight();
  }

  /// Most recent per-request spans, oldest first (bounded by
  /// ServiceConfig::span_capacity).
  [[nodiscard]] std::vector<obs::ServingSpan> spans() const {
    return spans_.snapshot();
  }

  /// Independently re-checks the serving invariants (capacity and pinned
  /// byte accounting, each resident file's pin count against its covering
  /// leases, residency of leased bundles, counter consistency) and
  /// returns human-readable violations -- empty when healthy, in a
  /// deterministic order. The checks mirror testing::InvariantAuditor's
  /// classes.
  [[nodiscard]] std::vector<std::string> audit() const;

  [[nodiscard]] const ServiceConfig& config() const noexcept {
    return config_;
  }

 private:
  struct Waiter {
    enum class State {
      Queued,    ///< in queue_, not yet admitted
      Admitted,  ///< reserved + leased by a drain pass; owner runs the fetch
      Backoff,   ///< failed a transfer draw; sleeping before re-queueing
    };

    const Request* request = nullptr;
    Bytes bundle_bytes = 0;
    std::uint64_t admissions_at_enqueue = 0;
    State state = State::Queued;
    /// Outcome of admission, filled in by the draining thread (which may
    /// be a different thread than the waiter's own) under mu_.
    LeaseId lease = 0;
    bool request_hit = false;
    Bytes missing_bytes = 0;
    /// Files this admission actually stages: those missing at reserve
    /// time, then the policy's prefetched ones (which no lease pins). The
    /// coalescer keys in-flight transfers on them.
    std::vector<FileId> fetched;
    std::uint32_t failed_attempts = 0;
    /// Stage boundary instants stamped by the draining thread so span
    /// timings survive batched admission (the waiter may be asleep in
    /// cv_.wait while another thread admits it).
    std::chrono::steady_clock::time_point t_admit{};
    std::chrono::steady_clock::time_point t_reserved{};
    /// When the fetched bytes are staged: admission plus the scaled stage
    /// time. Left at the clock's epoch for a hit, which fetches nothing,
    /// and at time_scale 0, where staging takes no time.
    std::chrono::steady_clock::time_point ready_at{};
  };

  /// One acquire between its two phases: what reserve_phase() hands to
  /// fetch_phase(). A status other than Ok is a final refusal.
  struct Admission {
    const Request* request = nullptr;
    AcquireResult result;
    obs::ServingSpan span;
    std::chrono::steady_clock::time_point t0{};
    std::chrono::steady_clock::time_point t_admit{};
    std::chrono::steady_clock::time_point t_reserved{};
    std::chrono::steady_clock::time_point ready_at{};
    std::vector<FileId> fetched;
  };

  /// The PendingGrant reserve() returns: runs fetch_phase() once.
  class Grant;

  /// Queue, admission and reserve: everything up to the lease. Refusals
  /// (closed, invalid, unserviceable, queue full, timed out, transfer
  /// failed) are counted and spanned here.
  [[nodiscard]] Admission reserve_phase(const Request& request);

  /// Sleeps until the reserved transfer's ready instant, retires it,
  /// waits for overlapping transfers, records the grant and returns it.
  /// Returns a refusal unchanged.
  [[nodiscard]] AcquireResult fetch_phase(Admission& admission);

  /// Index into queue_ of the next request to admit under config_.order.
  // fbc:requires(mu_)
  [[nodiscard]] std::size_t choose_locked() const;

  /// True when `request` could be admitted right now: its missing bytes
  /// fit into free space plus what evicting every unpinned non-bundle
  /// resident file would release.
  // fbc:requires(mu_)
  [[nodiscard]] bool fits_locked(const Request& request) const;

  /// Admits up to config_.admission_batch queued waiters in the exact
  /// order the serial server would (choose_locked -> failure draw ->
  /// fits_locked -> admit), marking each Admitted and notifying. Stops
  /// early when the chosen head does not fit, is backing off, or fails
  /// its transfer draw (head-of-line semantics are part of the decision
  /// contract). Returns the number admitted.
  // fbc:requires(mu_)
  std::size_t drain_locked();

  /// Runs admit() (victims, missing and prefetched files, metrics),
  /// grants the lease and registers the transfer with its ready instant,
  /// filling in the waiter's admission outcome.
  // fbc:requires(mu_)
  void admit_locked(Waiter& waiter);

  /// Counts the outcome under obs_mu_ and records the span (error paths;
  /// the Ok-grant path folds its counter bump into the same obs_mu_
  /// section as the duration histograms so a grant costs one lock).
  void finish_span(obs::ServingSpan span, AcquireStatus status,
                   std::string_view counter);

  ServiceConfig config_;
  const StorageBackend* mss_;
  TransferModel transfers_;

  // Admission lock (level 10 in the docs/SERVING.md lock hierarchy).
  // fbc:lock-level(10)
  // fbc:guards(cache_, policy_, metrics_, fail_rng_, queue_, admissions_)
  // fbc:guards(rejected_full_, timed_out_, invalid_, transfer_retries_)
  // fbc:guards(transfer_failures_, released_, closed_, paused_, leases_)
  mutable OrderedMutex mu_{10, "BundleServer::mu_"};
  std::condition_variable_any cv_;
  DiskCache cache_;
  PolicyPtr policy_;
  CacheMetrics metrics_;
  LeaseTable leases_;
  FetchCoalescer coalescer_;
  Rng fail_rng_;
  std::deque<Waiter*> queue_;
  std::uint64_t admissions_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t invalid_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::uint64_t transfer_failures_ = 0;
  std::uint64_t released_ = 0;
  bool closed_ = false;
  bool paused_ = false;  ///< test hook: freeze drain passes (see setter)

  std::atomic<std::uint64_t> request_seq_ = 0;

  /// Observability state. Guarded by obs_mu_, which is always acquired
  /// *after* mu_ (never the reverse -- level 40 vs 10) and held only for
  /// O(1) recording.
  // fbc:lock-level(40)
  // fbc:guards(counters_, queue_us_, reserve_us_, fetch_us_, coalesce_us_)
  // fbc:guards(total_us_, hold_us_, queue_depth_, batch_size_)
  // fbc:guards(acquire_ok_slot_, release_ok_slot_, release_unknown_slot_)
  // fbc:guards(transfers_slot_, coalesced_slot_)
  // A method that expands the histogram rows touches every histogram:
  // fbc:guards(FBC_SERVER_HISTOGRAMS)
  mutable OrderedMutex obs_mu_{40, "BundleServer::obs_mu_"};
  obs::CounterRegistry counters_;  ///< acquire.* / release.* outcomes
#define FBC_HISTOGRAM_MEMBER(member, name) obs::Histogram member;
  FBC_SERVER_HISTOGRAMS(FBC_HISTOGRAM_MEMBER)
#undef FBC_HISTOGRAM_MEMBER
  obs::SpanRecorder spans_;        ///< bounded ring (config.span_capacity)
  /// Pre-resolved cells for the per-grant counters (CounterRegistry::slot
  /// pointers into counters_; map nodes are stable). Bumped under obs_mu_
  /// exactly like counters_.add(), minus the string lookup per request.
  std::uint64_t* acquire_ok_slot_;
  std::uint64_t* release_ok_slot_;
  std::uint64_t* release_unknown_slot_;
  std::uint64_t* transfers_slot_;
  std::uint64_t* coalesced_slot_;
};

}  // namespace fbc::service
