#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "cache/simulator.hpp"
#include "core/registry.hpp"
#include "util/log.hpp"

namespace fbc::service {

namespace {

using Clock = std::chrono::steady_clock;

/// Bounded exponential backoff: base * 2^(attempt-1), capped at 8x base.
std::chrono::milliseconds backoff_for(std::uint32_t base_ms,
                                      std::uint32_t attempt) {
  const std::uint32_t shift = std::min<std::uint32_t>(attempt - 1, 3);
  return std::chrono::milliseconds(
      static_cast<std::uint64_t>(base_ms) << shift);
}

/// Elapsed microseconds between two steady_clock instants, clamped to 0.
std::uint64_t us_between(Clock::time_point from, Clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(to - from)
          .count());
}

}  // namespace

AdmitOrder parse_admit_order(const std::string& name) {
  if (name == "fifo") return AdmitOrder::Fifo;
  if (name == "value") return AdmitOrder::ValueDensity;
  throw std::invalid_argument("unknown admit order '" + name +
                              "' (expected fifo|value)");
}

BundleServer::BundleServer(const ServiceConfig& config,
                           const StorageBackend& mss)
    : config_(config),
      mss_(&mss),
      transfers_{.max_parallel = config.transfer_streams},
      cache_(config.cache_bytes, mss.catalog()),
      fail_rng_(config.seed ^ 0xf3f3f3f3f3f3f3f3ULL),
      spans_(config.span_capacity),
      acquire_ok_slot_(counters_.slot("acquire.ok")),
      release_ok_slot_(counters_.slot("release.ok")),
      release_unknown_slot_(counters_.slot("release.unknown")),
      transfers_slot_(counters_.slot("fetch.transfers")),
      coalesced_slot_(counters_.slot("acquire.coalesced")) {
  if (config_.max_queue == 0)
    throw std::invalid_argument("BundleServer: max_queue must be >= 1");
  if (config_.admission_batch == 0)
    throw std::invalid_argument("BundleServer: admission_batch must be >= 1");
  PolicyContext context;
  context.catalog = &mss.catalog();
  context.seed = config.seed;
  context.select_engine = config_.engine;
  policy_ = config_.policy_factory
                ? config_.policy_factory(config_.policy, context)
                : make_policy(config_.policy, context);
}

BundleServer::~BundleServer() { close(); }

void BundleServer::close() {
  std::lock_guard<OrderedMutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

void BundleServer::set_admission_paused(bool paused) {
  std::lock_guard<OrderedMutex> lock(mu_);
  paused_ = paused;
  cv_.notify_all();
}

bool BundleServer::admission_paused() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  return paused_;
}

std::size_t BundleServer::choose_locked() const {
  if (config_.order == AdmitOrder::Fifo || queue_.size() <= 1) return 0;
  // ValueDensity: the request with the highest already-resident byte
  // fraction is the cheapest to admit; FIFO breaks ties (strictly-better
  // only), so equal-density requests cannot starve each other.
  std::size_t best = 0;
  double best_density = -1.0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const Waiter& w = *queue_[i];
    Bytes resident = 0;
    for (FileId id : w.request->files) {
      if (cache_.contains(id)) resident += mss_->catalog().size_of(id);
    }
    const double density =
        w.bundle_bytes == 0
            ? 1.0
            : static_cast<double>(resident) /
                  static_cast<double>(w.bundle_bytes);
    if (density > best_density) {
      best = i;
      best_density = density;
    }
  }
  return best;
}

bool BundleServer::fits_locked(const Request& request) const {
  const Bytes missing = cache_.missing_bytes(request);
  if (missing <= cache_.free_bytes()) return true;
  // Everything resident is evictable except pinned files and the
  // request's own resident files (which stay for the job).
  Bytes evictable = cache_.used_bytes() - cache_.pinned_bytes();
  for (FileId id : request.files) {
    if (cache_.contains(id) && !cache_.pinned(id))
      evictable -= mss_->catalog().size_of(id);
  }
  return missing <= cache_.free_bytes() + evictable;
}

void BundleServer::admit_locked(Waiter& waiter) {
  const Request& request = *waiter.request;
  AdmitOutcome admitted = admit(request, cache_, *policy_, metrics_);
  waiter.request_hit = admitted.request_hit;
  waiter.missing_bytes = admitted.missing_bytes;
  if (!admitted.fetched.empty()) {
    // At time_scale 0 staging is instantaneous: the default ready
    // instant (the clock's epoch) has always passed.
    if (config_.time_scale > 0.0)
      waiter.ready_at =
          Clock::now() +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(
                  transfers_.stage_seconds(admitted.fetched, *mss_) *
                  config_.time_scale));
    // Register the transfer (demand and prefetched files alike) as
    // in-flight before anyone else can be granted an overlapping bundle:
    // begin_fetch under mu_ closes the window between "reserved (files
    // look resident)" and "in-flight set updated". The coalescer mutex is
    // a leaf, so mu_ -> coalescer is the only order that ever occurs.
    coalescer_.begin_fetch(admitted.fetched, waiter.ready_at);
  }
  waiter.fetched = std::move(admitted.fetched);
  // The grant instant ends the reserve stage and starts lease.hold_us.
  waiter.t_reserved = Clock::now();
  waiter.lease = leases_.grant(request, cache_, waiter.t_reserved);
}

std::size_t BundleServer::drain_locked() {
  if (paused_ || closed_) return 0;
  std::size_t admitted = 0;
  while (admitted < config_.admission_batch && !queue_.empty()) {
    const std::size_t idx = choose_locked();
    Waiter& head = *queue_[idx];
    // A head sleeping off a failed transfer attempt blocks the line, just
    // as it does in the serial server (where it holds its place in queue_
    // across the backoff sleep).
    if (head.state == Waiter::State::Backoff) break;
    if (!fits_locked(*head.request)) break;
    // The simulated MSS transfer draw for this attempt happens *before*
    // the reserve, exactly as in the serial path, so a failed attempt
    // leaves the cache untouched. Only the chosen head ever draws, which
    // keeps the fail_rng_ sequence identical across batch sizes.
    if (config_.transfer_fail_prob > 0.0 &&
        fail_rng_.bernoulli(config_.transfer_fail_prob)) {
      ++head.failed_attempts;
      head.state = Waiter::State::Backoff;
      cv_.notify_all();
      break;  // head-of-line: nothing behind it admits this pass
    }
    head.t_admit = Clock::now();
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));
    metrics_.record_queue_wait(
        static_cast<double>(admissions_ - head.admissions_at_enqueue));
    admit_locked(head);
    ++admissions_;
    head.state = Waiter::State::Admitted;
    ++admitted;
  }
  if (admitted > 0) {
    cv_.notify_all();
    std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
    batch_size_.record(admitted);
  }
  return admitted;
}

/// The fetch phase of a reserve(): runs fetch_phase() exactly once, from
/// finish() or, for a reservation dropped unfinished, from the destructor
/// (so its transfer is still retired and its grant still recorded).
class BundleServer::Grant final : public PendingGrant {
 public:
  Grant(BundleServer& server, Admission admission)
      : server_(&server), admission_(std::move(admission)) {}

  Grant(const Grant&) = delete;
  Grant& operator=(const Grant&) = delete;

  ~Grant() override {
    if (finished_) return;
    try {
      (void)server_->fetch_phase(admission_);
    } catch (const std::exception& e) {
      FBC_LOG(Warn) << "BundleServer: unfinished reservation: " << e.what();
    }
  }

  AcquireResult finish() override {
    finished_ = true;
    return server_->fetch_phase(admission_);
  }

 private:
  BundleServer* server_;
  Admission admission_;
  bool finished_ = false;
};

AcquireResult BundleServer::acquire(const Request& request) {
  Admission admission = reserve_phase(request);
  return fetch_phase(admission);
}

Reservation BundleServer::reserve(const Request& request) {
  Admission admission = reserve_phase(request);
  if (admission.result.status != AcquireStatus::Ok)
    return {admission.result, nullptr};
  const AcquireResult reserved = admission.result;
  return {reserved, std::make_unique<Grant>(*this, std::move(admission))};
}

BundleServer::Admission BundleServer::reserve_phase(const Request& request) {
  Admission admission;
  admission.request = &request;
  admission.t0 = Clock::now();
  const auto t0 = admission.t0;
  obs::ServingSpan& span = admission.span;
  span.request_id = request_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  span.files = static_cast<std::uint32_t>(request.size());

  AcquireResult& result = admission.result;
  const FileCatalog& catalog = mss_->catalog();
  const bool valid =
      !request.empty() &&
      std::all_of(request.files.begin(), request.files.end(),
                  [&](FileId id) { return catalog.valid(id); });

  std::unique_lock<OrderedMutex> lock(mu_);
  if (closed_) {
    result.status = AcquireStatus::Closed;
    span.total_us = us_between(t0, Clock::now());
    finish_span(span, result.status, "acquire.closed");
    return admission;
  }
  if (!valid) {
    ++invalid_;
    result.status = AcquireStatus::InvalidRequest;
    span.total_us = us_between(t0, Clock::now());
    finish_span(span, result.status, "acquire.invalid");
    return admission;
  }
  const Bytes bundle_bytes = catalog.request_bytes(request);
  span.bundle_bytes = bundle_bytes;
  if (bundle_bytes > cache_.capacity()) {
    metrics_.record_unserviceable();
    result.status = AcquireStatus::Unserviceable;
    span.total_us = us_between(t0, Clock::now());
    finish_span(span, result.status, "acquire.unserviceable");
    return admission;
  }
  if (queue_.size() >= config_.max_queue) {
    ++rejected_full_;
    result.status = AcquireStatus::QueueFull;
    // Load-proportional hint: deeper queue, longer suggested wait. The
    // product is computed in 64 bits and saturated at the config cap (and
    // at UINT32_MAX, the wire field's range) -- a large backoff times a
    // deep queue must never wrap into a tiny hint (a retry storm).
    const std::uint64_t hint =
        std::max<std::uint64_t>(1, config_.retry_backoff_ms) *
        (1 + static_cast<std::uint64_t>(queue_.size()));
    const std::uint64_t cap =
        config_.retry_after_cap_ms == 0
            ? std::numeric_limits<std::uint32_t>::max()
            : config_.retry_after_cap_ms;
    result.retry_after_ms = static_cast<std::uint32_t>(std::min(hint, cap));
    span.queue_depth = static_cast<std::uint32_t>(queue_.size());
    span.total_us = us_between(t0, Clock::now());
    finish_span(span, result.status, "acquire.queue_full");
    return admission;
  }
  span.queue_depth = static_cast<std::uint32_t>(queue_.size());

  Waiter waiter;
  waiter.request = &request;
  waiter.bundle_bytes = bundle_bytes;
  waiter.admissions_at_enqueue = admissions_;
  queue_.push_back(&waiter);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(config_.timeout_ms);
  auto leave_queue = [&] {
    queue_.erase(std::find(queue_.begin(), queue_.end(), &waiter));
    cv_.notify_all();
  };

  // Admission loop. Whichever waiter thread holds mu_ drains the queue
  // (drain_locked) for everyone, so this thread may be admitted while
  // asleep in cv_.wait -- after every wake the *state* decides, never the
  // wait's own return reason (a timeout that raced an admission must
  // still take the grant: the lease already exists).
  for (;;) {
    if (waiter.state == Waiter::State::Admitted) break;
    if (closed_) {
      leave_queue();
      result.status = AcquireStatus::Closed;
      span.queue_us = us_between(t0, Clock::now());
      span.total_us = span.queue_us;
      finish_span(span, result.status, "acquire.closed");
      return admission;
    }
    if (waiter.state == Waiter::State::Backoff) {
      // A drain pass chose this waiter and its transfer draw failed.
      if (waiter.failed_attempts > config_.max_retries) {
        ++transfer_failures_;
        leave_queue();
        result.status = AcquireStatus::TransferFailed;
        result.retries = waiter.failed_attempts - 1;
        span.queue_us = us_between(t0, Clock::now());
        span.total_us = span.queue_us;
        finish_span(span, result.status, "acquire.transfer_failed");
        return admission;
      }
      ++transfer_retries_;
      const auto backoff =
          backoff_for(config_.retry_backoff_ms, waiter.failed_attempts);
      lock.unlock();  // keep our place in queue_, release mu_ for the sleep
      std::this_thread::sleep_for(backoff);
      lock.lock();
      waiter.state = Waiter::State::Queued;
      drain_locked();
      continue;
    }
    // A drain pass can change *our own* state (admit us, or mark us
    // Backoff after a failed draw) -- re-check before sleeping, or the
    // notify that happened inside drain_locked is a lost wakeup.
    if (drain_locked() > 0 || waiter.state != Waiter::State::Queued) continue;
    const auto wait_result = cv_.wait_until(lock, deadline);
    if (waiter.state != Waiter::State::Queued) continue;
    if (wait_result == std::cv_status::timeout) {
      leave_queue();
      ++timed_out_;
      result.status = AcquireStatus::TimedOut;
      result.retries = waiter.failed_attempts;
      span.queue_us = us_between(t0, Clock::now());
      span.total_us = span.queue_us;
      finish_span(span, result.status, "acquire.timed_out");
      return admission;
    }
  }

  result.status = AcquireStatus::Ok;
  result.lease = waiter.lease;
  result.request_hit = waiter.request_hit;
  result.retries = waiter.failed_attempts;
  span.missing_bytes = waiter.missing_bytes;
  admission.fetched = std::move(waiter.fetched);
  admission.t_admit = waiter.t_admit;
  admission.t_reserved = waiter.t_reserved;
  admission.ready_at = waiter.ready_at;
  return admission;
}

AcquireResult BundleServer::fetch_phase(Admission& admission) {
  AcquireResult result = admission.result;
  if (result.status != AcquireStatus::Ok) return result;
  obs::ServingSpan& span = admission.span;
  const std::vector<FileId>& fetched = admission.fetched;

  // Fetch phase: the bundle is reserved (pinned), so the simulated
  // transfer can proceed without the lock while other admissions overlap.
  // It ends at the ready instant stamped at admission, however long this
  // thread took to get here.
  if (!fetched.empty()) {
    if (config_.time_scale > 0.0)
      std::this_thread::sleep_until(admission.ready_at);
    coalescer_.complete_fetch(fetched);
  }
  const auto t_fetched = Clock::now();
  // Our own files are complete by now; this blocks only when another
  // admission's transfer still has part of our bundle in flight.
  const CoalesceWait cwait = coalescer_.wait_for(admission.request->files);

  const auto t_end = Clock::now();
  span.queue_us = us_between(admission.t0, admission.t_admit);
  span.reserve_us = us_between(admission.t_admit, admission.t_reserved);
  span.fetch_us = us_between(admission.t_reserved, t_fetched);
  span.coalesce_us = cwait.wait_us;
  span.total_us = us_between(admission.t0, t_end);
  {
    // Duration histograms are Ok-grants only: their counts tie to
    // stats().requests once in-flight acquires have drained.
    std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
    queue_us_.record(span.queue_us);
    reserve_us_.record(span.reserve_us);
    fetch_us_.record(span.fetch_us);
    total_us_.record(span.total_us);
    queue_depth_.record(span.queue_depth);
    if (!fetched.empty()) ++*transfers_slot_;
    if (cwait.waited_files > 0) {
      ++*coalesced_slot_;
      coalesce_us_.record(span.coalesce_us);
    }
    ++*acquire_ok_slot_;
  }
  span.status = static_cast<std::uint8_t>(result.status);
  spans_.record(span);
  return result;
}

bool BundleServer::release(LeaseId lease) {
  std::unique_lock<OrderedMutex> lock(mu_);
  // The lease and its pins go together under mu_, so audits and
  // admissions never see one without the other.
  Clock::time_point granted_at;
  if (!leases_.release(lease, cache_, &granted_at)) {
    lock.unlock();
    std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
    ++*release_unknown_slot_;
    return false;
  }
  ++released_;
  cv_.notify_all();
  lock.unlock();
  const std::uint64_t held_us = us_between(granted_at, Clock::now());
  std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
  ++*release_ok_slot_;
  hold_us_.record(held_us);
  return true;
}

void BundleServer::finish_span(obs::ServingSpan span, AcquireStatus status,
                               std::string_view counter) {
  span.status = static_cast<std::uint8_t>(status);
  {
    std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
    counters_.add(counter);
  }
  spans_.record(span);
}

std::vector<FileId> BundleServer::resident_files() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  const auto resident = cache_.resident_files();
  std::vector<FileId> files(resident.begin(), resident.end());
  std::sort(files.begin(), files.end());
  return files;
}

// The decoder rejects a MetricsReply whose histogram names are not
// strictly increasing, so the rows must stay sorted.
#define FBC_HISTOGRAM_NAME(member, name) std::string_view(name),
constexpr std::string_view kHistogramNames[] = {
    FBC_SERVER_HISTOGRAMS(FBC_HISTOGRAM_NAME)};
#undef FBC_HISTOGRAM_NAME
static_assert(std::ranges::adjacent_find(kHistogramNames,
                                         std::greater_equal{}) ==
              std::end(kHistogramNames));

MetricsSnapshot BundleServer::metrics() const {
  MetricsSnapshot m;
  m.stats = stats();
  std::lock_guard<OrderedMutex> obs_lock(obs_mu_);
  m.counters = counters_.snapshot();
#define FBC_EXPORT_HISTOGRAM(member, name) \
  m.histograms.push_back({name, member});
  FBC_SERVER_HISTOGRAMS(FBC_EXPORT_HISTOGRAM)
#undef FBC_EXPORT_HISTOGRAM
  return m;
}

ServiceStats BundleServer::stats() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  ServiceStats s;
  s.requests = metrics_.jobs();
  s.request_hits = metrics_.request_hits();
  s.rejected_full = rejected_full_;
  s.timed_out = timed_out_;
  s.unserviceable = metrics_.unserviceable();
  s.invalid = invalid_;
  s.transfer_retries = transfer_retries_;
  s.transfer_failures = transfer_failures_;
  s.leases_granted = leases_.granted();
  s.leases_released = released_;
  s.active_leases = leases_.active();
  s.queue_depth = queue_.size();
  s.evictions = metrics_.evictions();
  s.bytes_requested = metrics_.bytes_requested();
  s.bytes_missed = metrics_.bytes_missed();
  s.bytes_evicted = metrics_.bytes_evicted();
  s.used_bytes = cache_.used_bytes();
  s.capacity_bytes = cache_.capacity();
  s.resident_files = cache_.file_count();
  return s;
}

std::vector<std::string> BundleServer::audit() const {
  std::lock_guard<OrderedMutex> lock(mu_);
  std::vector<std::string> violations;
  const FileCatalog& catalog = mss_->catalog();

  // Capacity: byte accounting must match a from-scratch recount and never
  // exceed capacity; the resident list must be duplicate-free.
  Bytes recount = 0;
  std::unordered_set<FileId> seen;
  for (FileId id : cache_.resident_files()) {
    recount += catalog.size_of(id);
    if (!seen.insert(id).second)
      violations.push_back("serve.capacity: duplicate resident file " +
                           std::to_string(id));
  }
  if (recount != cache_.used_bytes())
    violations.push_back(
        "serve.capacity: used_bytes " + std::to_string(cache_.used_bytes()) +
        " != recomputed resident sum " + std::to_string(recount));
  if (cache_.used_bytes() > cache_.capacity())
    violations.push_back("serve.capacity: used exceeds capacity");

  // Pins: the incrementally maintained pinned set and byte total must
  // match a from-scratch recount over the resident files.
  std::size_t pinned_count = 0;
  Bytes pinned_recount = 0;
  for (FileId id : cache_.resident_files()) {
    if (!cache_.pinned(id)) continue;
    ++pinned_count;
    pinned_recount += catalog.size_of(id);
  }
  if (pinned_count != cache_.pinned_files().size() ||
      pinned_recount != cache_.pinned_bytes())
    violations.push_back(
        "serve.capacity: pinned set (" +
        std::to_string(cache_.pinned_files().size()) + " files, " +
        std::to_string(cache_.pinned_bytes()) + " bytes) != recount (" +
        std::to_string(pinned_count) + " files, " +
        std::to_string(pinned_recount) + " bytes)");

  // Leases: every leased file must be resident, and each resident file's
  // pin count must equal the number of live leases covering it, counted
  // from scratch by walking the table in lease-id order.
  std::map<FileId, std::uint32_t> covering;
  for (const auto& [lease, held] : leases_.leases()) {
    for (FileId id : held.bundle.files) {
      if (cache_.contains(id))
        ++covering[id];
      else
        violations.push_back("serve.lease: lease " + std::to_string(lease) +
                             " covers non-resident file " +
                             std::to_string(id));
    }
  }
  for (FileId id : cache_.resident_files()) {
    const auto it = covering.find(id);
    const std::uint32_t leases = it == covering.end() ? 0 : it->second;
    if (cache_.pin_count(id) != leases)
      violations.push_back("serve.lease: file " + std::to_string(id) +
                           " has " + std::to_string(cache_.pin_count(id)) +
                           " pins but " + std::to_string(leases) +
                           " covering leases");
  }

  // Accounting: admissions and lease counters must tie out.
  if (leases_.granted() != metrics_.jobs())
    violations.push_back("serve.accounting: leases granted " +
                         std::to_string(leases_.granted()) +
                         " != jobs admitted " +
                         std::to_string(metrics_.jobs()));
  if (leases_.active() != leases_.granted() - released_)
    violations.push_back("serve.accounting: active leases inconsistent");
  if (metrics_.request_hits() > metrics_.jobs())
    violations.push_back("serve.accounting: more hits than jobs");
  if (metrics_.bytes_missed() > metrics_.bytes_requested())
    violations.push_back("serve.accounting: missed > requested bytes");
  return violations;
}

}  // namespace fbc::service
