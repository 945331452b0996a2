#include "service/coalesce.hpp"

#include <algorithm>

namespace fbc::service {

void FetchCoalescer::begin_fetch(std::span<const FileId> files,
                                 Clock::time_point ready_at) {
  if (files.empty()) return;
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  ++transfers_;
  for (FileId id : files) {
    Flight& flight = in_flight_[id];
    flight.ready_at =
        flight.owners == 0 ? ready_at : std::max(flight.ready_at, ready_at);
    ++flight.owners;
  }
}

void FetchCoalescer::complete_fetch(std::span<const FileId> files) {
  if (files.empty()) return;
  {
    std::lock_guard<OrderedMutex> lock(inflight_mu_);
    for (FileId id : files) {
      const auto it = in_flight_.find(id);
      if (it != in_flight_.end() && --it->second.owners == 0)
        in_flight_.erase(it);
    }
  }
  cv_.notify_all();
}

CoalesceWait FetchCoalescer::wait_for(std::span<const FileId> files) {
  CoalesceWait result;
  if (files.empty()) return result;
  std::unique_lock<OrderedMutex> lock(inflight_mu_);
  // A file past its ready instant has arrived, retired or not.
  const auto pending = [&](FileId id, Clock::time_point now) {
    const auto it = in_flight_.find(id);
    return it != in_flight_.end() && it->second.ready_at > now;
  };
  const bool overlap =
      std::any_of(files.begin(), files.end(),
                  [&](FileId id) { return in_flight_.count(id) != 0; });
  if (!overlap) return result;  // the fast path reads no clock
  const auto start = Clock::now();
  std::size_t overlapping = 0;
  Clock::time_point latest = start;
  for (FileId id : files) {
    if (!pending(id, start)) continue;
    ++overlapping;
    latest = std::max(latest, in_flight_.find(id)->second.ready_at);
  }
  if (overlapping == 0) return result;
  ++coalesced_waits_;
  result.waited_files = overlapping;
  const auto arrived = [&] {
    const auto now = Clock::now();
    return std::none_of(files.begin(), files.end(),
                        [&](FileId id) { return pending(id, now); });
  };
  if (latest == Clock::time_point::max())
    cv_.wait(lock, arrived);
  else
    cv_.wait_until(lock, latest, arrived);
  result.wait_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
  return result;
}

std::uint64_t FetchCoalescer::transfers() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return transfers_;
}

std::uint64_t FetchCoalescer::coalesced_waits() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return coalesced_waits_;
}

std::size_t FetchCoalescer::in_flight() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return in_flight_.size();
}

}  // namespace fbc::service
