#include "service/coalesce.hpp"

#include <algorithm>

namespace fbc::service {

void FetchCoalescer::begin_fetch(std::span<const FileId> files,
                                 Clock::time_point ready_at) {
  if (files.empty()) return;
  const FileId largest = *std::max_element(files.begin(), files.end());
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  ++transfers_;
  if (flights_.size() <= largest) flights_.resize(largest + 1);
  for (FileId id : files) {
    Flight& flight = flights_[id];
    if (flight.owners++ == 0) {
      flight.ready_at = ready_at;
      ++in_flight_;
    } else {
      flight.ready_at = std::max(flight.ready_at, ready_at);
    }
  }
}

void FetchCoalescer::complete_fetch(std::span<const FileId> files) {
  if (files.empty()) return;
  {
    std::lock_guard<OrderedMutex> lock(inflight_mu_);
    for (FileId id : files) {
      if (id >= flights_.size() || flights_[id].owners == 0) continue;
      if (--flights_[id].owners == 0) --in_flight_;
    }
  }
  cv_.notify_all();
}

bool FetchCoalescer::pending_locked(FileId id, Clock::time_point now) const {
  // A file past its ready instant has arrived, retired or not.
  return id < flights_.size() && flights_[id].owners > 0 &&
         flights_[id].ready_at > now;
}

CoalesceWait FetchCoalescer::wait_for(std::span<const FileId> files) {
  CoalesceWait result;
  if (files.empty()) return result;
  std::unique_lock<OrderedMutex> lock(inflight_mu_);
  if (in_flight_ == 0) return result;  // the fast path reads no clock
  const auto start = Clock::now();
  std::size_t overlapping = 0;
  Clock::time_point latest = start;
  for (FileId id : files) {
    if (!pending_locked(id, start)) continue;
    ++overlapping;
    latest = std::max(latest, flights_[id].ready_at);
  }
  if (overlapping == 0) return result;
  ++coalesced_waits_;
  result.waited_files = overlapping;
  const auto arrived = [&] {
    const auto now = Clock::now();
    return std::none_of(files.begin(), files.end(),
                        [&](FileId id) { return pending_locked(id, now); });
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
  return in_flight_;
}

std::size_t FetchCoalescer::table_size() const {
  std::lock_guard<OrderedMutex> lock(inflight_mu_);
  return flights_.size();
}

}  // namespace fbc::service
