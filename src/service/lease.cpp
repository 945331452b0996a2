#include "service/lease.hpp"

#include <algorithm>

namespace fbc::service {

LeaseId LeaseTable::grant(const Request& request, DiskCache& cache) {
  for (FileId id : request.files) cache.pin(id);
  const LeaseId lease = next_++;
  leases_.emplace(lease, request);
  return lease;
}

bool LeaseTable::release(LeaseId id, DiskCache& cache) {
  const auto it = leases_.find(id);
  if (it == leases_.end()) return false;
  for (FileId file : it->second.files) cache.unpin(file);
  leases_.erase(it);
  return true;
}

bool LeaseTable::covers(FileId id) const noexcept {
  // fbclint:ignore(L005) -- membership test only, order-independent.
  for (const auto& [lease, request] : leases_) {
    if (request.contains(id)) return true;
  }
  return false;
}

const Request* LeaseTable::bundle(LeaseId id) const noexcept {
  const auto it = leases_.find(id);
  return it == leases_.end() ? nullptr : &it->second;
}

void LeaseTable::release_all(DiskCache& cache) {
  // fbclint:ignore(L005) -- unpin order does not affect any outcome.
  for (const auto& [lease, request] : leases_) {
    for (FileId file : request.files) cache.unpin(file);
  }
  leases_.clear();
}

ShardedLeaseTable::ShardedLeaseTable(std::size_t shards)
    : shards_(std::max<std::size_t>(1, shards)),
      file_shards_(std::max<std::size_t>(1, shards)) {}

void ShardedLeaseTable::add_cover(const Request& request) {
  for (FileId id : request.files) {
    FileShard& shard = file_shard(id);
    std::lock_guard<OrderedMutex> lock(shard.file_mu);
    ++shard.covers[id];
  }
}

void ShardedLeaseTable::drop_cover(const Request& request) {
  for (FileId id : request.files) {
    FileShard& shard = file_shard(id);
    std::lock_guard<OrderedMutex> lock(shard.file_mu);
    const auto it = shard.covers.find(id);
    if (it != shard.covers.end() && --it->second == 0) shard.covers.erase(it);
  }
}

LeaseId ShardedLeaseTable::grant(const Request& request) {
  const LeaseId id = next_.fetch_add(1, std::memory_order_acq_rel);
  {
    LeaseShard& shard = lease_shard(id);
    std::lock_guard<OrderedMutex> lock(shard.lease_mu);
    shard.leases.emplace(id, request);
  }
  add_cover(request);
  active_.fetch_add(1, std::memory_order_acq_rel);
  return id;
}

std::optional<Request> ShardedLeaseTable::take(LeaseId id) {
  std::optional<Request> bundle;
  {
    LeaseShard& shard = lease_shard(id);
    std::lock_guard<OrderedMutex> lock(shard.lease_mu);
    const auto it = shard.leases.find(id);
    if (it == shard.leases.end()) return std::nullopt;
    bundle = std::move(it->second);
    shard.leases.erase(it);
  }
  drop_cover(*bundle);
  active_.fetch_sub(1, std::memory_order_acq_rel);
  return bundle;
}

bool ShardedLeaseTable::covers(FileId id) const {
  return cover_count(id) > 0;
}

std::uint32_t ShardedLeaseTable::cover_count(FileId id) const {
  const FileShard& shard = file_shard(id);
  std::lock_guard<OrderedMutex> lock(shard.file_mu);
  const auto it = shard.covers.find(id);
  return it == shard.covers.end() ? 0 : it->second;
}

std::optional<Request> ShardedLeaseTable::bundle(LeaseId id) const {
  const LeaseShard& shard = lease_shard(id);
  std::lock_guard<OrderedMutex> lock(shard.lease_mu);
  const auto it = shard.leases.find(id);
  if (it == shard.leases.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<LeaseId, Request>> ShardedLeaseTable::snapshot() const {
  std::vector<std::pair<LeaseId, Request>> out;
  for (const LeaseShard& shard : shards_) {
    std::lock_guard<OrderedMutex> lock(shard.lease_mu);
    // fbclint:ignore(L005) -- collection only; callers sort by lease id.
    for (const auto& [id, request] : shard.leases) out.emplace_back(id, request);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<Request> ShardedLeaseTable::take_all() {
  std::vector<Request> bundles;
  for (auto& [id, request] : snapshot()) {
    std::optional<Request> taken = take(id);
    if (taken.has_value()) bundles.push_back(std::move(*taken));
  }
  return bundles;
}

}  // namespace fbc::service
