#include "cluster/shard.hpp"

#include <iterator>
#include <mutex>
#include <utility>

namespace fbc::cluster {

namespace {

/// Moves the connection with `serial` out of `pool` (null if absent).
template <typename Ptr>
Ptr take(std::vector<Ptr>& pool, std::uint64_t serial) {
  for (Ptr& conn : pool) {
    if (conn->serial != serial) continue;
    Ptr taken = std::move(conn);
    conn = std::move(pool.back());
    pool.pop_back();
    return taken;
  }
  return nullptr;
}

}  // namespace

RemoteShard::ConnectionPtr RemoteShard::checkout() const {
  std::uint64_t serial = 0;
  {
    std::lock_guard<OrderedMutex> lock(remote_mu_);
    if (closed_) throw service::NetError("remote shard is closed");
    if (!idle_.empty()) {
      ConnectionPtr conn = std::move(idle_.back());
      idle_.pop_back();
      return conn;
    }
    serial = next_serial_++;
  }
  return std::make_unique<Connection>(port_, serial);
}

void RemoteShard::checkin(ConnectionPtr conn) const {
  ConnectionPtr dropped;  // declared first: closes after the unlock
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  // Closed: close() already tore the pool down. Full: a lease-free
  // connection goes, so the idle pool stays bounded.
  if (closed_ ||
      (idle_.size() >= kPoolCap && !owned_.contains(conn->serial))) {
    dropped = std::move(conn);
    return;
  }
  idle_.push_back(std::move(conn));
}

void RemoteShard::record(LeaseId lease, const Connection& conn) {
  ConnectionPtr dropped;  // declared first: closes after the unlock
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  const auto [owner, fresh] = owner_.try_emplace(lease, conn.serial);
  if (!fresh) {
    // A daemon restarted on the same port numbers its leases from 1
    // again: the old record is of a lease that went with the old daemon.
    dropped = disown(std::exchange(owner->second, conn.serial));
  }
  ++owned_[conn.serial];
}

void RemoteShard::forget(LeaseId lease) {
  ConnectionPtr dropped;  // declared first: closes after the unlock
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  const auto owner = owner_.find(lease);
  if (owner == owner_.end()) return;
  const std::uint64_t serial = owner->second;
  owner_.erase(owner);
  dropped = disown(serial);
}

RemoteShard::ConnectionPtr RemoteShard::disown(std::uint64_t serial) {
  const auto count = owned_.find(serial);
  if (--count->second > 0) return nullptr;
  owned_.erase(count);
  ConnectionPtr parked = take(parked_, serial);
  if (parked != nullptr || idle_.size() <= kPoolCap) return parked;
  return take(idle_, serial);
}

service::AcquireResult RemoteShard::acquire(const Request& request) {
  ConnectionPtr conn = checkout();
  // On a wire error the connection is poisoned: let `conn` die with the
  // exception instead of returning it to the pool.
  service::AcquireResult result = conn->client.acquire(request.files);
  if (result.status == service::AcquireStatus::Ok) record(result.lease, *conn);
  checkin(std::move(conn));
  return result;
}

/// Reads the grant off the reservation's own connection. An unfinished
/// grant drops the connection with it: the daemon still runs the fetch,
/// then reclaims the lease of the dead connection.
class RemoteShard::Grant final : public service::PendingGrant {
 public:
  Grant(RemoteShard& shard, ConnectionPtr conn, LeaseId lease)
      : shard_(&shard), conn_(std::move(conn)), lease_(lease) {}

  ~Grant() override {
    // Unfinished, or its grant broke the connection: the lease goes with
    // the connection, so its record goes too.
    if (conn_ != nullptr) shard_->forget(lease_);
  }

  service::AcquireResult finish() override {
    // A wire error poisons the connection: it dies with this object.
    service::AcquireResult granted = conn_->client.await_grant();
    // A refused grant ends the lease on the daemon's side too.
    if (granted.status != service::AcquireStatus::Ok) shard_->forget(lease_);
    shard_->checkin(std::move(conn_));
    return granted;
  }

 private:
  RemoteShard* shard_;
  ConnectionPtr conn_;
  LeaseId lease_;
};

service::Reservation RemoteShard::reserve(const Request& request) {
  ConnectionPtr conn = checkout();
  service::AcquireResult reserved = conn->client.reserve(request.files);
  if (reserved.status != service::AcquireStatus::Ok) {
    checkin(std::move(conn));
    return {reserved, nullptr};
  }
  record(reserved.lease, *conn);
  return {reserved,
          std::make_unique<Grant>(*this, std::move(conn), reserved.lease)};
}

bool RemoteShard::release(LeaseId lease) {
  ConnectionPtr conn = checkout();
  const bool ok = conn->client.release(lease);
  // Answered either way: the lease is gone from the daemon.
  forget(lease);
  checkin(std::move(conn));
  return ok;
}

service::ServiceStats RemoteShard::stats() const {
  ConnectionPtr conn = checkout();
  service::ServiceStats stats = conn->client.stats();
  checkin(std::move(conn));
  return stats;
}

service::MetricsSnapshot RemoteShard::metrics() const {
  ConnectionPtr conn = checkout();
  service::MetricsSnapshot snapshot = conn->client.metrics();
  checkin(std::move(conn));
  return snapshot;
}

void RemoteShard::close() {
  // Declared first: the connections close after the unlock, and the
  // daemon reclaims the leases they still own.
  std::vector<ConnectionPtr> dropped;
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  closed_ = true;
  dropped = std::move(idle_);
  std::move(parked_.begin(), parked_.end(), std::back_inserter(dropped));
  idle_.clear();
  parked_.clear();
}

void RemoteShard::invalidate_pool() {
  std::vector<ConnectionPtr> dropped;  // declared first: close after unlock
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  // Poisoned sockets; the next call dials fresh. One that owns a live
  // lease is parked instead: closing it would make the daemon, if it is
  // alive after all, reclaim that lease under its holder.
  for (ConnectionPtr& conn : idle_)
    (owned_.contains(conn->serial) ? parked_ : dropped)
        .push_back(std::move(conn));
  idle_.clear();
}

std::size_t RemoteShard::idle_connections() const {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  return idle_.size();
}

std::size_t RemoteShard::lease_owning_connections() const {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  return owned_.size();
}

class FaultInjectionShard::Grant final : public service::PendingGrant {
 public:
  Grant(FaultInjectionShard& shard, service::Reservation inner)
      : shard_(&shard), inner_(std::move(inner)) {}

  service::AcquireResult finish() override {
    const service::AcquireResult granted = service::finish(inner_);
    if (!shard_->killed() &&
        !shard_->fail_finish_.load(std::memory_order_acquire))
      return granted;
    // The daemon died before the grant reached the router: its lease goes
    // with the connection that held it.
    try {
      (void)shard_->inner_->release(inner_.result.lease);
    } catch (const service::NetError&) {
      // An unreachable inner shard reclaims the lease on its own side.
    }
    throw service::NetError("injected fault: shard daemon died before the "
                            "grant");
  }

 private:
  FaultInjectionShard* shard_;
  service::Reservation inner_;
};

service::Reservation FaultInjectionShard::reserve(const Request& request) {
  check();
  service::Reservation reservation = inner_->reserve(request);
  if (reservation.result.status != service::AcquireStatus::Ok)
    return reservation;
  const service::AcquireResult reserved = reservation.result;
  return {reserved, std::make_unique<Grant>(*this, std::move(reservation))};
}

}  // namespace fbc::cluster
