#include "cluster/shard.hpp"

#include <mutex>
#include <utility>

namespace fbc::cluster {

RemoteShard::ClientPtr RemoteShard::checkout() const {
  {
    std::lock_guard<OrderedMutex> lock(remote_mu_);
    if (closed_) throw service::NetError("remote shard is closed");
    if (!idle_.empty()) {
      ClientPtr client = std::move(idle_.back());
      idle_.pop_back();
      return client;
    }
  }
  return std::make_unique<service::BundleClient>(port_);
}

void RemoteShard::checkin(ClientPtr client) const {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  if (closed_) return;  // drop: close() already tore the pool down
  if (idle_.size() >= pool_cap_) return;  // drop-on-full: bounded pool
  idle_.push_back(std::move(client));
}

service::AcquireResult RemoteShard::acquire(const Request& request) {
  ClientPtr client = checkout();
  // On a wire error the connection is poisoned: let `client` die with the
  // exception instead of returning it to the pool.
  service::AcquireResult result = client->acquire(request.files);
  checkin(std::move(client));
  return result;
}

/// Reads the grant off the reservation's own connection. An unfinished
/// grant drops the connection with it: the daemon still runs the fetch,
/// then reclaims the lease of the dead connection.
class RemoteShard::Grant final : public service::PendingGrant {
 public:
  Grant(const RemoteShard& shard, ClientPtr client)
      : shard_(&shard), client_(std::move(client)) {}

  service::AcquireResult finish() override {
    // A wire error poisons the connection: it dies with this object.
    service::AcquireResult granted = client_->await_grant();
    shard_->checkin(std::move(client_));
    return granted;
  }

 private:
  const RemoteShard* shard_;
  ClientPtr client_;
};

service::Reservation RemoteShard::reserve(const Request& request) {
  ClientPtr client = checkout();
  service::AcquireResult reserved = client->reserve(request.files);
  if (reserved.status != service::AcquireStatus::Ok) {
    checkin(std::move(client));
    return {reserved, nullptr};
  }
  return {reserved, std::make_unique<Grant>(*this, std::move(client))};
}

bool RemoteShard::release(LeaseId lease) {
  ClientPtr client = checkout();
  const bool ok = client->release(lease);
  checkin(std::move(client));
  return ok;
}

service::ServiceStats RemoteShard::stats() const {
  ClientPtr client = checkout();
  service::ServiceStats stats = client->stats();
  checkin(std::move(client));
  return stats;
}

service::MetricsSnapshot RemoteShard::metrics() const {
  ClientPtr client = checkout();
  service::MetricsSnapshot snapshot = client->metrics();
  checkin(std::move(client));
  return snapshot;
}

void RemoteShard::close() {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  closed_ = true;
  idle_.clear();  // disconnects; the daemon reclaims any leaked leases
}

void RemoteShard::invalidate_pool() {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  idle_.clear();  // poisoned sockets; the next call dials fresh
}

std::size_t RemoteShard::idle_connections() const {
  std::lock_guard<OrderedMutex> lock(remote_mu_);
  return idle_.size();
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
