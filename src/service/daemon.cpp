#include "service/daemon.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace fbc::service {

BundleDaemon::BundleDaemon(ServingEndpoint& endpoint, std::uint16_t port,
                           std::size_t workers)
    : endpoint_(endpoint), pool_(std::make_unique<ThreadPool>(workers)) {
  // Bind in the body: bind_loopback writes port_, which a member
  // initializer for name_fd_ would race with port_'s own default init.
  name_fd_ = bind_loopback(port, &port_);
  listen_fd_ = listen_local(port_);
  acceptor_ = std::thread([this] { accept_loop(); });
}

BundleDaemon::~BundleDaemon() { stop(); }

void BundleDaemon::stop() {
  if (stopping_.exchange(true)) return;
  // Order matters: wake queued acquires first so pool workers can finish,
  // then unblock workers parked in recv, then unblock the acceptor, then
  // join everything. pool_ destruction drains the remaining tasks.
  endpoint_.close();
  {
    std::lock_guard<OrderedMutex> lock(conn_mu_);
    // fbclint:ignore(L005) -- shutdown order across fds is irrelevant.
    for (const auto& [fd, unused] : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  listen_fd_.shutdown_both();
  if (acceptor_.joinable()) acceptor_.join();
  pool_.reset();
  listen_fd_.reset();
  name_fd_.reset();
}

void BundleDaemon::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      // Out of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM):
      // accept() fails at once until some free up, and the connection
      // waits in the backlog, so an immediate retry would spin a core.
      // Any other failure backs off too rather than risk the same.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    // try_submit: the pool may be shutting down under us; then we just
    // close the connection instead of crashing the acceptor.
    auto queued = pool_->try_submit([this, fd] { serve_connection(fd); });
    if (!queued.has_value()) ::close(fd);
  }
}

void BundleDaemon::track(LeaseId lease, int fd) {
  std::lock_guard<OrderedMutex> lock(conn_mu_);
  lease_owner_.emplace(lease, fd);
}

void BundleDaemon::untrack(LeaseId lease) {
  std::lock_guard<OrderedMutex> lock(conn_mu_);
  lease_owner_.erase(lease);
}

std::size_t BundleDaemon::tracked_leases() const {
  std::lock_guard<OrderedMutex> lock(conn_mu_);
  return lease_owner_.size();
}

void BundleDaemon::serve_connection(int raw_fd) {
  UniqueFd fd(raw_fd);
  {
    std::lock_guard<OrderedMutex> lock(conn_mu_);
    live_fds_.emplace(fd.get(), true);
  }
  // Reply frames encoded but not yet written.
  std::vector<std::uint8_t> replies;

  // Writes the pending replies; false once the client is gone.
  const auto flush = [&] {
    const bool ok = write_full(fd.get(), replies.data(), replies.size());
    replies.clear();
    return ok;
  };
  const auto reply = [&](const Message& message) {
    encode_frame(message, &replies);
  };
  const auto acquire_reply = [](std::uint64_t cookie, const AcquireResult& r) {
    return AcquireReplyMsg{cookie,    r.status,  r.lease, r.retry_after_ms,
                           r.retries, r.request_hit};
  };

  // Handles one request, appending its reply frames to `replies`. Returns
  // false when the client went away between the two replies of a
  // ReserveRequest.
  const auto handle = [&](Message& message) -> bool {
    if (auto* acq = std::get_if<AcquireRequestMsg>(&message)) {
      const Request request(std::move(acq->files));
      const AcquireResult r = endpoint_.acquire(request);
      if (r.status == AcquireStatus::Ok) track(r.lease, fd.get());
      reply(acquire_reply(acq->cookie, r));
      return true;
    }
    if (auto* res = std::get_if<ReserveRequestMsg>(&message)) {
      const Request request(std::move(res->files));
      Reservation reservation = endpoint_.reserve(request);
      const AcquireResult& reserved = reservation.result;
      if (reserved.status != AcquireStatus::Ok) {
        reply(acquire_reply(res->cookie, reserved));
        return true;
      }
      // The lease is this connection's from the first reply on, and that
      // reply reaches the client before the fetch blocks this thread. A
      // client gone by now still gets its fetch run (the reservation's
      // destructor) and its lease reclaimed below.
      track(reserved.lease, fd.get());
      reply(acquire_reply(res->cookie, reserved));
      if (!flush()) return false;
      const AcquireResult granted = finish(reservation);
      if (granted.status != AcquireStatus::Ok) untrack(reserved.lease);
      reply(acquire_reply(res->cookie, granted));
      return true;
    }
    if (auto* rel = std::get_if<ReleaseRequestMsg>(&message)) {
      // Whichever connection owned the lease, it owns it no longer; an
      // id the endpoint does not know has no owner left to clear.
      const bool ok = endpoint_.release(rel->lease);
      untrack(rel->lease);
      reply(ReleaseReplyMsg{ok});
      return true;
    }
    if (std::holds_alternative<StatsRequestMsg>(message)) {
      reply(StatsReplyMsg{endpoint_.stats()});
      return true;
    }
    if (std::holds_alternative<MetricsRequestMsg>(message)) {
      reply(MetricsReplyMsg{endpoint_.metrics()});
      return true;
    }
    if (std::holds_alternative<HelloRequestMsg>(message)) {
      const EndpointInfo info = endpoint_.info();
      reply(HelloReplyMsg{info.role, info.shard_id, info.shard_count,
                          info.shards_down});
      return true;
    }
    // Reply types are server-to-client only.
    throw ProtocolError(std::string("unexpected client message ") +
                        to_string(message_type(message)));
  };

  // Handle the message in hand plus every burst-mate the last recv
  // already pulled into the reader (pipelined clients write several
  // frames per burst in one send), then flush all replies in one send --
  // one packet and one client wake-up per burst instead of one per
  // request. The drain is syscall-free: with one outstanding burst per
  // connection, probing the socket after the last frame would always
  // come back empty.
  try {
    FrameReader reader;
    std::optional<Message> message = reader.next(fd.get());
    while (message.has_value()) {
      Message in_hand = std::move(*message);
      bool alive = true;
      do {
        alive = handle(in_hand);
      } while (alive && reader.buffered_next(&in_hand));
      if (!alive || !flush()) break;
      message = reader.next(fd.get());
    }
  } catch (const std::exception& e) {
    FBC_LOG(Warn) << "fbcd: dropping connection: " << e.what();
  }

  // A connection that dies holding leases must not leave its bundles
  // pinned forever -- that would wedge every other client's admissions.
  // They are claimed before the fd closes, so no entry outlives the fd
  // number it names; a release racing in over another connection is
  // harmless, as the endpoint answers the second release of a lease false.
  std::vector<LeaseId> held;
  {
    std::lock_guard<OrderedMutex> lock(conn_mu_);
    // fbclint:ignore(L005) -- sorted below, into lease-id order.
    for (auto it = lease_owner_.begin(); it != lease_owner_.end();) {
      if (it->second == fd.get()) {
        held.push_back(it->first);
        it = lease_owner_.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::sort(held.begin(), held.end());
  for (LeaseId lease : held) {
    if (endpoint_.release(lease)) {
      reclaimed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::lock_guard<OrderedMutex> lock(conn_mu_);
  live_fds_.erase(fd.get());
}

}  // namespace fbc::service
