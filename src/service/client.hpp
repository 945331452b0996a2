// BundleClient: one synchronous connection to a BundleDaemon.
//
// The client speaks the strict request/reply discipline the daemon
// enforces, so a single BundleClient must not be shared across threads --
// open one per worker (fbcload does exactly that).
#pragma once

#include <cstdint>
#include <vector>

#include "service/net.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace fbc::service {

/// Synchronous wire-protocol client (one connection, one thread).
class BundleClient {
 public:
  /// Connects to a daemon on 127.0.0.1:`port`. Throws NetError on refusal.
  explicit BundleClient(std::uint16_t port);

  /// Requests a lease on `files`. Blocks until the daemon replies (which
  /// may take the server-side queue wait plus staging time).
  /// Throws NetError/ProtocolError if the connection breaks.
  [[nodiscard]] AcquireResult acquire(const std::vector<FileId>& files);

  /// Phase one of a two-phase acquire: sends a ReserveRequest and returns
  /// the first reply -- Ok once the daemon has reserved the bundle (the
  /// lease is live and held by this connection), or the final refusal.
  /// After an Ok, await_grant() must read the grant before this
  /// connection carries any other request.
  [[nodiscard]] AcquireResult reserve(const std::vector<FileId>& files);

  /// Phase two: blocks until the daemon sends the second reply of the
  /// last Ok reserve() -- the grant, once the bundle is staged.
  [[nodiscard]] AcquireResult await_grant();

  /// Releases a lease. Returns false for ids the server does not know.
  bool release(LeaseId lease);

  /// Pipelines release(lease) + acquire(files) into one wire round trip:
  /// both request frames are written back-to-back, then both replies are
  /// read in order. The daemon handles a connection's messages strictly
  /// sequentially, so the release is fully applied before the acquire is
  /// considered -- semantically identical to release() then acquire(),
  /// minus one network round trip, which is the dominant per-job cost of
  /// the serving hot path for small bundles. `released` (optional)
  /// receives the release outcome.
  [[nodiscard]] AcquireResult release_acquire(
      LeaseId lease, const std::vector<FileId>& files,
      bool* released = nullptr);

  /// Fetches the server's stats snapshot.
  [[nodiscard]] ServiceStats stats();

  /// Fetches the server's full observability snapshot (stats, counters,
  /// per-stage histograms). Histograms arrive validated: the decoder
  /// rejects inconsistent bucket state as a ProtocolError.
  [[nodiscard]] MetricsSnapshot metrics();

  /// Asks the endpoint who it is (shard vs router, shard id/count).
  [[nodiscard]] HelloReplyMsg hello();

  /// Closes the connection (leases still held are reclaimed server-side).
  void disconnect() noexcept { fd_.reset(); }

  /// Drops the current connection (if any) and dials the same port
  /// again, resetting the buffered reader so no stale reply bytes
  /// survive. Throws NetError if the daemon is not back yet -- callers
  /// (fbcctl --watch) retry on their own schedule. Held leases on the
  /// old connection are reclaimed server-side.
  void reconnect();

  /// The port this client dials (the reconnect target).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  /// Writes one request frame; throws NetError once disconnected.
  void send(const Message& request);

  /// Sends `request` and reads the single reply frame.
  Message round_trip(const Message& request);

  /// Reads one reply frame through the buffered reader.
  std::optional<Message> read_reply() { return reader_.next(fd_.get()); }

  /// Reads one AcquireReply frame carrying `cookie`.
  AcquireResult read_acquire_reply(std::uint64_t cookie);

  UniqueFd fd_;
  std::uint16_t port_ = 0;
  FrameReader reader_;  ///< buffered: batched replies cost one recv
  std::vector<std::uint8_t> send_buf_;  ///< reused burst-encode scratch
  std::uint64_t next_cookie_ = 1;
  std::uint64_t reserve_cookie_ = 0;  ///< cookie await_grant() expects
};

}  // namespace fbc::service
