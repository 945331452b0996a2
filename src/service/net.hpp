// Minimal POSIX socket plumbing for the serving subsystem: an owning fd
// wrapper, full-buffer read/write loops that survive EINTR and short
// transfers, and frame-level send/receive built on the wire protocol.
//
// Only a local transport is supported deliberately -- fbcd is a
// measurement harness for the serving layer, not a hardened network
// daemon. A daemon on port P serves the Linux abstract-namespace Unix
// stream socket "@fbcd.P" and holds 127.0.0.1:P bound, without listening,
// so the port stays its unique public name (0 allocates one). Over a
// Unix socket a round trip skips the TCP stack and its loopback softirq,
// which was most of the CPU a co-located fleet spent per job.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hpp"

namespace fbc::service {

/// Owning file descriptor (close-on-destroy, move-only).
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) noexcept : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Gives up ownership without closing.
  int release() noexcept {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the descriptor (idempotent).
  void reset() noexcept;

  /// shutdown(SHUT_RDWR): unblocks any thread parked in read/write on this
  /// descriptor without racing the close.
  void shutdown_both() noexcept;

 private:
  int fd_ = -1;
};

/// Thrown on socket setup/teardown failures (errno text included).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Binds a TCP socket to 127.0.0.1:`port` (0 picks an ephemeral port)
/// without listening: while it is open, no other socket binds that port.
/// On return `*bound_port` holds the actual port. Throws NetError if the
/// port is taken.
[[nodiscard]] UniqueFd bind_loopback(std::uint16_t port,
                                     std::uint16_t* bound_port);

/// Listens on the abstract Unix stream socket "@fbcd.`port`": no file
/// is left behind, and the name is freed when the descriptor closes.
/// Throws NetError if another socket holds the name.
[[nodiscard]] UniqueFd listen_local(std::uint16_t port);

/// Connects to the abstract Unix stream socket "@fbcd.`port`".
[[nodiscard]] UniqueFd connect_local(std::uint16_t port);

/// Writes all of `data`, retrying short writes and EINTR.
/// Returns false once the peer is gone (EPIPE/ECONNRESET).
[[nodiscard]] bool write_full(int fd, const std::uint8_t* data,
                              std::size_t len);

/// Reads exactly `len` bytes. Returns false on clean EOF before the first
/// byte; throws NetError on mid-buffer EOF or hard errors.
[[nodiscard]] bool read_full(int fd, std::uint8_t* data, std::size_t len);

/// Outcome of a non-blocking frame read attempt.
enum class TryRecv {
  Empty,  ///< no bytes waiting (EAGAIN before the first frame byte)
  Eof,    ///< peer closed cleanly at a frame boundary
  Got,    ///< one complete message decoded into *out
};

/// Buffered frame reader. Each recv pulls everything the kernel has, so a
/// burst of back-to-back frames from a batching peer costs one syscall
/// instead of two reads (header + payload) per frame. One reader per
/// descriptor: bytes buffered here are invisible to any other reader.
class FrameReader {
 public:
  /// Blocking read of the next message. nullopt on clean EOF at a frame
  /// boundary; throws ProtocolError on a malformed frame and NetError on a
  /// transport error or EOF mid-frame.
  [[nodiscard]] std::optional<Message> next(int fd);

  /// Non-blocking drain: decodes a buffered frame without touching the
  /// socket when one is complete, otherwise probes with MSG_DONTWAIT.
  /// Returns Empty when no frame has started arriving. Once a frame's
  /// first bytes are in hand the remainder is completed with blocking
  /// reads (the sender writes whole frames, so it is committed).
  [[nodiscard]] TryRecv try_next(int fd, Message* out);

  /// Syscall-free drain: decodes the next frame only if it is already
  /// complete in the buffer. Under the one-outstanding-burst connection
  /// discipline this catches every frame of a burst that the last recv
  /// pulled in, without paying an EAGAIN probe for the burst's end.
  [[nodiscard]] bool buffered_next(Message* out);

 private:
  enum class Fill { Data, Empty, Eof };

  /// One recv into the free tail of the buffer; Empty only when !block.
  Fill fill(int fd, bool block);
  /// Decodes one message if the buffer holds a complete frame.
  [[nodiscard]] std::optional<Message> take();
  [[nodiscard]] std::size_t have() const noexcept { return end_ - pos_; }

  std::vector<std::uint8_t> buf_;  ///< high-water storage
  std::size_t pos_ = 0;            ///< consumed prefix of buf_
  std::size_t end_ = 0;            ///< end of the received bytes in buf_
};

/// Encodes and writes one frame. Returns false if the peer is gone.
[[nodiscard]] bool send_message(int fd, const Message& message);

}  // namespace fbc::service
