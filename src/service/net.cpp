#include "service/net.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstddef>
#include <cstring>
#include <vector>

namespace fbc::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

/// The abstract-namespace address "@fbcd.<port>": sun_path starts with a
/// NUL byte, and the name is not NUL-terminated (its length is `*len`).
sockaddr_un local_address(std::uint16_t port, socklen_t* len) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string name = "fbcd." + std::to_string(port);
  std::memcpy(addr.sun_path + 1, name.data(), name.size());
  *len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                name.size());
  return addr;
}

}  // namespace

void UniqueFd::reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UniqueFd::shutdown_both() noexcept {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

UniqueFd bind_loopback(std::uint16_t port, std::uint16_t* bound_port) {
  // No SO_REUSEADDR: the socket never carries a connection, so nothing
  // lingers in TIME_WAIT on the port, and the bind stays exclusive.
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0)
    throw_errno("bind(127.0.0.1:" + std::to_string(port) + ")");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    throw_errno("getsockname");
  if (bound_port != nullptr) *bound_port = ntohs(bound.sin_port);
  return fd;
}

UniqueFd listen_local(std::uint16_t port) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  socklen_t len = 0;
  const sockaddr_un addr = local_address(port, &len);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), len) != 0)
    throw_errno("bind(@fbcd." + std::to_string(port) + ")");
  if (::listen(fd.get(), SOMAXCONN) != 0) throw_errno("listen");
  return fd;
}

UniqueFd connect_local(std::uint16_t port) {
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket(AF_UNIX)");
  socklen_t len = 0;
  const sockaddr_un addr = local_address(port, &len);
  while (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                   len) != 0) {
    if (errno == EINTR) continue;
    throw_errno("connect(@fbcd." + std::to_string(port) + ")");
  }
  return fd;
}

bool write_full(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    // MSG_NOSIGNAL: report a dead peer via EPIPE instead of SIGPIPE.
    const ssize_t n =
        ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool FrameReader::fill(int fd) {
  // Compact once the consumed prefix dominates, so the valid bytes do not
  // creep rightward forever on a long-lived connection.
  if (pos_ > 0 && pos_ >= end_ / 2) {
    std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
  }
  // The buffer keeps its high-water size: it grows (and zero-fills) only
  // when less than one chunk is free past the valid bytes, so a recv
  // normally writes into bytes nobody has to initialise first.
  constexpr std::size_t kChunk = 16 * 1024;
  if (buf_.size() - end_ < kChunk) buf_.resize(end_ + kChunk);
  for (;;) {
    // A thread asleep in recv() on a Unix stream socket is woken each time
    // the peer drains data this socket sent, finds nothing to read and
    // sleeps again. poll(POLLIN) waits for data (or EOF) only.
    const ssize_t n = ::recv(fd, buf_.data() + end_, buf_.size() - end_,
                             MSG_DONTWAIT);
    if (n >= 0) {
      end_ += static_cast<std::size_t>(n);
      return n > 0;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      pollfd readable{fd, POLLIN, 0};
      while (::poll(&readable, 1, -1) < 0)
        if (errno != EINTR) throw_errno("poll");
      continue;
    }
    if (errno == ECONNRESET) return false;
    throw_errno("recv");
  }
}

std::optional<Message> FrameReader::take() {
  if (have() < kFrameHeaderBytes) return std::nullopt;
  const FrameHeader header =
      decode_header({buf_.data() + pos_, kFrameHeaderBytes});
  if (have() < kFrameHeaderBytes + header.payload_len) return std::nullopt;
  Message message = decode_payload(
      header.type,
      {buf_.data() + pos_ + kFrameHeaderBytes, header.payload_len});
  pos_ += kFrameHeaderBytes + header.payload_len;
  if (pos_ == end_) pos_ = end_ = 0;
  return message;
}

std::optional<Message> FrameReader::next(int fd) {
  for (;;) {
    if (std::optional<Message> message = take()) return message;
    if (fill(fd)) continue;
    if (have() == 0) return std::nullopt;
    throw NetError("connection closed mid-frame");
  }
}

bool FrameReader::buffered_next(Message* out) {
  std::optional<Message> message = take();
  if (!message.has_value()) return false;
  *out = std::move(*message);
  return true;
}

bool send_message(int fd, const Message& message) {
  std::vector<std::uint8_t> frame;
  encode_frame(message, &frame);
  return write_full(fd, frame.data(), frame.size());
}

}  // namespace fbc::service
