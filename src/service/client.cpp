#include "service/client.hpp"

#include <stdexcept>
#include <string>

namespace fbc::service {

BundleClient::BundleClient(std::uint16_t port)
    : fd_(connect_loopback(port)), port_(port) {}

void BundleClient::reconnect() {
  fd_.reset();
  reader_ = FrameReader{};  // discard any half-read frame from before
  fd_ = connect_loopback(port_);
}

void BundleClient::send(const Message& request) {
  if (!fd_.valid()) throw NetError("client is disconnected");
  if (!send_message(fd_.get(), request))
    throw NetError("daemon closed the connection");
}

Message BundleClient::round_trip(const Message& request) {
  send(request);
  std::optional<Message> reply = read_reply();
  if (!reply.has_value()) throw NetError("daemon closed the connection");
  return std::move(*reply);
}

AcquireResult BundleClient::read_acquire_reply(std::uint64_t cookie) {
  std::optional<Message> reply = read_reply();
  if (!reply.has_value()) throw NetError("daemon closed the connection");
  const auto* msg = std::get_if<AcquireReplyMsg>(&*reply);
  if (msg == nullptr)
    throw ProtocolError(std::string("expected AcquireReply, got ") +
                        to_string(message_type(*reply)));
  if (msg->cookie != cookie)
    throw ProtocolError("acquire reply cookie mismatch");
  AcquireResult result;
  result.status = msg->status;
  result.lease = msg->lease;
  result.request_hit = msg->request_hit != 0;
  result.retry_after_ms = msg->retry_after_ms;
  result.retries = msg->retries;
  return result;
}

AcquireResult BundleClient::acquire(const std::vector<FileId>& files) {
  const std::uint64_t cookie = next_cookie_++;
  send(AcquireRequestMsg{cookie, files});
  return read_acquire_reply(cookie);
}

AcquireResult BundleClient::reserve(const std::vector<FileId>& files) {
  const std::uint64_t cookie = next_cookie_++;
  send(ReserveRequestMsg{cookie, files});
  const AcquireResult reserved = read_acquire_reply(cookie);
  if (reserved.status == AcquireStatus::Ok) reserve_cookie_ = cookie;
  return reserved;
}

AcquireResult BundleClient::await_grant() {
  if (!fd_.valid()) throw NetError("client is disconnected");
  if (reserve_cookie_ == 0)
    throw std::logic_error("BundleClient: await_grant without a reservation");
  const std::uint64_t cookie = reserve_cookie_;
  reserve_cookie_ = 0;
  return read_acquire_reply(cookie);
}

AcquireResult BundleClient::release_acquire(LeaseId lease,
                                            const std::vector<FileId>& files,
                                            bool* released) {
  if (!fd_.valid()) throw NetError("client is disconnected");
  const std::uint64_t cookie = next_cookie_++;
  // Both frames in one buffer, one send: a single packet and a single
  // daemon wake-up. Replies come back in request order per the strict
  // sequential connection discipline.
  send_buf_.clear();
  encode_frame(ReleaseRequestMsg{lease}, &send_buf_);
  encode_frame(AcquireRequestMsg{cookie, files}, &send_buf_);
  if (!write_full(fd_.get(), send_buf_.data(), send_buf_.size()))
    throw NetError("daemon closed the connection");
  std::optional<Message> release_reply = read_reply();
  if (!release_reply.has_value())
    throw NetError("daemon closed the connection");
  const auto* rel = std::get_if<ReleaseReplyMsg>(&*release_reply);
  if (rel == nullptr)
    throw ProtocolError(std::string("expected ReleaseReply, got ") +
                        to_string(message_type(*release_reply)));
  if (released != nullptr) *released = rel->ok != 0;
  return read_acquire_reply(cookie);
}

bool BundleClient::release(LeaseId lease) {
  const Message reply = round_trip(ReleaseRequestMsg{lease});
  const auto* msg = std::get_if<ReleaseReplyMsg>(&reply);
  if (msg == nullptr)
    throw ProtocolError(std::string("expected ReleaseReply, got ") +
                        to_string(message_type(reply)));
  return msg->ok != 0;
}

ServiceStats BundleClient::stats() {
  const Message reply = round_trip(StatsRequestMsg{});
  const auto* msg = std::get_if<StatsReplyMsg>(&reply);
  if (msg == nullptr)
    throw ProtocolError(std::string("expected StatsReply, got ") +
                        to_string(message_type(reply)));
  return msg->stats;
}

MetricsSnapshot BundleClient::metrics() {
  Message reply = round_trip(MetricsRequestMsg{});
  auto* msg = std::get_if<MetricsReplyMsg>(&reply);
  if (msg == nullptr)
    throw ProtocolError(std::string("expected MetricsReply, got ") +
                        to_string(message_type(reply)));
  return std::move(msg->metrics);
}

HelloReplyMsg BundleClient::hello() {
  const Message reply = round_trip(HelloRequestMsg{});
  const auto* msg = std::get_if<HelloReplyMsg>(&reply);
  if (msg == nullptr)
    throw ProtocolError(std::string("expected HelloReply, got ") +
                        to_string(message_type(reply)));
  return *msg;
}

}  // namespace fbc::service
