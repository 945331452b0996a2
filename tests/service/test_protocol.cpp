// Wire-protocol tests: every message type round-trips through one frame,
// and malformed frames (truncated, oversized, trailing garbage, unknown
// tags) raise ProtocolError instead of decoding junk.
#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace fbc::service {
namespace {

/// Encodes one frame and decodes it back through header + payload.
Message round_trip(const Message& message) {
  std::vector<std::uint8_t> frame;
  encode_frame(message, &frame);
  EXPECT_GE(frame.size(), kFrameHeaderBytes);
  const FrameHeader header =
      decode_header({frame.data(), kFrameHeaderBytes});
  EXPECT_EQ(header.payload_len, frame.size() - kFrameHeaderBytes);
  EXPECT_EQ(header.type, message_type(message));
  return decode_payload(header.type,
                        {frame.data() + kFrameHeaderBytes,
                         frame.size() - kFrameHeaderBytes});
}

TEST(Protocol, AcquireRequestRoundTrips) {
  AcquireRequestMsg msg;
  msg.cookie = 0xdeadbeefcafe1234ULL;
  msg.files = {7, 0, 4294967295u, 12};
  const Message decoded = round_trip(msg);
  const auto& out = std::get<AcquireRequestMsg>(decoded);
  EXPECT_EQ(out.cookie, msg.cookie);
  EXPECT_EQ(out.files, msg.files);
}

TEST(Protocol, AcquireRequestEmptyBundleRoundTrips) {
  const Message decoded = round_trip(AcquireRequestMsg{1, {}});
  EXPECT_TRUE(std::get<AcquireRequestMsg>(decoded).files.empty());
}

TEST(Protocol, AcquireReplyRoundTrips) {
  AcquireReplyMsg msg;
  msg.cookie = 99;
  msg.status = AcquireStatus::QueueFull;
  msg.lease = 0x1122334455667788ULL;
  msg.retry_after_ms = 250;
  msg.retries = 3;
  msg.request_hit = 1;
  const Message decoded = round_trip(msg);
  const auto& out = std::get<AcquireReplyMsg>(decoded);
  EXPECT_EQ(out.cookie, 99u);
  EXPECT_EQ(out.status, AcquireStatus::QueueFull);
  EXPECT_EQ(out.lease, msg.lease);
  EXPECT_EQ(out.retry_after_ms, 250u);
  EXPECT_EQ(out.retries, 3u);
  EXPECT_EQ(out.request_hit, 1u);
}

TEST(Protocol, ReleasePairRoundTrips) {
  const Message request = round_trip(ReleaseRequestMsg{0xabcdef01ULL});
  EXPECT_EQ(std::get<ReleaseRequestMsg>(request).lease, 0xabcdef01ULL);
  const Message reply = round_trip(ReleaseReplyMsg{1});
  EXPECT_EQ(std::get<ReleaseReplyMsg>(reply).ok, 1u);
}

/// Stats whose fields hold 1, 2, ... 19 in the documented wire order
/// (docs/SERVING.md).
ServiceStats numbered_stats() {
  ServiceStats stats;
  stats.requests = 1;
  stats.request_hits = 2;
  stats.rejected_full = 3;
  stats.timed_out = 4;
  stats.unserviceable = 5;
  stats.invalid = 6;
  stats.transfer_retries = 7;
  stats.transfer_failures = 8;
  stats.leases_granted = 9;
  stats.leases_released = 10;
  stats.active_leases = 11;
  stats.queue_depth = 12;
  stats.evictions = 13;
  stats.bytes_requested = 14;
  stats.bytes_missed = 15;
  stats.bytes_evicted = 16;
  stats.used_bytes = 17;
  stats.capacity_bytes = 18;
  stats.resident_files = 19;
  return stats;
}

TEST(Protocol, StatsPairRoundTrips) {
  EXPECT_TRUE(std::holds_alternative<StatsRequestMsg>(
      round_trip(StatsRequestMsg{})));

  const Message decoded = round_trip(StatsReplyMsg{numbered_stats()});
  const auto& out = std::get<StatsReplyMsg>(decoded);
  EXPECT_EQ(out.stats, numbered_stats());
}

TEST(Protocol, StatsReplyBytesAreNineteenU64sInWireOrder) {
  std::vector<std::uint8_t> frame;
  encode_frame(StatsReplyMsg{numbered_stats()}, &frame);
  std::vector<std::uint8_t> expected = {19 * 8, 0, 0, 0, 6};
  for (std::uint8_t field = 1; field <= 19; ++field) {
    expected.push_back(field);
    expected.insert(expected.end(), 7, 0);
  }
  EXPECT_EQ(frame, expected);
}

TEST(Protocol, MessageTypeMatchesVariantOrder) {
  const Message messages[] = {AcquireRequestMsg{}, AcquireReplyMsg{},
                              ReleaseRequestMsg{}, ReleaseReplyMsg{},
                              StatsRequestMsg{},   StatsReplyMsg{},
                              MetricsRequestMsg{}, MetricsReplyMsg{}};
  const MsgType expected[] = {MsgType::AcquireRequest, MsgType::AcquireReply,
                              MsgType::ReleaseRequest, MsgType::ReleaseReply,
                              MsgType::StatsRequest,   MsgType::StatsReply,
                              MsgType::MetricsRequest, MsgType::MetricsReply};
  for (std::size_t i = 0; i < std::size(messages); ++i)
    EXPECT_EQ(message_type(messages[i]), expected[i]);
}

TEST(Protocol, MetricsRequestRoundTrips) {
  EXPECT_TRUE(std::holds_alternative<MetricsRequestMsg>(
      round_trip(MetricsRequestMsg{})));
}

TEST(Protocol, MetricsReplyRoundTrips) {
  MetricsSnapshot m;
  m.stats.requests = 7;
  m.stats.leases_granted = 7;
  m.stats.capacity_bytes = 1 << 30;
  m.counters = {{"acquire.ok", 7}, {"release.ok", 5}};
  obs::Histogram queue;
  for (std::uint64_t v : {0u, 12u, 900u, 13u}) queue.record(v);
  obs::Histogram hold;
  hold.record(1u << 20);
  m.histograms.push_back({"acquire.queue_us", queue});
  m.histograms.push_back({"lease.hold_us", hold});

  const Message decoded = round_trip(MetricsReplyMsg{m});
  const auto& out = std::get<MetricsReplyMsg>(decoded);
  EXPECT_EQ(out.metrics, m);  // exact: stats, counters and histograms
}

TEST(Protocol, MetricsReplyEmptySectionsRoundTrip) {
  const Message decoded = round_trip(MetricsReplyMsg{});
  const auto& out = std::get<MetricsReplyMsg>(decoded);
  EXPECT_TRUE(out.metrics.counters.empty());
  EXPECT_TRUE(out.metrics.histograms.empty());
}

namespace metrics_wire {

/// Payload bytes of an encoded MetricsReply carrying `m`.
std::vector<std::uint8_t> payload_of(const MetricsSnapshot& m) {
  std::vector<std::uint8_t> frame;
  encode_frame(MetricsReplyMsg{m}, &frame);
  return {frame.begin() + static_cast<std::ptrdiff_t>(kFrameHeaderBytes),
          frame.end()};
}

Message decode(const std::vector<std::uint8_t>& payload) {
  return decode_payload(MsgType::MetricsReply,
                        {payload.data(), payload.size()});
}

/// Snapshot with no counters and one single-sample histogram "h"
/// (value 100, bucket 7). Fixed wire offsets inside the payload:
///   [0,152)  stats (19 x u64)
///   152      counter count (u32) == 0
///   156      histogram count (u8) == 1
///   157      name length (u8) == 1, 158 name byte 'h'
///   159      sum u64, 167 min u64, 175 max u64
///   183      nonzero bucket count (u8) == 1
///   184      bucket index (u8) == 7, 185 bucket count u64 == 1
MetricsSnapshot one_histogram() {
  MetricsSnapshot m;
  obs::Histogram h;
  h.record(100);
  m.histograms.push_back({"h", h});
  return m;
}

}  // namespace metrics_wire

TEST(Protocol, MetricsRejectsCounterNamesOutOfOrder) {
  MetricsSnapshot m;
  m.counters = {{"b", 1}, {"a", 2}};  // decoder requires strict order
  EXPECT_THROW((void)metrics_wire::decode(metrics_wire::payload_of(m)),
               ProtocolError);
  m.counters = {{"dup", 1}, {"dup", 2}};  // duplicates are also rejected
  EXPECT_THROW((void)metrics_wire::decode(metrics_wire::payload_of(m)),
               ProtocolError);
}

TEST(Protocol, MetricsRejectsHistogramNamesOutOfOrder) {
  MetricsSnapshot m;
  obs::Histogram h;
  h.record(1);
  m.histograms.push_back({"b", h});
  m.histograms.push_back({"a", h});
  EXPECT_THROW((void)metrics_wire::decode(metrics_wire::payload_of(m)),
               ProtocolError);
}

TEST(Protocol, MetricsEncoderRejectsOverCapSections) {
  MetricsSnapshot counters;
  for (std::size_t i = 0; i <= kMaxMetricsCounters; ++i)
    counters.counters.emplace_back("c" + std::to_string(i), i);
  std::vector<std::uint8_t> frame;
  EXPECT_THROW(encode_frame(MetricsReplyMsg{counters}, &frame), ProtocolError);

  MetricsSnapshot hists;
  obs::Histogram h;
  h.record(1);
  for (std::size_t i = 0; i <= kMaxMetricsHistograms; ++i)
    hists.histograms.push_back({"h" + std::to_string(i), h});
  frame.clear();
  EXPECT_THROW(encode_frame(MetricsReplyMsg{hists}, &frame), ProtocolError);
}

TEST(Protocol, MetricsEncoderRejectsBadNames) {
  MetricsSnapshot m;
  m.counters = {{"has space", 1}};  // 0x20 is outside graphic ASCII
  std::vector<std::uint8_t> frame;
  EXPECT_THROW(encode_frame(MetricsReplyMsg{m}, &frame), ProtocolError);
}

TEST(Protocol, MetricsRejectsBadBucketIndex) {
  auto payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  payload[184] = 70;  // >= kHistogramBuckets
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);
}

TEST(Protocol, MetricsRejectsZeroBucketCount) {
  auto payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  for (std::size_t i = 185; i < 193; ++i) payload[i] = 0;
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);
}

TEST(Protocol, MetricsRejectsInconsistentHistogramState) {
  // min claims bucket 1 while the only occupied bucket is 7: the decode
  // funnels through Histogram::from_state, which must refuse.
  auto payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  payload[167] = 1;
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);

  // sum below the bucket-occupancy floor is equally impossible.
  payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  payload[159] = 1;
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);
}

TEST(Protocol, MetricsRejectsBadNameByteOnDecode) {
  auto payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  payload[158] = 0x20;  // space: outside graphic ASCII
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);
}

TEST(Protocol, MetricsRejectsTruncationAndTrailingBytes) {
  const auto payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  for (std::size_t cut : {std::size_t{1}, std::size_t{9}, std::size_t{40}}) {
    ASSERT_LT(cut, payload.size());
    EXPECT_THROW(
        (void)decode_payload(MsgType::MetricsReply,
                             {payload.data(), payload.size() - cut}),
        ProtocolError);
  }
  auto trailing = payload;
  trailing.push_back(0);
  EXPECT_THROW((void)metrics_wire::decode(trailing), ProtocolError);
}

TEST(Protocol, MetricsRejectsOverCapCountsOnDecode) {
  auto payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  payload[152] = 0xff;  // counter count -> 0xffff -> over kMaxMetricsCounters
  payload[153] = 0xff;
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);

  payload = metrics_wire::payload_of(metrics_wire::one_histogram());
  payload[156] = 0xff;  // histogram count over kMaxMetricsHistograms
  EXPECT_THROW((void)metrics_wire::decode(payload), ProtocolError);
}

TEST(Protocol, HeaderRejectsUnknownType) {
  const std::uint8_t frame[kFrameHeaderBytes] = {0, 0, 0, 0, 99};
  EXPECT_THROW((void)decode_header({frame, sizeof frame}), ProtocolError);
  const std::uint8_t zero[kFrameHeaderBytes] = {0, 0, 0, 0, 0};
  EXPECT_THROW((void)decode_header({zero, sizeof zero}), ProtocolError);
}

TEST(Protocol, HeaderRejectsOversizedPayload) {
  std::vector<std::uint8_t> frame;
  encode_frame(ReleaseRequestMsg{1}, &frame);
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  frame[0] = static_cast<std::uint8_t>(huge);
  frame[1] = static_cast<std::uint8_t>(huge >> 8);
  frame[2] = static_cast<std::uint8_t>(huge >> 16);
  frame[3] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_THROW((void)decode_header({frame.data(), kFrameHeaderBytes}),
               ProtocolError);
}

TEST(Protocol, PayloadRejectsTruncation) {
  std::vector<std::uint8_t> frame;
  encode_frame(AcquireRequestMsg{42, {1, 2, 3}}, &frame);
  // Chop the last file id off the payload.
  EXPECT_THROW((void)decode_payload(
                   MsgType::AcquireRequest,
                   {frame.data() + kFrameHeaderBytes,
                    frame.size() - kFrameHeaderBytes - 4}),
               ProtocolError);
}

TEST(Protocol, ReserveRequestRoundTrips) {
  ReserveRequestMsg msg;
  msg.cookie = 0x0123456789abcdefULL;
  msg.files = {3, 4294967295u, 0};
  std::vector<std::uint8_t> frame;
  encode_frame(msg, &frame);
  EXPECT_EQ(frame[4], 11u);  // the type byte on the wire
  const Message decoded = round_trip(msg);
  ASSERT_TRUE(std::holds_alternative<ReserveRequestMsg>(decoded));
  const auto& out = std::get<ReserveRequestMsg>(decoded);
  EXPECT_EQ(out.cookie, msg.cookie);
  EXPECT_EQ(out.files, msg.files);
  EXPECT_EQ(message_type(decoded), MsgType::ReserveRequest);
  EXPECT_STREQ(to_string(MsgType::ReserveRequest), "ReserveRequest");
}

TEST(Protocol, ReserveRequestRejectsTruncation) {
  std::vector<std::uint8_t> frame;
  encode_frame(ReserveRequestMsg{42, {1, 2, 3}}, &frame);
  const std::span<const std::uint8_t> payload(
      frame.data() + kFrameHeaderBytes, frame.size() - kFrameHeaderBytes);
  // Short by part of the last file id, and by the whole file list.
  EXPECT_THROW((void)decode_payload(MsgType::ReserveRequest,
                                    payload.first(payload.size() - 1)),
               ProtocolError);
  EXPECT_THROW((void)decode_payload(MsgType::ReserveRequest,
                                    payload.first(12)),
               ProtocolError);
  EXPECT_THROW((void)decode_payload(MsgType::ReserveRequest, payload.first(5)),
               ProtocolError);
}

TEST(Protocol, PayloadRejectsTrailingBytes) {
  std::vector<std::uint8_t> frame;
  encode_frame(ReleaseRequestMsg{7}, &frame);
  frame.push_back(0);  // trailing garbage
  EXPECT_THROW((void)decode_payload(MsgType::ReleaseRequest,
                                    {frame.data() + kFrameHeaderBytes,
                                     frame.size() - kFrameHeaderBytes}),
               ProtocolError);
}

TEST(Protocol, PayloadRejectsAbsurdFileCount) {
  // Hand-build an AcquireRequest payload whose count field promises more
  // files than the frame cap allows.
  std::vector<std::uint8_t> payload(12, 0);
  payload[8] = 0xff;
  payload[9] = 0xff;
  payload[10] = 0xff;
  payload[11] = 0xff;
  EXPECT_THROW((void)decode_payload(MsgType::AcquireRequest,
                                    {payload.data(), payload.size()}),
               ProtocolError);
}

TEST(Protocol, PayloadRejectsUnknownAcquireStatus) {
  std::vector<std::uint8_t> frame;
  encode_frame(AcquireReplyMsg{}, &frame);
  frame[kFrameHeaderBytes + 8] = 200;  // status byte past the cookie
  EXPECT_THROW((void)decode_payload(MsgType::AcquireReply,
                                    {frame.data() + kFrameHeaderBytes,
                                     frame.size() - kFrameHeaderBytes}),
               ProtocolError);
}

TEST(Protocol, EnumNamesAreStable) {
  EXPECT_STREQ(to_string(MsgType::StatsReply), "StatsReply");
  EXPECT_STREQ(to_string(AcquireStatus::QueueFull), "queue-full");
  EXPECT_STREQ(to_string(AcquireStatus::Ok), "ok");
}

}  // namespace
}  // namespace fbc::service
