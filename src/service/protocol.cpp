#include "service/protocol.hpp"

namespace fbc::service {

namespace {

void put_u8(std::vector<std::uint8_t>* out, std::uint8_t v) {
  out->push_back(v);
}

void put_u32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  out->push_back(static_cast<std::uint8_t>(v));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
  out->push_back(static_cast<std::uint8_t>(v >> 16));
  out->push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

/// Bounds-checked little-endian reader over one payload.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    need(1);
    return bytes_[pos_++];
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = static_cast<std::uint32_t>(bytes_[pos_]) |
                            static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 8 |
                            static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 16 |
                            static_cast<std::uint32_t>(bytes_[pos_ + 3]) << 24;
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | hi << 32;
  }

  std::string str(std::size_t n) {
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  void finish() const {
    if (pos_ != bytes_.size())
      throw ProtocolError("trailing bytes in payload");
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > bytes_.size()) throw ProtocolError("truncated payload");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void encode_stats(std::vector<std::uint8_t>* out, const ServiceStats& s) {
  for (const StatField& field : kServiceStatsFields)
    put_u64(out, s.*field.member);
}

ServiceStats decode_stats(Reader* in) {
  ServiceStats s;
  for (const StatField& field : kServiceStatsFields)
    s.*field.member = in->u64();
  return s;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > kMaxMetricNameBytes) return false;
  for (char c : name)
    if (c < 0x21 || c > 0x7e) return false;  // graphic ASCII only
  return true;
}

void encode_metric_name(std::vector<std::uint8_t>* out,
                        const std::string& name) {
  if (!valid_metric_name(name))
    throw ProtocolError("unencodable metric name \"" + name + "\"");
  put_u8(out, static_cast<std::uint8_t>(name.size()));
  out->insert(out->end(), name.begin(), name.end());
}

std::string decode_metric_name(Reader* in) {
  const std::uint8_t len = in->u8();
  std::string name = in->str(len);
  if (!valid_metric_name(name))
    throw ProtocolError("invalid metric name");
  return name;
}

void encode_metrics(std::vector<std::uint8_t>* out, const MetricsSnapshot& m) {
  encode_stats(out, m.stats);
  if (m.counters.size() > kMaxMetricsCounters)
    throw ProtocolError("too many counters to encode");
  put_u32(out, static_cast<std::uint32_t>(m.counters.size()));
  for (const auto& [name, value] : m.counters) {
    encode_metric_name(out, name);
    put_u64(out, value);
  }
  if (m.histograms.size() > kMaxMetricsHistograms)
    throw ProtocolError("too many histograms to encode");
  put_u8(out, static_cast<std::uint8_t>(m.histograms.size()));
  for (const auto& named : m.histograms) {
    encode_metric_name(out, named.name);
    const obs::HistogramState state = named.hist.state();
    put_u64(out, state.sum);
    put_u64(out, state.min);
    put_u64(out, state.max);
    std::uint8_t nonzero = 0;
    for (std::uint64_t c : state.buckets)
      if (c != 0) ++nonzero;
    put_u8(out, nonzero);
    for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
      if (state.buckets[i] == 0) continue;
      put_u8(out, static_cast<std::uint8_t>(i));
      put_u64(out, state.buckets[i]);
    }
  }
}

MetricsSnapshot decode_metrics(Reader* in) {
  MetricsSnapshot m;
  m.stats = decode_stats(in);
  const std::uint32_t counter_count = in->u32();
  if (counter_count > kMaxMetricsCounters)
    throw ProtocolError("counter count exceeds the metrics cap");
  m.counters.reserve(counter_count);
  for (std::uint32_t i = 0; i < counter_count; ++i) {
    std::string name = decode_metric_name(in);
    if (i > 0 && name <= m.counters.back().first)
      throw ProtocolError("counter names not strictly increasing");
    m.counters.emplace_back(std::move(name), in->u64());
  }
  const std::uint8_t hist_count = in->u8();
  if (hist_count > kMaxMetricsHistograms)
    throw ProtocolError("histogram count exceeds the metrics cap");
  m.histograms.reserve(hist_count);
  for (std::uint8_t i = 0; i < hist_count; ++i) {
    NamedHistogram named;
    named.name = decode_metric_name(in);
    if (i > 0 && named.name <= m.histograms.back().name)
      throw ProtocolError("histogram names not strictly increasing");
    obs::HistogramState state;
    state.sum = in->u64();
    state.min = in->u64();
    state.max = in->u64();
    const std::uint8_t nonzero = in->u8();
    if (nonzero > obs::kHistogramBuckets)
      throw ProtocolError("histogram bucket count out of range");
    int prev = -1;
    for (std::uint8_t b = 0; b < nonzero; ++b) {
      const std::uint8_t index = in->u8();
      if (index >= obs::kHistogramBuckets || static_cast<int>(index) <= prev)
        throw ProtocolError("histogram bucket index out of order");
      const std::uint64_t count = in->u64();
      if (count == 0)
        throw ProtocolError("histogram bucket with zero count");
      state.buckets[index] = count;
      prev = index;
    }
    std::optional<obs::Histogram> hist = obs::Histogram::from_state(state);
    if (!hist)
      throw ProtocolError("inconsistent histogram state for \"" + named.name +
                          "\"");
    named.hist = *hist;
    m.histograms.push_back(std::move(named));
  }
  return m;
}

AcquireStatus decode_status(std::uint8_t raw) {
  if (raw > static_cast<std::uint8_t>(AcquireStatus::ShardsDown))
    throw ProtocolError("unknown acquire status " + std::to_string(raw));
  return static_cast<AcquireStatus>(raw);
}

/// The AcquireRequest/ReserveRequest payload: `cookie u64`, `count u32`,
/// `count x FileId u32`.
void encode_bundle(std::vector<std::uint8_t>* out, std::uint64_t cookie,
                   const std::vector<FileId>& files) {
  put_u64(out, cookie);
  put_u32(out, static_cast<std::uint32_t>(files.size()));
  for (FileId id : files) put_u32(out, id);
}

/// Decodes a whole encode_bundle() payload.
void decode_bundle(Reader* in, std::uint64_t* cookie,
                   std::vector<FileId>* files) {
  *cookie = in->u64();
  const std::uint32_t count = in->u32();
  if (count > (kMaxPayloadBytes - 12) / 4)
    throw ProtocolError("file count exceeds the frame cap");
  files->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) files->push_back(in->u32());
  in->finish();
}

void encode_payload(const Message& message, std::vector<std::uint8_t>* out) {
  switch (message_type(message)) {
    case MsgType::AcquireRequest: {
      const auto& m = std::get<AcquireRequestMsg>(message);
      encode_bundle(out, m.cookie, m.files);
      return;
    }
    case MsgType::AcquireReply: {
      const auto& m = std::get<AcquireReplyMsg>(message);
      put_u64(out, m.cookie);
      put_u8(out, static_cast<std::uint8_t>(m.status));
      put_u64(out, m.lease);
      put_u32(out, m.retry_after_ms);
      put_u32(out, m.retries);
      put_u8(out, m.request_hit);
      return;
    }
    case MsgType::ReleaseRequest: {
      put_u64(out, std::get<ReleaseRequestMsg>(message).lease);
      return;
    }
    case MsgType::ReleaseReply: {
      put_u8(out, std::get<ReleaseReplyMsg>(message).ok);
      return;
    }
    case MsgType::StatsRequest:
      return;  // empty payload
    case MsgType::StatsReply: {
      encode_stats(out, std::get<StatsReplyMsg>(message).stats);
      return;
    }
    case MsgType::MetricsRequest:
      return;  // empty payload
    case MsgType::MetricsReply: {
      encode_metrics(out, std::get<MetricsReplyMsg>(message).metrics);
      return;
    }
    case MsgType::HelloRequest:
      return;  // empty payload
    case MsgType::HelloReply: {
      const auto& m = std::get<HelloReplyMsg>(message);
      put_u8(out, static_cast<std::uint8_t>(m.role));
      put_u32(out, m.shard_id);
      put_u32(out, m.shard_count);
      put_u32(out, m.shards_down);
      return;
    }
    case MsgType::ReserveRequest: {
      const auto& m = std::get<ReserveRequestMsg>(message);
      encode_bundle(out, m.cookie, m.files);
      return;
    }
  }
  throw ProtocolError("unencodable message type");
}

}  // namespace

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::AcquireRequest: return "AcquireRequest";
    case MsgType::AcquireReply: return "AcquireReply";
    case MsgType::ReleaseRequest: return "ReleaseRequest";
    case MsgType::ReleaseReply: return "ReleaseReply";
    case MsgType::StatsRequest: return "StatsRequest";
    case MsgType::StatsReply: return "StatsReply";
    case MsgType::MetricsRequest: return "MetricsRequest";
    case MsgType::MetricsReply: return "MetricsReply";
    case MsgType::HelloRequest: return "HelloRequest";
    case MsgType::HelloReply: return "HelloReply";
    case MsgType::ReserveRequest: return "ReserveRequest";
  }
  return "?";
}

const char* to_string(AcquireStatus status) noexcept {
  switch (status) {
    case AcquireStatus::Ok: return "ok";
    case AcquireStatus::QueueFull: return "queue-full";
    case AcquireStatus::TimedOut: return "timed-out";
    case AcquireStatus::Unserviceable: return "unserviceable";
    case AcquireStatus::InvalidRequest: return "invalid-request";
    case AcquireStatus::TransferFailed: return "transfer-failed";
    case AcquireStatus::Closed: return "closed";
    case AcquireStatus::ShardsDown: return "shards-down";
  }
  return "?";
}

MsgType message_type(const Message& message) noexcept {
  // variant alternatives are declared in MsgType order (offset by 1).
  return static_cast<MsgType>(message.index() + 1);
}

void encode_frame(const Message& message, std::vector<std::uint8_t>* out) {
  const std::size_t header_at = out->size();
  put_u32(out, 0);  // patched below
  put_u8(out, static_cast<std::uint8_t>(message_type(message)));
  const std::size_t payload_at = out->size();
  encode_payload(message, out);
  const auto payload_len = static_cast<std::uint32_t>(out->size() - payload_at);
  (*out)[header_at] = static_cast<std::uint8_t>(payload_len);
  (*out)[header_at + 1] = static_cast<std::uint8_t>(payload_len >> 8);
  (*out)[header_at + 2] = static_cast<std::uint8_t>(payload_len >> 16);
  (*out)[header_at + 3] = static_cast<std::uint8_t>(payload_len >> 24);
}

FrameHeader decode_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() != kFrameHeaderBytes)
    throw ProtocolError("frame header must be exactly 5 bytes");
  Reader in(bytes.first(4));
  FrameHeader header;
  header.payload_len = in.u32();
  if (header.payload_len > kMaxPayloadBytes)
    throw ProtocolError("payload length " +
                        std::to_string(header.payload_len) +
                        " exceeds the frame cap");
  const std::uint8_t raw_type = bytes[4];
  if (raw_type < static_cast<std::uint8_t>(MsgType::AcquireRequest) ||
      raw_type > static_cast<std::uint8_t>(MsgType::ReserveRequest))
    throw ProtocolError("unknown message type " + std::to_string(raw_type));
  header.type = static_cast<MsgType>(raw_type);
  return header;
}

Message decode_payload(MsgType type, std::span<const std::uint8_t> payload) {
  Reader in(payload);
  switch (type) {
    case MsgType::AcquireRequest: {
      AcquireRequestMsg m;
      decode_bundle(&in, &m.cookie, &m.files);
      return m;
    }
    case MsgType::AcquireReply: {
      AcquireReplyMsg m;
      m.cookie = in.u64();
      m.status = decode_status(in.u8());
      m.lease = in.u64();
      m.retry_after_ms = in.u32();
      m.retries = in.u32();
      m.request_hit = in.u8();
      in.finish();
      return m;
    }
    case MsgType::ReleaseRequest: {
      ReleaseRequestMsg m;
      m.lease = in.u64();
      in.finish();
      return m;
    }
    case MsgType::ReleaseReply: {
      ReleaseReplyMsg m;
      m.ok = in.u8();
      in.finish();
      return m;
    }
    case MsgType::StatsRequest: {
      in.finish();
      return StatsRequestMsg{};
    }
    case MsgType::StatsReply: {
      StatsReplyMsg m;
      m.stats = decode_stats(&in);
      in.finish();
      return m;
    }
    case MsgType::MetricsRequest: {
      in.finish();
      return MetricsRequestMsg{};
    }
    case MsgType::MetricsReply: {
      MetricsReplyMsg m;
      m.metrics = decode_metrics(&in);
      in.finish();
      return m;
    }
    case MsgType::HelloRequest: {
      in.finish();
      return HelloRequestMsg{};
    }
    case MsgType::HelloReply: {
      HelloReplyMsg m;
      const std::uint8_t raw_role = in.u8();
      if (raw_role < static_cast<std::uint8_t>(EndpointRole::Shard) ||
          raw_role > static_cast<std::uint8_t>(EndpointRole::Router))
        throw ProtocolError("unknown endpoint role " +
                            std::to_string(raw_role));
      m.role = static_cast<EndpointRole>(raw_role);
      m.shard_id = in.u32();
      m.shard_count = in.u32();
      m.shards_down = in.u32();
      if (m.shards_down > m.shard_count)
        throw ProtocolError("hello reply with more shards down than shards");
      if (m.shard_count == 0)
        throw ProtocolError("hello reply with zero shard count");
      in.finish();
      return m;
    }
    case MsgType::ReserveRequest: {
      ReserveRequestMsg m;
      decode_bundle(&in, &m.cookie, &m.files);
      return m;
    }
  }
  throw ProtocolError("undecodable message type");
}

}  // namespace fbc::service
