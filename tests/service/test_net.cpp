// FrameReader tests over a Unix socketpair: burst decoding (many frames
// from one write, one recv), the syscall-free buffered_next drain,
// mid-frame EOF handling, a frame larger than one receive chunk, buffer
// compaction with a partial frame left in it, and the wake-ups a reader
// pays per round trip. These pin the buffered transport that both the
// daemon and BundleClient read every frame through. The LocalSocket
// tests pin the abstract "@fbcd.<port>" name BundleClient dials.
#include "service/net.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "service/client.hpp"
#include "service/protocol.hpp"

namespace fbc::service {
namespace {

/// Connected stream pair; frames written to `a` are read from `b`.
struct SocketPair {
  UniqueFd a;
  UniqueFd b;

  SocketPair() {
    int sv[2] = {-1, -1};
    if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
      throw NetError("socketpair failed");
    a = UniqueFd(sv[0]);
    b = UniqueFd(sv[1]);
  }
};

AcquireRequestMsg acquire_msg(std::uint64_t cookie) {
  AcquireRequestMsg msg;
  msg.cookie = cookie;
  msg.files = {1, 2, 3};
  return msg;
}

std::uint64_t cookie_of(const Message& message) {
  return std::get<AcquireRequestMsg>(message).cookie;
}

TEST(FrameReader, DecodesBackToBackFramesFromOneWrite) {
  SocketPair pair;
  // Three frames, one write: the reader must split the burst correctly.
  std::vector<std::uint8_t> burst;
  for (std::uint64_t cookie = 1; cookie <= 3; ++cookie)
    encode_frame(Message{acquire_msg(cookie)}, &burst);
  ASSERT_TRUE(write_full(pair.a.get(), burst.data(), burst.size()));
  pair.a.reset();  // clean EOF after the burst

  FrameReader reader;
  for (std::uint64_t cookie = 1; cookie <= 3; ++cookie) {
    const std::optional<Message> message = reader.next(pair.b.get());
    ASSERT_TRUE(message.has_value());
    EXPECT_EQ(cookie_of(*message), cookie);
    EXPECT_EQ(std::get<AcquireRequestMsg>(*message).files,
              (std::vector<FileId>{1, 2, 3}));
  }
  EXPECT_FALSE(reader.next(pair.b.get()).has_value());  // EOF at boundary
}

TEST(FrameReader, BufferedNextDrainsTheBurstWithoutTouchingTheSocket) {
  SocketPair pair;
  std::vector<std::uint8_t> burst;
  for (std::uint64_t cookie = 1; cookie <= 3; ++cookie)
    encode_frame(Message{acquire_msg(cookie)}, &burst);
  ASSERT_TRUE(write_full(pair.a.get(), burst.data(), burst.size()));

  FrameReader reader;
  // The first blocking read pulls everything the kernel has -- on a
  // local socketpair that is the whole burst -- so the remaining frames
  // come out of the buffer without another syscall.
  const std::optional<Message> first = reader.next(pair.b.get());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cookie_of(*first), 1u);

  Message out;
  ASSERT_TRUE(reader.buffered_next(&out));
  EXPECT_EQ(cookie_of(out), 2u);
  ASSERT_TRUE(reader.buffered_next(&out));
  EXPECT_EQ(cookie_of(out), 3u);
  // Burst exhausted: buffered_next reports "nothing complete" instead of
  // blocking or probing the socket.
  EXPECT_FALSE(reader.buffered_next(&out));
}

TEST(FrameReader, MidFrameEofThrows) {
  SocketPair pair;
  std::vector<std::uint8_t> frame;
  encode_frame(Message{acquire_msg(7)}, &frame);
  // Truncate inside the payload: the peer committed to a frame it never
  // finished, which is a transport error, not a clean EOF.
  ASSERT_GT(frame.size(), kFrameHeaderBytes + 2);
  ASSERT_TRUE(
      write_full(pair.a.get(), frame.data(), kFrameHeaderBytes + 2));
  pair.a.reset();

  FrameReader reader;
  EXPECT_THROW((void)reader.next(pair.b.get()), NetError);
}

TEST(FrameReader, FrameLargerThanOneChunkArrivesInSeveralWrites) {
  SocketPair pair;
  // ~40 KB of payload: more than one 16 KiB receive chunk, so the reader
  // has to grow its buffer and fill several times for one frame.
  AcquireRequestMsg big;
  big.cookie = 9;
  for (FileId id = 0; id < 10000; ++id) big.files.push_back(id * 7);
  std::vector<std::uint8_t> stream;
  encode_frame(Message{big}, &stream);
  ASSERT_GT(stream.size(), 2u * 16 * 1024);
  encode_frame(Message{acquire_msg(10)}, &stream);
  constexpr std::size_t kPiece = 7000;
  for (std::size_t off = 0; off < stream.size(); off += kPiece) {
    const std::size_t len = std::min(kPiece, stream.size() - off);
    ASSERT_TRUE(write_full(pair.a.get(), stream.data() + off, len));
  }
  pair.a.reset();

  FrameReader reader;
  const std::optional<Message> first = reader.next(pair.b.get());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(cookie_of(*first), 9u);
  EXPECT_EQ(std::get<AcquireRequestMsg>(*first).files, big.files);
  const std::optional<Message> second = reader.next(pair.b.get());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(cookie_of(*second), 10u);
  EXPECT_FALSE(reader.next(pair.b.get()).has_value());
}

TEST(FrameReader, ManyFramesInUnevenPiecesSurviveCompaction) {
  SocketPair pair;
  // Frames of varying size, written in uneven pieces. After each piece
  // the reader decodes exactly the frames that piece completed, so the
  // bytes of the next frame -- often just part of its header -- stay in
  // the buffer behind the consumed ones and are moved to the front by
  // the next fill's compaction.
  constexpr std::uint64_t kFrames = 300;
  std::vector<std::uint8_t> stream;
  std::vector<std::size_t> frame_end;
  for (std::uint64_t cookie = 0; cookie < kFrames; ++cookie) {
    AcquireRequestMsg msg;
    msg.cookie = cookie;
    for (FileId id = 0; id <= cookie % 5; ++id) msg.files.push_back(id);
    encode_frame(Message{msg}, &stream);
    frame_end.push_back(stream.size());
  }

  const std::size_t kPieces[] = {1, 3, 2, 9, 4, 17, 6, 31, 5};
  FrameReader reader;
  std::size_t written = 0;
  std::uint64_t decoded = 0;
  std::size_t partial_headers_left = 0;
  for (std::size_t i = 0; written < stream.size(); ++i) {
    const std::size_t len =
        std::min(kPieces[i % std::size(kPieces)], stream.size() - written);
    ASSERT_TRUE(write_full(pair.a.get(), stream.data() + written, len));
    written += len;
    const std::uint64_t before = decoded;
    while (decoded < kFrames && frame_end[decoded] <= written) {
      const std::optional<Message> message = reader.next(pair.b.get());
      ASSERT_TRUE(message.has_value());
      EXPECT_EQ(cookie_of(*message), decoded);
      EXPECT_EQ(std::get<AcquireRequestMsg>(*message).files.size(),
                decoded % 5 + 1);
      ++decoded;
    }
    const std::size_t frame_start = decoded == 0 ? 0 : frame_end[decoded - 1];
    if (decoded > before && written > frame_start &&
        written - frame_start < kFrameHeaderBytes)
      ++partial_headers_left;
  }
  EXPECT_EQ(decoded, kFrames);
  // The pieces did leave a partial header behind a decoded frame.
  EXPECT_GT(partial_headers_left, 0u);
  pair.a.reset();
  EXPECT_FALSE(reader.next(pair.b.get()).has_value());
}

/// The calling thread's voluntary context switches so far.
std::uint64_t voluntary_switches() {
  std::ifstream status("/proc/thread-self/status");
  std::string line;
  const std::string key = "voluntary_ctxt_switches:";
  while (std::getline(status, line))
    if (line.rfind(key, 0) == 0) return std::stoull(line.substr(key.size()));
  ADD_FAILURE() << "no " << key << " line in /proc/thread-self/status";
  return 0;
}

TEST(FrameReader, SleepsOncePerRoundTrip) {
  // A client waiting for its reply must wake only when the reply comes,
  // not also when the server reads the request. A reader asleep in
  // recv() is woken by both: 2 switches per round trip once the server
  // takes a moment (here 100 us) before it replies.
  SocketPair pair;
  constexpr int kRoundTrips = 2000;
  std::thread echo([&] {
    FrameReader reader;
    while (std::optional<Message> request = reader.next(pair.b.get())) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      if (!send_message(pair.b.get(), *request)) break;
    }
  });
  FrameReader reader;
  const std::uint64_t before = voluntary_switches();
  int answered = 0;
  while (answered < kRoundTrips &&
         send_message(pair.a.get(), Message{acquire_msg(1)}) &&
         reader.next(pair.a.get()).has_value())
    ++answered;
  const double per_round_trip =
      static_cast<double>(voluntary_switches() - before) / kRoundTrips;
  pair.a.shutdown_both();  // ends the echo thread
  echo.join();
  ASSERT_EQ(answered, kRoundTrips);
  EXPECT_LE(per_round_trip, 1.5) << "voluntary switches per round trip";
}

/// Holds an ephemeral TCP port, so no daemon elsewhere binds it (and,
/// with it, the local name "@fbcd.<port>") while the test runs.
std::uint16_t hold_port(UniqueFd* holder) {
  std::uint16_t port = 0;
  *holder = bind_loopback(0, &port);
  return port;
}

TEST(LocalSocket, BundleClientDialsTheAbstractNameOfItsPort) {
  UniqueFd tcp;
  const std::uint16_t port = hold_port(&tcp);
  UniqueFd listener = listen_local(port);
  BundleClient client(port);
  // A local connect is queued by the time it returns, so this accept
  // does not wait.
  UniqueFd accepted(::accept(listener.get(), nullptr, nullptr));
  ASSERT_TRUE(accepted.valid());
  int domain = 0;
  socklen_t len = sizeof domain;
  ASSERT_EQ(::getsockopt(accepted.get(), SOL_SOCKET, SO_DOMAIN, &domain, &len),
            0);
  EXPECT_EQ(domain, AF_UNIX);
}

TEST(LocalSocket, NameIsExclusiveAndFreedWhenTheListenerCloses) {
  UniqueFd tcp;
  const std::uint16_t port = hold_port(&tcp);
  UniqueFd first = listen_local(port);
  EXPECT_THROW((void)listen_local(port), NetError);
  first.reset();
  EXPECT_THROW((void)connect_local(port), NetError);
  UniqueFd again = listen_local(port);
  EXPECT_TRUE(connect_local(port).valid());
}

}  // namespace
}  // namespace fbc::service
