// FrameReader tests over a Unix socketpair: burst decoding (many frames
// from one write, one recv), the syscall-free buffered_next drain, the
// non-blocking try_next state machine, and mid-frame EOF handling. These
// pin the buffered transport that both the daemon and BundleClient read
// every frame through.
#include "service/net.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

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

TEST(FrameReader, TryNextReportsEmptyGotAndEof) {
  SocketPair pair;
  FrameReader reader;
  Message out;

  // Nothing written yet: Empty, not a block.
  EXPECT_EQ(reader.try_next(pair.b.get(), &out), TryRecv::Empty);

  ASSERT_TRUE(send_message(pair.a.get(), Message{acquire_msg(42)}));
  EXPECT_EQ(reader.try_next(pair.b.get(), &out), TryRecv::Got);
  EXPECT_EQ(cookie_of(out), 42u);
  EXPECT_EQ(reader.try_next(pair.b.get(), &out), TryRecv::Empty);

  pair.a.reset();
  EXPECT_EQ(reader.try_next(pair.b.get(), &out), TryRecv::Eof);
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

}  // namespace
}  // namespace fbc::service
