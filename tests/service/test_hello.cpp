// Hello-protocol tests: HelloRequest/HelloReply wire round-trips, and
// end-to-end identity discovery against live daemons -- a standalone fbcd
// shard answers role=shard with its configured shard_id, and a BundleDaemon
// fronting a ClusterRouter answers role=router with the shard count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/router.hpp"
#include "grid/mss.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace fbc::service {
namespace {

Message round_trip(const Message& message) {
  std::vector<std::uint8_t> frame;
  encode_frame(message, &frame);
  const FrameHeader header = decode_header({frame.data(), kFrameHeaderBytes});
  EXPECT_EQ(header.type, message_type(message));
  return decode_payload(header.type, {frame.data() + kFrameHeaderBytes,
                                      frame.size() - kFrameHeaderBytes});
}

FileCatalog sized_catalog(std::size_t count) {
  std::vector<Bytes> sizes(count, 100);
  return FileCatalog(std::move(sizes));
}

TEST(Hello, RequestRoundTrips) {
  const Message decoded = round_trip(HelloRequestMsg{});
  EXPECT_TRUE(std::holds_alternative<HelloRequestMsg>(decoded));
}

TEST(Hello, ReplyRoundTrips) {
  HelloReplyMsg msg;
  msg.role = EndpointRole::Router;
  msg.shard_id = 3;
  msg.shard_count = 8;
  msg.shards_down = 2;
  const Message decoded = round_trip(msg);
  const auto& out = std::get<HelloReplyMsg>(decoded);
  EXPECT_EQ(out.role, EndpointRole::Router);
  EXPECT_EQ(out.shard_id, 3u);
  EXPECT_EQ(out.shard_count, 8u);
  EXPECT_EQ(out.shards_down, 2u);
}

TEST(Hello, ReplyRejectsMoreDownThanShards) {
  HelloReplyMsg msg;
  msg.role = EndpointRole::Router;
  msg.shard_count = 2;
  msg.shards_down = 3;
  std::vector<std::uint8_t> frame;
  encode_frame(msg, &frame);
  const FrameHeader header = decode_header({frame.data(), kFrameHeaderBytes});
  EXPECT_THROW(
      (void)decode_payload(header.type, {frame.data() + kFrameHeaderBytes,
                                         frame.size() - kFrameHeaderBytes}),
      ProtocolError);
}

TEST(Hello, StandaloneShardReportsItsId) {
  FileCatalog catalog = sized_catalog(4);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  config.shard_id = 5;
  BundleServer server(config, mss);
  BundleDaemon daemon(server, 0);
  BundleClient client(daemon.port());
  const HelloReplyMsg hello = client.hello();
  EXPECT_EQ(hello.role, EndpointRole::Shard);
  EXPECT_EQ(hello.shard_id, 5u);
  EXPECT_EQ(hello.shard_count, 1u);
}

TEST(Hello, RouterReportsShardCount) {
  FileCatalog catalog = sized_catalog(16);
  MassStorageSystem mss(default_tiers(), catalog);
  ServiceConfig config;
  config.cache_bytes = 1000;
  cluster::ClusterConfig cluster_config;
  cluster_config.shards = 3;
  cluster_config.vnodes = 16;
  const cluster::ClusterStack stack =
      cluster::make_local_cluster(cluster_config, config, mss);
  BundleDaemon daemon(*stack.router, 0);
  BundleClient client(daemon.port());
  const HelloReplyMsg hello = client.hello();
  EXPECT_EQ(hello.role, EndpointRole::Router);
  EXPECT_EQ(hello.shard_id, 0u);
  EXPECT_EQ(hello.shard_count, 3u);
  EXPECT_EQ(hello.shards_down, 0u);  // healthy fleet

  // The wire path still serves leases through the router.
  const AcquireResult result = client.acquire({1, 2});
  ASSERT_EQ(result.status, AcquireStatus::Ok);
  EXPECT_TRUE(client.release(result.lease));
}

}  // namespace
}  // namespace fbc::service
