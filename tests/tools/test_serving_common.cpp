// Serving-tool plumbing tests: the RetryBudget that caps cumulative
// QueueFull backoff at the per-request timeout (the fbcload retry
// regression), the flag -> config mapping the serving tools share, and
// fbcgrid's forwarding of its flags to each fbcd child.
#include "tools/serving_common.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace fbc::tools {
namespace {

// Field-list expansions over two configs named `actual` and `expected`.
#define EXPECT_FIELD_EQ(kind, member, initial, flag, help) \
  EXPECT_EQ(actual.member, expected.member) << "--" flag;
#define EXPECT_FIELD_NE(kind, member, initial, flag, help) \
  EXPECT_NE(actual.member, expected.member) << "--" flag " kept its default";

TEST(RetryBudget, HonorsTheServerHintWithinBudget) {
  RetryBudget budget(100);
  EXPECT_EQ(budget.next_delay(30), std::optional<std::uint64_t>(30));
  EXPECT_EQ(budget.remaining_ms(), 70u);
}

TEST(RetryBudget, ZeroHintStillYieldsAtLeastOneMillisecond) {
  // A zero retry_after_ms hint must not turn the client into a busy
  // spinner against a loaded server.
  RetryBudget budget(10);
  EXPECT_EQ(budget.next_delay(0), std::optional<std::uint64_t>(1));
  EXPECT_EQ(budget.remaining_ms(), 9u);
}

TEST(RetryBudget, LastDelayIsClampedToWhatIsLeft) {
  RetryBudget budget(40);
  EXPECT_EQ(budget.next_delay(25), std::optional<std::uint64_t>(25));
  // Hint exceeds the 15ms left: sleep only the remainder...
  EXPECT_EQ(budget.next_delay(25), std::optional<std::uint64_t>(15));
  // ...then give up instead of sleeping past the request timeout.
  EXPECT_EQ(budget.next_delay(25), std::nullopt);
  EXPECT_EQ(budget.remaining_ms(), 0u);
}

TEST(RetryBudget, ZeroTimeoutNeverRetries) {
  RetryBudget budget(0);
  EXPECT_EQ(budget.next_delay(1), std::nullopt);
}

TEST(RetryBudget, CumulativeSleepNeverExceedsTheTimeout) {
  // The regression this class exists for: N attempts x a deep-queue hint
  // must not sleep N * hint. Whatever hints the server hands out, the
  // total sleep is bounded by the construction-time budget.
  constexpr std::uint64_t kTimeoutMs = 250;
  RetryBudget budget(kTimeoutMs);
  std::uint64_t slept = 0;
  std::size_t attempts = 0;
  const std::uint32_t hints[] = {0, 90, 7, 1000, 90, 90, 90};
  for (std::size_t i = 0;; i = (i + 1) % std::size(hints)) {
    const std::optional<std::uint64_t> delay = budget.next_delay(hints[i]);
    if (!delay.has_value()) break;
    slept += *delay;
    ++attempts;
    ASSERT_LT(attempts, 1000u) << "budget failed to exhaust";
  }
  EXPECT_EQ(slept, kTimeoutMs);  // budget spent exactly, never exceeded
  EXPECT_EQ(budget.remaining_ms(), 0u);
}

TEST(ServingCommon, ServiceFlagsMapOntoEveryConfigField) {
  CliParser cli("test", "flag mapping");
  add_service_options(cli);
  cli.parse({"--cache=2MiB", "--policy=lru", "--max-queue=9",
             "--order=value", "--timeout-ms=1234", "--max-retries=5",
             "--retry-backoff-ms=20", "--fail-prob=0.25", "--time-scale=0",
             "--streams=2", "--seed=77", "--retry-cap-ms=500",
             "--span-capacity=32", "--engine=reference",
             "--admission-batch=3", "--shadow-diff"});
  const service::ServiceConfig config = service_config_from_cli(cli);
  EXPECT_EQ(config.cache_bytes, 2u * MiB);
  EXPECT_EQ(config.policy, "lru");
  EXPECT_EQ(config.max_queue, 9u);
  EXPECT_EQ(config.order, service::AdmitOrder::ValueDensity);
  EXPECT_EQ(config.timeout_ms, 1234u);
  EXPECT_EQ(config.max_retries, 5u);
  EXPECT_EQ(config.retry_backoff_ms, 20u);
  EXPECT_DOUBLE_EQ(config.transfer_fail_prob, 0.25);
  EXPECT_EQ(config.transfer_streams, 2u);
  EXPECT_EQ(config.seed, 77u);
  EXPECT_EQ(config.retry_after_cap_ms, 500u);
  EXPECT_EQ(config.span_capacity, 32u);
  EXPECT_EQ(config.engine, SelectEngine::Reference);
  EXPECT_EQ(config.admission_batch, 3u);
  EXPECT_TRUE(config.shadow_diff);
  // --shadow-diff must install the enginediff policy factory, or the
  // flag would silently do nothing at the server.
  EXPECT_TRUE(static_cast<bool>(config.policy_factory));
}

TEST(ServingCommon, ClusterFlagsMapOntoEveryConfigField) {
  CliParser cli("test", "flag mapping");
  add_cluster_options(cli);
  cli.parse({"--shards=7", "--placement=hash", "--spill-threshold=0.75",
             "--vnodes=16", "--down-threshold=6", "--probe-ms=0"});
  const cluster::ClusterConfig actual = cluster_config_from_cli(cli);
  EXPECT_EQ(actual.shards, 7u);
  EXPECT_EQ(actual.placement, cluster::PlacementMode::HashFile);
  EXPECT_DOUBLE_EQ(actual.spill_threshold, 0.75);
  EXPECT_EQ(actual.vnodes, 16u);
  EXPECT_EQ(actual.down_threshold, 6u);
  EXPECT_EQ(actual.probe_ms, 0u);
  const cluster::ClusterConfig expected;
  FBC_CLUSTER_CONFIG_FIELDS(EXPECT_FIELD_NE)
}

TEST(ServingCommon, DefaultsKeepTheOptimizedServingPath) {
  CliParser cli("test", "defaults");
  add_service_options(cli);
  add_cluster_options(cli);
  cli.parse(std::vector<std::string>{});
  const service::ServiceConfig config = service_config_from_cli(cli);
  EXPECT_EQ(config.engine, SelectEngine::Incremental);
  EXPECT_GT(config.admission_batch, 1u);
  EXPECT_FALSE(config.shadow_diff);
  EXPECT_FALSE(static_cast<bool>(config.policy_factory));
  // No flags at all: every field keeps the struct's own initial value.
  {
    const service::ServiceConfig& actual = config;
    const service::ServiceConfig expected;
    FBC_SERVICE_CONFIG_FIELDS(EXPECT_FIELD_EQ)
  }
  EXPECT_EQ(cluster_config_from_cli(cli), cluster::ClusterConfig{});
}

TEST(ServingCommon, U32FieldsRejectValuesPastTheirRange) {
  // A bare static_cast used to turn 2^32 ms into a 0 ms timeout.
  CliParser cli("test", "u32 overflow");
  add_service_options(cli);
  cli.parse({"--timeout-ms=4294967296"});
  try {
    (void)service_config_from_cli(cli);
    ADD_FAILURE() << "--timeout-ms=4294967296 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--timeout-ms"), std::string::npos);
  }
}

/// A parser with fbcd's flags; fbcgrid's adds the cluster flags.
CliParser daemon_parser(bool grid) {
  CliParser cli(grid ? "fbcgrid" : "fbcd", "daemon");
  add_service_options(cli);
  add_scenario_options(cli);
  if (grid) add_cluster_options(cli);
  cli.add_option("port", "listen port", "7401");
  return cli;
}

TEST(ServingCommon, ShardDaemonArgsForwardEveryServiceField) {
  CliParser grid = daemon_parser(true);
  grid.parse(std::vector<std::string>{});
  // An all-default grid forwards nothing: each child keeps fbcd's defaults.
  EXPECT_EQ(shard_daemon_args(grid, 2),
            (std::vector<std::string>{"--port=0", "--shard-id=2"}));
  grid.parse({"--cache=3MiB", "--policy=lru", "--max-queue=9",
              "--order=value", "--timeout-ms=1234", "--max-retries=5",
              "--retry-backoff-ms=20", "--fail-prob=0.12345678901234567",
              "--time-scale=0.001000", "--streams=2", "--seed=77",
              "--retry-cap-ms=500", "--span-capacity=32",
              "--engine=reference", "--admission-batch=3",
              "--shadow-diff=true", "--shard-id=9", "--scenario=henp",
              "--wseed=7", "--jobs=11", "--tier-mix=0.2,0.3",
              "--shards=3", "--port=0"});
  const service::ServiceConfig granted = service_config_from_cli(grid);
  {
    // Every field is off its default, so the round trip below covers it.
    const service::ServiceConfig& actual = granted;
    const service::ServiceConfig expected;
    FBC_SERVICE_CONFIG_FIELDS(EXPECT_FIELD_NE)
  }
  for (std::uint32_t shard = 0; shard < 3; ++shard) {
    const std::vector<std::string> args = shard_daemon_args(grid, shard);
    // Raw strings, byte for byte: no reformatting of the grid's values.
    EXPECT_NE(std::find(args.begin(), args.end(), "--time-scale=0.001000"),
              args.end());
    CliParser child = daemon_parser(false);
    child.parse(args);
    const service::ServiceConfig actual = service_config_from_cli(child);
    service::ServiceConfig expected = granted;
    expected.shard_id = shard;
    FBC_SERVICE_CONFIG_FIELDS(EXPECT_FIELD_EQ)
    EXPECT_TRUE(static_cast<bool>(actual.policy_factory));
    for (const char* flag : {"scenario", "wseed", "jobs", "tier-mix"})
      EXPECT_EQ(child.get_string(flag), grid.get_string(flag)) << flag;
    EXPECT_EQ(child.get_u64("port"), 0u);
  }
}

}  // namespace
}  // namespace fbc::tools
