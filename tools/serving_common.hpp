// Shared CLI plumbing for the serving tools (fbcd, fbcload, fbcgrid).
//
// The config flags come from the field lists next to the structs
// (FBC_SERVICE_CONFIG_FIELDS, FBC_CLUSTER_CONFIG_FIELDS; see
// config_cli.hpp), expanded here into flag registration, parsing and
// fbcgrid's per-shard fbcd command lines. The tools must also build
// the *same* workload from the same scenario flags: fbcd serves the
// catalog, fbcload replays the job stream against it, and because
// generation is seed-deterministic the two processes agree on every file
// id and size without exchanging anything but the flags.
#pragma once

#include <pthread.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "config_cli.hpp"
#include "core/incremental_select.hpp"
#include "core/registry.hpp"
#include "grid/mss.hpp"
#include "service/server.hpp"
#include "testing/oracles.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "workload/scenarios.hpp"
#include "workload/workload.hpp"

namespace fbc::tools {

#define FBC_FIELD_FLAG(kind, member, initial, flag, help) flag,

/// Registers one flag per service::ServiceConfig field.
inline void add_service_options(CliParser& cli) {
  const service::ServiceConfig defaults;
  FBC_SERVICE_CONFIG_FIELDS(FBC_ADD_FIELD)
}

/// Builds a ServiceConfig from the flags added above.
inline service::ServiceConfig service_config_from_cli(const CliParser& cli) {
  service::ServiceConfig config;
  FBC_SERVICE_CONFIG_FIELDS(FBC_READ_FIELD)
  if (config.shadow_diff) {
    // The server itself cannot depend on the testing library; install its
    // prefix-aware factory so "enginediff:<policy>" wraps the configured
    // policy in the lock-step Reference-vs-Incremental adapter.
    config.policy_factory = [](const std::string& name,
                               const PolicyContext& context) {
      return testing::make_shadow_policy("enginediff:" + name, context);
    };
  }
  return config;
}

/// Registers one flag per cluster::ClusterConfig field (fbcgrid and
/// fbcload --cluster share this surface).
inline void add_cluster_options(CliParser& cli) {
  const cluster::ClusterConfig defaults;
  FBC_CLUSTER_CONFIG_FIELDS(FBC_ADD_FIELD)
}

/// Builds a ClusterConfig from the flags added above.
inline cluster::ClusterConfig cluster_config_from_cli(const CliParser& cli) {
  cluster::ClusterConfig config;
  FBC_CLUSTER_CONFIG_FIELDS(FBC_READ_FIELD)
  return config;
}

/// The command line of fbcgrid's fbcd child `shard_id`: every service and
/// scenario flag the grid was given, forwarded as the raw string it was
/// given in, so each shard builds the exact workload and serving stack the
/// router plans against. The shard id is the child's own.
inline std::vector<std::string> shard_daemon_args(const CliParser& cli,
                                                  std::uint32_t shard_id) {
  std::vector<std::string> args = {"--port=0",
                                   "--shard-id=" + std::to_string(shard_id)};
  for (const char* flag : {"scenario", "wseed", "jobs", "tier-mix",
                           FBC_SERVICE_CONFIG_FIELDS(FBC_FIELD_FLAG)}) {
    const std::string name = flag;
    if (name != "shard-id" && cli.was_set(name))
      args.push_back("--" + name + "=" + cli.get_string(name));
  }
  return args;
}

/// The storage every serving tool stages from: the default tiers, with
/// files placed by --tier-mix (seeded by --wseed).
inline std::unique_ptr<MassStorageSystem> make_tiered_mss(
    const CliParser& cli, const Workload& workload) {
  auto mss =
      std::make_unique<MassStorageSystem>(default_tiers(), workload.catalog);
  place_tier_mix(*mss, cli.get_string("tier-mix"), cli.get_u64("wseed"));
  return mss;
}

/// Client-side budget for QueueFull backpressure retries.
///
/// The server's retry_after_ms hint is load-proportional, so honoring it
/// verbatim is right -- but a naive "sleep the hint, up to N attempts"
/// loop can sleep N * hint total, far past the request's own admission
/// timeout (the bug this class replaces: 1000 attempts x a deep-queue
/// hint is tens of minutes against a wedged server). The budget caps the
/// *cumulative* sleep at the per-request timeout: each retry sleeps
/// min(hint, budget left), and once the budget is spent the request is
/// reported failed instead of retried.
class RetryBudget {
 public:
  /// `timeout_ms` is the total sleep allowance across all retries of one
  /// request (normally ServiceConfig::timeout_ms).
  explicit RetryBudget(std::uint64_t timeout_ms) : remaining_ms_(timeout_ms) {}

  /// Milliseconds to sleep before the next attempt, honoring the server
  /// hint (clamped up to 1ms -- a zero hint must still yield), or
  /// std::nullopt when the budget is exhausted and the caller should give
  /// up.
  [[nodiscard]] std::optional<std::uint64_t> next_delay(
      std::uint32_t retry_after_ms) {
    if (remaining_ms_ == 0) return std::nullopt;
    const std::uint64_t hint = std::max<std::uint64_t>(1, retry_after_ms);
    const std::uint64_t delay = std::min(hint, remaining_ms_);
    remaining_ms_ -= delay;
    return delay;
  }

  /// Sleep budget still available.
  [[nodiscard]] std::uint64_t remaining_ms() const noexcept {
    return remaining_ms_;
  }

 private:
  std::uint64_t remaining_ms_;
};

/// Blocks `signals` in the calling thread. Call it before any thread
/// starts: every thread inherits the mask, so the signals stay pending
/// until the supervisor takes them with sigwait() on the returned set.
inline sigset_t block_signals(std::initializer_list<int> signals) {
  sigset_t set;
  sigemptyset(&set);
  for (const int signal_number : signals) sigaddset(&set, signal_number);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  return set;
}

/// Registers the scenario flags both serving tools share.
inline void add_scenario_options(CliParser& cli) {
  cli.add_option("scenario", "random|henp|climate|bitmap", "random");
  cli.add_option("wseed", "workload generation seed", "42");
  cli.add_option("jobs", "job-stream length", "2000");
  cli.add_option("tier-mix",
                 "fraction of files on tape,remote (rest on disk pool)",
                 "0.5,0.33");
}

/// Deterministically generates the workload named by --scenario, sized
/// against the service cache so bundles actually contend.
inline Workload build_scenario_workload(const CliParser& cli,
                                        Bytes cache_bytes) {
  const std::string scenario = cli.get_string("scenario");
  const std::uint64_t seed = cli.get_u64("wseed");
  const std::size_t jobs = cli.get_u64("jobs");
  if (scenario == "random") {
    WorkloadConfig config;
    config.seed = seed;
    config.cache_bytes = cache_bytes;
    config.num_jobs = jobs;
    config.popularity = Popularity::Zipf;
    return generate_workload(config);
  }
  if (scenario == "henp") {
    HenpConfig config;
    config.seed = seed;
    config.cache_bytes = cache_bytes;
    config.num_jobs = jobs;
    return generate_henp_workload(config);
  }
  if (scenario == "climate") {
    ClimateConfig config;
    config.seed = seed;
    config.cache_bytes = cache_bytes;
    config.num_jobs = jobs;
    return generate_climate_workload(config);
  }
  if (scenario == "bitmap") {
    BitmapConfig config;
    config.seed = seed;
    config.cache_bytes = cache_bytes;
    config.num_jobs = jobs;
    return generate_bitmap_workload(config);
  }
  throw std::invalid_argument("unknown --scenario: " + scenario);
}

}  // namespace fbc::tools
