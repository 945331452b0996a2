// fbcgrid: the sharded bundle-serving cluster daemon.
//
// Three deployment shapes behind the same ClusterRouter and port:
//
//   fbcgrid --shards=4 --placement=affinity --cache=512MiB --port=7402
//     N in-process BundleServer shards (the default -- one process).
//
//   fbcgrid --spawn-remote --shards=4 --port=0
//     forks N fbcd shard daemons (ephemeral ports scraped from their
//     startup lines) and routes to them over the wire protocol -- the
//     multi-process deployment. Children are supervised: a shard that
//     dies is reported (and the router degrades placement around it);
//     shutdown SIGTERMs the fleet and a shard audit violation fails the
//     grid.
//
//   fbcgrid --attach=7411,7412,7413,7414 --port=7402
//     routes to pre-started fbcd daemons it does not own (multi-host
//     shape: start fbcd anywhere, attach a router to the ports).
//
// Clients speak the ordinary fbcd wire protocol and never see the
// sharding (a HelloRequest reveals it: role=router, shard_count=N, plus
// shards_down for fleet health). Placement picks how bundles land on
// shards (see docs/CLUSTER.md); a shard that throws NetError
// --down-threshold times in a row is marked down and requests re-route
// to live shards until a probe succeeds. Drive it with fbcctl or
// fbcload. Runs until SIGINT/SIGTERM; exits non-zero if any shard's
// final audit reports an invariant violation.
#include <csignal>
#include <iostream>
#include <memory>
#include <vector>

#include "fleet.hpp"
#include "serving_common.hpp"
#include "service/daemon.hpp"

using namespace fbc;

namespace {

/// Path of the fbcd binary for --spawn-remote: the --fbcd flag, or the
/// sibling of this binary (build/tools/fbcgrid -> build/tools/fbcd).
std::string resolve_fbcd_path(const CliParser& cli, const char* argv0) {
  std::string path = cli.get_string("fbcd");
  if (!path.empty()) return path;
  const std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "fbcd";
  return self.substr(0, slash + 1) + "fbcd";
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("fbcgrid",
                "Serve bundle leases from a sharded cluster behind one port");
  tools::add_service_options(cli);
  tools::add_scenario_options(cli);
  tools::add_cluster_options(cli);
  cli.add_option("port",
                 "port held on 127.0.0.1, naming socket @fbcd.PORT "
                 "(0 = ephemeral)",
                 "7402");
  cli.add_flag("spawn-remote",
               "fork one fbcd shard daemon per shard and route to them "
               "over the wire (multi-process deployment)");
  cli.add_option("attach",
                 "comma-separated ports of pre-started fbcd shard daemons "
                 "to route to (overrides --shards)",
                 "");
  cli.add_option("fbcd",
                 "fbcd binary for --spawn-remote (default: next to this "
                 "binary)",
                 "");

  std::vector<tools::ShardProcess> fleet;
  try {
    cli.parse(argc, argv);
    // SIGCHLD too: the supervisor wakes only to stop or to reap a shard.
    const sigset_t signals =
        tools::block_signals({SIGINT, SIGTERM, SIGCHLD});
    const service::ServiceConfig service_config =
        tools::service_config_from_cli(cli);
    cluster::ClusterConfig cluster_config =
        tools::cluster_config_from_cli(cli);
    const bool spawn = cli.get_flag("spawn-remote");
    const std::string attach = cli.get_string("attach");
    if (spawn && !attach.empty())
      throw std::invalid_argument("--spawn-remote and --attach are exclusive");
    const bool remote = spawn || !attach.empty();

    // The job stream is sized against one shard's cache, same as fbcload
    // --cluster, so both sides generate identical catalogs.
    const Workload workload =
        tools::build_scenario_workload(cli, service_config.cache_bytes);

    std::unique_ptr<MassStorageSystem> mss;
    cluster::ClusterStack stack;  // in-process shards (default mode)
    std::unique_ptr<cluster::ClusterRouter> remote_router;
    cluster::ClusterRouter* router = nullptr;
    if (remote) {
      std::vector<std::uint16_t> ports;
      if (spawn) {
        const std::string fbcd = resolve_fbcd_path(cli, argv[0]);
        for (std::uint32_t i = 0; i < cluster_config.shards; ++i)
          fleet.push_back(tools::spawn_shard_daemon(
              fbcd, tools::shard_daemon_args(cli, i)));
        for (std::size_t i = 0; i < fleet.size(); ++i) {
          ports.push_back(fleet[i].port);
          // Parseable per-child line (the CI smoke kills one by pid).
          std::cout << "fbcgrid: shard " << i << " pid=" << fleet[i].pid
                    << " port=" << fleet[i].port << "\n";
        }
      } else {
        ports = tools::parse_port_list(attach);
        if (ports.empty())
          throw std::invalid_argument("--attach lists no ports");
        cluster_config.shards = static_cast<std::uint32_t>(ports.size());
      }
      std::vector<std::unique_ptr<cluster::Shard>> shards;
      shards.reserve(ports.size());
      for (const std::uint16_t p : ports)
        shards.push_back(std::make_unique<cluster::RemoteShard>(p));
      remote_router = std::make_unique<cluster::ClusterRouter>(
          cluster_config, workload.catalog, service_config.cache_bytes,
          std::move(shards));
      router = remote_router.get();
    } else {
      mss = tools::make_tiered_mss(cli, workload);
      stack =
          cluster::make_local_cluster(cluster_config, service_config, *mss);
      router = stack.router.get();
    }

    service::BundleDaemon daemon(
        *router, static_cast<std::uint16_t>(cli.get_u64("port")));
    // Parseable startup line (CI smoke scrapes the port).
    std::cout << "fbcgrid: listening on 127.0.0.1:" << daemon.port()
              << " shards=" << cluster_config.shards
              << " placement=" << cluster::to_string(cluster_config.placement)
              << " mode=" << (spawn ? "spawn" : (remote ? "attach" : "local"))
              << " scenario=" << cli.get_string("scenario")
              << " policy=" << service_config.policy << " cache="
              << format_bytes(service_config.cache_bytes) << "/shard"
              << std::endl;

    // Sleeps until SIGINT or SIGTERM; each SIGCHLD before that reports
    // the shards that died.
    int caught = 0;
    while (sigwait(&signals, &caught) == 0 && caught == SIGCHLD) {
      for (const std::size_t i : tools::reap_exited(fleet)) {
        // The router degrades placement around the dead shard on its
        // own; the supervisor just makes the death visible.
        std::cerr << "fbcgrid: shard " << i << " (pid " << fleet[i].pid
                  << ") died: " << tools::describe_exit(fleet[i].wait_status)
                  << "; routing around it\n";
      }
    }

    // The shard totals come from the shards themselves, so read them
    // before stop() closes the router and with it every RemoteShard.
    const service::ServiceStats stats = router->stats();
    const service::MetricsSnapshot metrics = router->metrics();
    daemon.stop();
    std::uint64_t single = 0;
    std::uint64_t scatter = 0;
    std::uint64_t rollback = 0;
    std::uint64_t rerouted = 0;
    std::uint64_t shard_down = 0;
    std::uint64_t recovered = 0;
    for (const auto& [name, value] : metrics.counters) {
      if (name == "grid.acquire.single") single = value;
      if (name == "grid.acquire.scatter") scatter = value;
      if (name == "grid.acquire.rollback") rollback = value;
      if (name == "grid.acquire.rerouted") rerouted = value;
      if (name == "grid.shard.down") shard_down = value;
      if (name == "grid.shard.recovered") recovered = value;
    }
    std::cout << "fbcgrid: served " << stats.requests
              << " shard requests (" << single << " single-shard, " << scatter
              << " scattered, " << rollback << " rolled back, " << rerouted
              << " rerouted), " << daemon.connections_accepted()
              << " connections, " << daemon.leases_reclaimed()
              << " leases reclaimed, " << shard_down << " shard-down / "
              << recovered << " recovered events\n";

    bool clean = true;
    for (std::size_t i = 0; i < stack.servers.size(); ++i) {
      for (const std::string& v : stack.servers[i]->audit()) {
        std::cerr << "fbcgrid: AUDIT VIOLATION (shard " << i << "): " << v
                  << "\n";
        clean = false;
      }
    }
    if (router->scatter_leases() != 0) {
      std::cerr << "fbcgrid: AUDIT VIOLATION: " << router->scatter_leases()
                << " scatter leases still outstanding at shutdown\n";
      clean = false;
    }
    if (router->pending_releases() != 0) {
      // Deferred releases for a shard that never came back are expected
      // after a kill (the dead daemon's pins died with it); report, do
      // not fail.
      std::cerr << "fbcgrid: " << router->pending_releases()
                << " release(s) still deferred for down shards\n";
    }

    // Remote shards audit themselves: SIGTERM the fleet and fold each
    // child's exit status in (fbcd exits 1 on an audit violation). A
    // child killed by a signal mid-run is the failure-injection case the
    // router is built for -- reported, but not a grid failure.
    tools::shutdown_fleet(fleet);
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const int status = fleet[i].wait_status;
      if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        std::cerr << "fbcgrid: AUDIT VIOLATION (shard " << i
                  << "): shard daemon " << tools::describe_exit(status)
                  << "\n";
        clean = false;
      } else if (WIFSIGNALED(status)) {
        std::cerr << "fbcgrid: shard " << i << " was killed ("
                  << tools::describe_exit(status) << "); tolerated\n";
      }
    }
    return clean ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fbcgrid: error: " << e.what() << "\n";
    tools::shutdown_fleet(fleet);
    return 1;
  }
}
