// fbcd: the bundle-serving daemon.
//
// Generates a deterministic scenario workload, builds the MSS + cache +
// policy stack, and serves bundle leases over the fbcd wire protocol on
// the Unix socket "@fbcd.PORT" (TCP 127.0.0.1:PORT is held as its name,
// not served):
//
//   fbcd --scenario=henp --cache=2GiB --policy=optfb --port=7401
//   fbcd --port=0            # ephemeral port, printed on stdout
//
// Drive it with fbcctl (single-shot) or fbcload (load generator). The
// daemon runs until SIGINT/SIGTERM.
#include <csignal>
#include <iostream>

#include "serving_common.hpp"
#include "service/daemon.hpp"
#include "util/log.hpp"

using namespace fbc;

int main(int argc, char** argv) {
  CliParser cli("fbcd", "Serve bundle leases over the fbcd wire protocol");
  tools::add_service_options(cli);
  tools::add_scenario_options(cli);
  cli.add_option("port",
                 "port held on 127.0.0.1, naming socket @fbcd.PORT "
                 "(0 = ephemeral)",
                 "7401");

  try {
    cli.parse(argc, argv);
    const sigset_t stop_signals = tools::block_signals({SIGINT, SIGTERM});
    const service::ServiceConfig config = tools::service_config_from_cli(cli);
    const Workload workload =
        tools::build_scenario_workload(cli, config.cache_bytes);
    const auto mss = tools::make_tiered_mss(cli, workload);
    service::BundleServer server(config, *mss);
    service::BundleDaemon daemon(
        server, static_cast<std::uint16_t>(cli.get_u64("port")));
    // Parseable startup line; fbcload's --inline-free remote mode and the
    // CI smoke script scrape the port from it.
    std::cout << "fbcd: listening on 127.0.0.1:" << daemon.port()
              << " scenario=" << cli.get_string("scenario")
              << " policy=" << config.policy
              << " cache=" << format_bytes(config.cache_bytes) << std::endl;

    int caught = 0;
    sigwait(&stop_signals, &caught);

    daemon.stop();
    const service::ServiceStats stats = server.stats();
    std::cout << "fbcd: served " << stats.requests << " requests ("
              << stats.request_hits << " bundle hits), "
              << daemon.connections_accepted() << " connections, "
              << daemon.leases_reclaimed() << " leases reclaimed\n";
    const std::vector<std::string> violations = server.audit();
    for (const std::string& v : violations)
      std::cerr << "fbcd: AUDIT VIOLATION: " << v << "\n";
    return violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fbcd: error: " << e.what() << "\n";
    return 1;
  }
}
