// fbcctl: control client for a running fbcd or fbcgrid.
//
//   fbcctl --port=7401 stats
//   fbcctl --port=7401 metrics --watch=2        # re-poll every 2 seconds
//   fbcctl --cluster=7401,7411,7421 stats       # merged over N daemons
//   fbcctl --port=7401 acquire --files=3,7,12
//   fbcctl --port=7401 release --lease=42
//
// --watch re-polls the same connection (stats/metrics wire messages are
// cheap and side-effect free) until interrupted. --cluster connects to
// every listed port and prints the exact merge of the per-daemon
// snapshots -- the same aggregation a ClusterRouter serves for its own
// shards, but computed client-side for independently started daemons.
//
// Note acquire+exit releases the lease immediately (the daemon reclaims
// leases of departed connections); use --hold-ms to keep it pinned for a
// while, e.g. to watch another client queue behind it.
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/stats.hpp"
#include "service/client.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace fbc;

namespace {

std::vector<FileId> parse_files(const std::string& list) {
  std::vector<FileId> files;
  std::istringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty())
      files.push_back(static_cast<FileId>(std::stoul(token)));
  }
  return files;
}

void print_stats(const service::ServiceStats& s) {
  TextTable table({"counter", "value"});
  for (const service::StatField& field : service::kServiceStatsFields) {
    const std::uint64_t value = s.*field.member;
    table.add_row({field.name, field.kind == service::StatKind::Bytes
                                   ? format_bytes(value)
                                   : std::to_string(value)});
  }
  table.print(std::cout);
}

void print_metrics(const service::MetricsSnapshot& m) {
  print_stats(m.stats);

  std::cout << "\n";
  TextTable counters({"counter", "value"});
  for (const auto& [name, value] : m.counters)
    counters.add_row({name, std::to_string(value)});
  counters.print(std::cout);

  std::cout << "\n";
  TextTable hists({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
  for (const auto& named : m.histograms) {
    const auto& h = named.hist;
    hists.add_row({named.name, std::to_string(h.count()),
                   format_double(h.mean()), format_double(h.quantile(0.50)),
                   format_double(h.quantile(0.95)),
                   format_double(h.quantile(0.99)), std::to_string(h.max())});
  }
  hists.print(std::cout);
}

std::vector<std::uint16_t> parse_ports(const std::string& list) {
  std::vector<std::uint16_t> ports;
  std::istringstream in(list);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (!token.empty())
      ports.push_back(static_cast<std::uint16_t>(std::stoul(token)));
  }
  return ports;
}

/// Connects to one daemon, turning the bare connect errno into an
/// actionable message (the old behavior surfaced "connect(127.0.0.1:N):
/// Connection refused" with no hint at what to do about it).
std::unique_ptr<service::BundleClient> connect_or_explain(std::uint16_t port) {
  try {
    return std::make_unique<service::BundleClient>(port);
  } catch (const service::NetError& e) {
    throw std::runtime_error(std::string(e.what()) +
                             " -- is fbcd/fbcgrid running on 127.0.0.1:" +
                             std::to_string(port) + "?");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // The first non-flag argument is the command; peel it off before the
  // flag parser (CliParser rejects positionals).
  std::string command;
  std::vector<std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (command.empty() && arg.rfind("--", 0) != 0 && arg != "-h") {
      command = arg;
    } else {
      flags.push_back(arg);
    }
  }

  CliParser cli(
      "fbcctl",
      "One-shot fbcd client: fbcctl <stats|metrics|acquire|release> ...");
  cli.add_option("port", "fbcd port (dials @fbcd.PORT)", "7401");
  cli.add_option("cluster",
                 "comma-separated daemon ports; stats/metrics are merged "
                 "over all of them",
                 "");
  cli.add_option("watch",
                 "re-poll stats/metrics every this many seconds (0 = once)",
                 "0");
  cli.add_option("files", "comma-separated file ids for acquire", "");
  cli.add_option("lease", "lease id for release", "0");
  cli.add_option("hold-ms", "hold an acquired lease this long", "0");

  try {
    cli.parse(flags);
    if (command.empty()) throw std::invalid_argument("missing command");

    std::vector<std::uint16_t> ports = parse_ports(cli.get_string("cluster"));
    const bool merged = !ports.empty();
    if (!merged)
      ports.push_back(static_cast<std::uint16_t>(cli.get_u64("port")));

    if (command == "stats" || command == "metrics") {
      std::vector<std::unique_ptr<service::BundleClient>> clients;
      clients.reserve(ports.size());
      for (std::uint16_t p : ports) clients.push_back(connect_or_explain(p));
      // Who are we looking at? One hello up front names the endpoint and
      // its fleet health (a router reports shards it has marked down).
      if (!merged) {
        const service::HelloReplyMsg hello = clients.front()->hello();
        std::cout << "endpoint: role="
                  << (hello.role == service::EndpointRole::Router ? "router"
                                                                  : "shard")
                  << " shards=" << hello.shard_count
                  << " down=" << hello.shards_down << "\n";
      }
      const std::uint64_t watch_s = cli.get_u64("watch");
      for (bool first = true;; first = false) {
        if (!first) {
          std::this_thread::sleep_for(std::chrono::seconds(watch_s));
          std::cout << "\n";
        }
        // A daemon that died (or restarted) between polls must not kill
        // the watch: reconnect once, and on failure skip it this round
        // and flag how many answered. One-shot polls still die loudly.
        std::size_t reachable = 0;
        std::vector<service::ServiceStats> stat_snaps;
        std::vector<service::MetricsSnapshot> metric_snaps;
        for (std::size_t i = 0; i < clients.size(); ++i) {
          try {
            if (command == "stats") {
              stat_snaps.push_back(clients[i]->stats());
            } else {
              metric_snaps.push_back(clients[i]->metrics());
            }
            ++reachable;
          } catch (const service::NetError&) {
            if (watch_s == 0) throw;
            try {
              clients[i]->reconnect();
              if (command == "stats") {
                stat_snaps.push_back(clients[i]->stats());
              } else {
                metric_snaps.push_back(clients[i]->metrics());
              }
              ++reachable;
            } catch (const service::NetError&) {
              std::cout << "daemon 127.0.0.1:" << clients[i]->port()
                        << " (down)\n";
            }
          }
        }
        if (reachable == 0) {
          std::cout << "all " << clients.size() << " daemon(s) down\n";
        } else {
          if (reachable != clients.size())
            std::cout << "reporting " << reachable << "/" << clients.size()
                      << " daemons\n";
          if (command == "stats") {
            print_stats(merged ? cluster::merge_stats(stat_snaps)
                               : stat_snaps.front());
          } else {
            print_metrics(merged ? cluster::merge_metrics(metric_snaps)
                                 : metric_snaps.front());
          }
        }
        if (watch_s == 0) break;
        // A watch loop only ever exits by signal, so nothing downstream
        // of a pipe sees the snapshot unless each poll is flushed.
        std::cout.flush();
      }
      return 0;
    }

    const std::unique_ptr<service::BundleClient> client_ptr =
        connect_or_explain(ports.front());
    service::BundleClient& client = *client_ptr;

    if (command == "acquire") {
      const service::AcquireResult r =
          client.acquire(parse_files(cli.get_string("files")));
      std::cout << "status=" << to_string(r.status) << " lease=" << r.lease
                << " hit=" << (r.request_hit ? "yes" : "no")
                << " retries=" << r.retries;
      if (r.status == service::AcquireStatus::QueueFull)
        std::cout << " retry_after_ms=" << r.retry_after_ms;
      std::cout << "\n";
      if (r.status != service::AcquireStatus::Ok) return 1;
      const auto hold = cli.get_u64("hold-ms");
      if (hold > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(hold));
      client.release(r.lease);
      return 0;
    }
    if (command == "release") {
      const bool ok = client.release(cli.get_u64("lease"));
      std::cout << (ok ? "released" : "unknown lease") << "\n";
      return ok ? 0 : 1;
    }
    throw std::invalid_argument("unknown command '" + command +
                                "' (stats|metrics|acquire|release)");
  } catch (const std::exception& e) {
    std::cerr << "fbcctl: error: " << e.what() << "\n";
    return 1;
  }
}
