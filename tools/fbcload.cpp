// fbcload: N-connection load generator for fbcd / fbcgrid.
//
//   # self-hosted loopback benchmark (starts fbcd in-process):
//   fbcload --inline -c 8 -n 2000 --scenario=henp --cache=2GiB
//
//   # self-hosted sharded cluster (ClusterRouter over --shards servers):
//   fbcload --inline --cluster --shards=4 -c 8 -n 2000 --cache=512MiB
//
//   # against an already-running daemon started with the SAME scenario
//   # flags (the workload is regenerated locally from them):
//   fbcload --port=7401 -c 8 -n 2000 --scenario=henp --cache=2GiB
//
// Each connection runs on its own thread with its own BundleClient and
// replays an interleaved slice of the scenario job stream: acquire ->
// hold -> release, honoring QueueFull retry-after backpressure hints.
// Reports throughput and end-to-end p50/p95/p99 acquire latency (all
// percentiles via util/stats::quantile -- the single project-wide
// implementation), fetches the server's MsgType::Metrics snapshot, and
// cross-checks the server-side span percentiles against the client-side
// view; exits nonzero if any request ultimately fails or any check trips
// (the CI smoke gate).
#include <algorithm>
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "serving_common.hpp"
#include "obs/histogram.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace fbc;

namespace {

using Clock = std::chrono::steady_clock;

/// Outcome tallies of one connection worker.
struct WorkerResult {
  std::vector<double> latencies_ms;  ///< successful acquires, end to end
  /// The same latencies floor-truncated to whole microseconds -- the
  /// exact values a server-side histogram would have seen, so the
  /// server-vs-client percentile cross-check compares like with like.
  std::vector<double> latencies_us;
  std::uint64_t ok = 0;
  std::uint64_t hits = 0;
  std::uint64_t failed = 0;
  std::uint64_t queue_retries = 0;    ///< QueueFull backpressure retries
  std::uint64_t transfer_retries = 0; ///< server-reported staging retries
};

/// Replays job indices i with i % connections == worker over one client.
///
/// Job i's release and job i+1's acquire travel in one wire round trip
/// (BundleClient::release_acquire), halving the per-job round trips -- the
/// dominant loopback cost for small bundles. Latency accounting keeps the
/// nesting the server-vs-client percentile cross-check relies on: a job's
/// window opens just before the frame carrying its acquire is written
/// (inside the previous job's combined call, for every job but a worker's
/// first) and closes when its release reply is read, so the server-side
/// enqueue->grant span always lies inside it.
void run_worker(std::uint16_t port, const Workload& workload,
                std::size_t worker, std::size_t connections,
                std::size_t total_requests, std::uint64_t hold_ms,
                std::uint64_t timeout_ms, WorkerResult* out) {
  service::BundleClient client(port);

  // Honor backpressure: QueueFull is a retry hint, not a failure. Each
  // retry sleeps the server's load-proportional hint, but the *cumulative*
  // sleep is capped at the per-request admission timeout (RetryBudget), so
  // a wedged server fails requests instead of hanging the generator.
  const auto retry_queue_full = [&](service::AcquireResult r,
                                    const Request& job) {
    tools::RetryBudget budget(timeout_ms);
    while (r.status == service::AcquireStatus::QueueFull) {
      const auto delay = budget.next_delay(r.retry_after_ms);
      if (!delay.has_value()) break;  // budget spent: report the failure
      ++out->queue_retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(*delay));
      r = client.acquire(job.files);
    }
    return r;
  };

  bool have_next = false;              // next job already acquired?
  service::AcquireResult next_result;  // ... its result
  Clock::time_point next_start{};      // ... and when its acquire was sent

  for (std::size_t i = worker; i < total_requests; i += connections) {
    const Request& job = workload.jobs[i % workload.jobs.size()];
    Clock::time_point start;
    service::AcquireResult r;
    if (have_next) {
      start = next_start;
      r = next_result;
      have_next = false;
    } else {
      start = Clock::now();
      r = retry_queue_full(client.acquire(job.files), job);
    }
    out->transfer_retries += r.retries;
    if (r.status != service::AcquireStatus::Ok) {
      ++out->failed;
      std::cerr << "fbcload: request " << i << " failed: "
                << to_string(r.status) << "\n";
      continue;
    }
    if (hold_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(hold_ms));

    bool released;
    const std::size_t next_index = i + connections;
    if (next_index < total_requests) {
      const Request& next_job =
          workload.jobs[next_index % workload.jobs.size()];
      next_start = Clock::now();
      next_result = retry_queue_full(
          client.release_acquire(r.lease, next_job.files, &released),
          next_job);
      have_next = true;
    } else {
      released = client.release(r.lease);
    }
    if (!released) ++out->failed;
    const auto elapsed = Clock::now() - start;
    const std::chrono::duration<double, std::milli> elapsed_ms = elapsed;
    out->latencies_ms.push_back(elapsed_ms.count());
    out->latencies_us.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
    ++out->ok;
    if (r.request_hit) ++out->hits;
  }
}

/// Client-side sanity checks over a stats snapshot, in the spirit of the
/// InvariantAuditor: catches a server whose counters stopped tying out.
std::vector<std::string> check_stats(const service::ServiceStats& s) {
  std::vector<std::string> violations;
  if (s.used_bytes > s.capacity_bytes)
    violations.push_back("stats: used_bytes exceeds capacity_bytes");
  if (s.request_hits > s.requests)
    violations.push_back("stats: request_hits exceeds requests");
  if (s.bytes_missed > s.bytes_requested)
    violations.push_back("stats: bytes_missed exceeds bytes_requested");
  if (s.leases_released > s.leases_granted)
    violations.push_back("stats: released more leases than granted");
  if (s.active_leases != s.leases_granted - s.leases_released)
    violations.push_back("stats: active_leases inconsistent");
  if (s.leases_granted != s.requests)
    violations.push_back("stats: leases_granted != requests admitted");
  return violations;
}

/// Looks up a named counter in a metrics snapshot (0 when absent).
std::uint64_t counter_of(const service::MetricsSnapshot& m,
                         const std::string& name) {
  for (const auto& [counter, value] : m.counters)
    if (counter == name) return value;
  return 0;
}

/// Looks up a named histogram (nullptr when absent).
const obs::Histogram* histogram_of(const service::MetricsSnapshot& m,
                                   const std::string& name) {
  for (const auto& named : m.histograms)
    if (named.name == name) return &named.hist;
  return nullptr;
}

/// Server-vs-client observability cross-checks. The bucket-sum check runs
/// on every snapshot; the rest are only meaningful when this fbcload
/// produced every request the server ever admitted (stats.requests ==
/// client_ok, always true for --inline) and are skipped silently otherwise.
///
/// The percentile check rests on per-request nesting: the server's
/// enqueue->grant span lies inside the client's acquire->release window,
/// so the k-th smallest server duration is <= the k-th smallest client
/// duration, and therefore every server quantile *lower bound* (the
/// histogram bracket) must be <= the exact client quantile computed by
/// util/stats::quantile over the same floor-truncated microsecond values.
std::vector<std::string> check_metrics(const service::MetricsSnapshot& m,
                                       const std::vector<double>& client_us,
                                       std::uint64_t client_ok) {
  std::vector<std::string> violations;
  // Holds for any snapshot: every histogram's buckets add up to its count.
  for (const auto& named : m.histograms) {
    std::uint64_t in_buckets = 0;
    for (std::size_t i = 0; i < obs::Histogram::kBucketCount; ++i)
      in_buckets += named.hist.bucket_count(i);
    if (in_buckets != named.hist.count())
      violations.push_back("metrics: histogram " + named.name +
                           " bucket counts sum to " +
                           std::to_string(in_buckets) + " != count " +
                           std::to_string(named.hist.count()));
  }
  if (m.stats.requests != client_ok || client_ok == 0) return violations;

  const struct {
    const char* name;
    std::uint64_t expected;
  } counts[] = {
      {"acquire.fetch_us", m.stats.requests},
      {"acquire.queue_depth", m.stats.requests},
      {"acquire.queue_us", m.stats.requests},
      {"acquire.reserve_us", m.stats.requests},
      {"acquire.total_us", m.stats.requests},
      {"lease.hold_us", m.stats.leases_released},
  };
  for (const auto& [name, expected] : counts) {
    const obs::Histogram* hist = histogram_of(m, name);
    if (hist == nullptr) {
      violations.push_back(std::string("metrics: histogram ") + name +
                           " missing from the snapshot");
    } else if (hist->count() != expected) {
      violations.push_back(std::string("metrics: histogram ") + name +
                           " count " + std::to_string(hist->count()) +
                           " != expected " + std::to_string(expected));
    }
  }
  if (counter_of(m, "acquire.ok") != m.stats.requests)
    violations.push_back("metrics: counter acquire.ok != stats.requests");
  if (counter_of(m, "release.ok") != m.stats.leases_released)
    violations.push_back(
        "metrics: counter release.ok != stats.leases_released");
  if (counter_of(m, "acquire.queue_full") != m.stats.rejected_full)
    violations.push_back(
        "metrics: counter acquire.queue_full != stats.rejected_full");
  if (counter_of(m, "acquire.timed_out") != m.stats.timed_out)
    violations.push_back(
        "metrics: counter acquire.timed_out != stats.timed_out");
  if (counter_of(m, "fetch.transfers") !=
      m.stats.requests - m.stats.request_hits)
    violations.push_back(
        "metrics: counter fetch.transfers != stats misses "
        "(requests - request_hits)");

  // Batched-admission tie-outs: every grant is counted in exactly one
  // non-empty drain pass, so the batch-size histogram's *sum* equals the
  // grant count; the coalesce-wait histogram records exactly the grants
  // that blocked (the acquire.coalesced counter).
  const obs::Histogram* batch = histogram_of(m, "admit.batch_size");
  if (batch == nullptr) {
    violations.push_back("metrics: histogram admit.batch_size missing");
  } else if (batch->sum() != m.stats.requests) {
    violations.push_back("metrics: admit.batch_size sum " +
                         std::to_string(batch->sum()) +
                         " != stats.requests " +
                         std::to_string(m.stats.requests));
  }
  const obs::Histogram* coalesce = histogram_of(m, "acquire.coalesce_us");
  if (coalesce == nullptr) {
    violations.push_back("metrics: histogram acquire.coalesce_us missing");
  } else if (coalesce->count() != counter_of(m, "acquire.coalesced")) {
    violations.push_back(
        "metrics: acquire.coalesce_us count != acquire.coalesced counter");
  }

  const obs::Histogram* total = histogram_of(m, "acquire.total_us");
  if (total != nullptr && total->count() == client_us.size()) {
    for (double q : {0.50, 0.95, 0.99}) {
      const double client_q = quantile(client_us, q);
      const obs::QuantileEstimate server_q = total->quantile_bounds(q);
      if (static_cast<double>(server_q.lower) > client_q) {
        std::ostringstream oss;
        oss << "metrics: server p" << static_cast<int>(q * 100)
            << " lower bound " << server_q.lower
            << "us exceeds client-side quantile " << client_q << "us";
        violations.push_back(oss.str());
      }
    }
  }
  return violations;
}

/// Renders the metrics histograms.
void print_histograms(const service::MetricsSnapshot& m, bool as_json) {
  TextTable table({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
  for (const auto& named : m.histograms) {
    const auto& h = named.hist;
    table.add_row({named.name, std::to_string(h.count()),
                   format_double(h.mean()), format_double(h.quantile(0.50)),
                   format_double(h.quantile(0.95)),
                   format_double(h.quantile(0.99)), std::to_string(h.max())});
  }
  if (as_json) {
    table.print_json(std::cout);
  } else {
    table.print(std::cout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Short aliases for the two flags everyone types.
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-c") {
      arg = "--connections";
    } else if (arg == "-n") {
      arg = "--requests";
    }
    args.push_back(std::move(arg));
  }

  CliParser cli("fbcload", "Concurrent load generator for fbcd");
  tools::add_service_options(cli);
  tools::add_scenario_options(cli);
  cli.add_option("port", "fbcd port (ignored with --inline)", "7401");
  cli.add_option("connections", "concurrent client connections (-c)", "8");
  cli.add_option("requests", "total acquire requests (-n)", "2000");
  cli.add_option("hold-ms", "lease hold time per request", "0");
  cli.add_flag("inline", "start fbcd in-process on an ephemeral port");
  cli.add_flag("cluster",
               "with --inline: serve from a sharded ClusterRouter (see "
               "--shards/--placement) instead of a single server");
  tools::add_cluster_options(cli);
  cli.add_flag("json", "emit the report as JSON");
  cli.add_flag("hist", "also print the server-side metrics histograms");

  try {
    cli.parse(args);
    const service::ServiceConfig config = tools::service_config_from_cli(cli);
    const Workload workload =
        tools::build_scenario_workload(cli, config.cache_bytes);
    const std::size_t connections = cli.get_u64("connections");
    const std::size_t total_requests = cli.get_u64("requests");
    const std::uint64_t hold_ms = cli.get_u64("hold-ms");
    if (connections == 0) throw std::invalid_argument("need --connections>0");

    // Self-hosted daemon for loopback benchmarking / CI smoke.
    std::unique_ptr<MassStorageSystem> mss;
    std::unique_ptr<service::BundleServer> server;
    cluster::ClusterStack cluster_stack;
    std::unique_ptr<service::BundleDaemon> daemon;
    std::uint16_t port = static_cast<std::uint16_t>(cli.get_u64("port"));
    if (cli.get_flag("inline")) {
      mss = tools::make_tiered_mss(cli, workload);
      if (cli.get_flag("cluster")) {
        cluster_stack = cluster::make_local_cluster(
            tools::cluster_config_from_cli(cli), config, *mss);
        daemon = std::make_unique<service::BundleDaemon>(
            *cluster_stack.router, /*port=*/0);
      } else {
        server = std::make_unique<service::BundleServer>(config, *mss);
        daemon = std::make_unique<service::BundleDaemon>(*server, /*port=*/0);
      }
      port = daemon->port();
    }

    std::vector<WorkerResult> results(connections);
    std::vector<std::thread> threads;
    threads.reserve(connections);
    const auto wall_start = Clock::now();
    for (std::size_t w = 0; w < connections; ++w) {
      threads.emplace_back(run_worker, port, std::cref(workload), w,
                           connections, total_requests, hold_ms,
                           config.timeout_ms, &results[w]);
    }
    for (std::thread& t : threads) t.join();
    const std::chrono::duration<double> wall = Clock::now() - wall_start;

    WorkerResult total;
    for (const WorkerResult& r : results) {
      total.ok += r.ok;
      total.hits += r.hits;
      total.failed += r.failed;
      total.queue_retries += r.queue_retries;
      total.transfer_retries += r.transfer_retries;
      total.latencies_ms.insert(total.latencies_ms.end(),
                                r.latencies_ms.begin(),
                                r.latencies_ms.end());
      total.latencies_us.insert(total.latencies_us.end(),
                                r.latencies_us.begin(),
                                r.latencies_us.end());
    }

    // Final metrics snapshot (exercises the MsgType::Metrics round-trip)
    // + invariant checks over a fresh connection.
    service::BundleClient probe(port);
    const service::MetricsSnapshot metrics = probe.metrics();
    const service::ServiceStats& stats = metrics.stats;
    probe.disconnect();
    std::vector<std::string> violations = check_stats(stats);
    {
      const std::vector<std::string> more =
          check_metrics(metrics, total.latencies_us, total.ok);
      violations.insert(violations.end(), more.begin(), more.end());
    }
    if (server) {
      // Inline mode can additionally run the full server-side audit.
      const std::vector<std::string> audit = server->audit();
      violations.insert(violations.end(), audit.begin(), audit.end());
    }
    if (cluster_stack.router) {
      // Same, per shard; plus no scatter lease may outlive its job.
      for (std::size_t i = 0; i < cluster_stack.servers.size(); ++i)
        for (const std::string& v : cluster_stack.servers[i]->audit())
          violations.push_back("shard " + std::to_string(i) + ": " + v);
      if (cluster_stack.router->scatter_leases() != 0)
        violations.push_back(
            "cluster: " +
            std::to_string(cluster_stack.router->scatter_leases()) +
            " scatter leases outstanding after all clients finished");
    }

    const double wall_s = std::max(wall.count(), 1e-9);
    RunningStats lat;
    for (double ms : total.latencies_ms) lat.add(ms);
    // Server-side span percentiles (point estimates, converted to ms) next
    // to the client-observed ones: the gap between the columns is the
    // client-side overhead (socket round-trips plus release).
    const obs::Histogram* srv = histogram_of(metrics, "acquire.total_us");
    const auto srv_ms = [&](double q) {
      if (srv == nullptr || srv->empty()) return std::string("nan");
      return format_double(srv->quantile(q) / 1000.0);
    };
    TextTable table(
        {"scenario", "policy", "connections", "requests", "ok", "failed",
         "request_hit_pct", "queue_retries", "transfer_retries", "evictions",
         "throughput_rps", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
         "srv_p50_ms", "srv_p95_ms", "srv_p99_ms"});
    table.add_row(
        {cli.get_string("scenario"), config.policy,
         std::to_string(connections), std::to_string(total_requests),
         std::to_string(total.ok), std::to_string(total.failed),
         format_double(total.ok == 0 ? 0.0
                                     : 100.0 * static_cast<double>(total.hits) /
                                           static_cast<double>(total.ok)),
         std::to_string(total.queue_retries),
         std::to_string(total.transfer_retries),
         std::to_string(stats.evictions),
         format_double(static_cast<double>(total.ok) / wall_s),
         format_double(lat.mean()),
         format_double(quantile(total.latencies_ms, 0.50)),
         format_double(quantile(total.latencies_ms, 0.95)),
         format_double(quantile(total.latencies_ms, 0.99)),
         srv_ms(0.50), srv_ms(0.95), srv_ms(0.99)});
    if (cli.get_flag("json")) {
      table.print_json(std::cout);
    } else {
      table.print(std::cout);
    }
    if (cli.get_flag("hist")) {
      std::cout << "\n";
      print_histograms(metrics, cli.get_flag("json"));
    }

    if (daemon) daemon->stop();
    for (const std::string& v : violations)
      std::cerr << "fbcload: INVARIANT VIOLATION: " << v << "\n";
    if (total.failed > 0) {
      std::cerr << "fbcload: " << total.failed << " failed requests\n";
      return 1;
    }
    return violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "fbcload: error: " << e.what() << "\n";
    return 1;
  }
}
