// perfbench_loadgen: the repository benchmark's load generator.
//
//   perfbench_loadgen --workload bitmap-cpu --seed 1 --seconds 25 --trace 0 \
//       [--fbcgrid PATH] [--out-dir DIR]
//
// One process runs one named workload as a closed loop (each client sends
// its next job only after the previous one was released), on one CPU
// together with any fleet it spawns, and prints every metric by name and
// unit, ending with one JSON line. The layers are timed
// from outside, through their public entry points only: the workload
// generators, BundleServer / BundleClient acquire and release, the wire
// codec, Placement::plan and Simulator::run. perfbench/README.md documents
// the workloads, the metric definitions and which layer should move which
// end-to-end number.
//
// A run has three parts:
//   set-up    generate the workload, build the server (or spawn the fbcgrid
//             fleet and connect to it) and run the fixed warm-up prefix of
//             the job stream until the cache has had to evict. It is
//             repeated kSetupRepeats times; setup_s is the median of the
//             calm ones (little host steal) and the last stack serves the
//             timed phases.
//   untraced  --seconds of closed-loop load; the end-to-end metrics.
//   traced    (--trace 1 only) another --seconds with spans recorded
//             around every call into the program, then the serial
//             reference replays; the per-layer metrics, and the tracing
//             overhead against the untraced phase. Spans are kept in
//             memory and written to .bench_out/ at the end.
//
// Every run ends with the correctness gate (server audits, lease and
// tally tie-outs, codec round-trips, fbcgrid's own exit status). A failed
// gate prints the violations and a result with "correct": false and no
// metrics, and exits 1.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/simulator.hpp"
#include "cluster/config.hpp"
#include "cluster/placement.hpp"
#include "cluster/router.hpp"
#include "cluster/shard.hpp"
#include "core/registry.hpp"
#include "grid/mss.hpp"
#include "obs/histogram.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/distributions.hpp"
#include "workload/scenarios.hpp"

using namespace fbc;

namespace {

using Clock = std::chrono::steady_clock;
using service::AcquireResult;
using service::AcquireStatus;
using service::LeaseId;
using service::MetricsSnapshot;
using service::ServiceStats;

/// Set-ups per run; setup_s is their median (a single set-up of a few
/// tenths of a second is too noisy to gate on its own).
constexpr int kSetupRepeats = 9;

/// A window or set-up is calm when the hypervisor took at most this share
/// of the machine's CPU time during it (README.md, "Host steal").
constexpr double kCalmStealPct = 3.0;

/// Timed figures are medians over the calm windows (set-ups) when at least
/// this many are calm, else over all of them.
constexpr std::size_t kMinCalm = 3;

/// Server-side failure-injection / policy seed, fixed so that only the
/// workload seed varies between runs.
constexpr std::uint64_t kServiceSeed = 1;

/// The fbcd/fbcgrid default tier mix: half the files on tape, a third on
/// the remote MSS, the rest on the disk pool.
constexpr double kTapeFrac = 0.5;
constexpr double kRemoteFrac = 0.33;

enum class Kind { BitmapCpu, HenpStaged, HenpFleet };

/// One named workload. The rationale for each value is in README.md.
struct Spec {
  Kind kind;
  const char* name;
  std::size_t clients;
  Bytes cache_bytes;       ///< per server (per shard for the fleet)
  double time_scale;       ///< wall seconds slept per staged second
  std::size_t stream_jobs; ///< generated stream; the load wraps around it
  std::size_t warmup_jobs; ///< fixed warm-up prefix
  std::uint32_t shards;    ///< fleet only
  double window_s;         ///< timed-phase window; >= 1,000 jobs each
};

const Spec kSpecs[] = {
    {Kind::BitmapCpu, "bitmap-cpu", 1, 1 * GiB, 0.0, 50000, 20000, 0, 1.0},
    {Kind::HenpStaged, "henp-staged", 4, 1 * GiB, 1e-3, 50000, 500, 0, 5.0},
    {Kind::HenpFleet, "henp-fleet", 4, 384 * MiB, 1e-3, 50000, 200, 4, 5.0},
};

std::int64_t ns_since(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median_of(std::vector<double> v) {
  return v.empty() ? 0.0 : quantile(v, 0.5);
}

double pct(double part, double whole) {
  return whole <= 0.0 ? 0.0 : 100.0 * part / whole;
}

// -- workload ---------------------------------------------------------------

/// The workload's population -- catalog, request pool, popularity ranking
/// and tier placement -- comes from this fixed seed; --seed draws only the
/// job stream from it. Across population seeds the quality metrics swing
/// by tens of percent (README.md, "Seeds"), which would hide any change.
constexpr std::uint64_t kPopulationSeed = 42;

/// The scenario generator builds the catalog and pool; the stream is the
/// generator's Zipf draw over a fixed rank order, sampled with `seed`.
Workload generate(const Spec& spec, std::uint64_t seed) {
  Workload w;
  double alpha = 0.0;
  if (spec.kind == Kind::BitmapCpu) {
    BitmapConfig config;
    config.seed = kPopulationSeed;
    config.cache_bytes = spec.cache_bytes;
    config.num_jobs = 0;
    alpha = config.zipf_alpha;
    w = generate_bitmap_workload(config);
  } else {
    HenpConfig config;
    config.seed = kPopulationSeed;
    config.cache_bytes = spec.cache_bytes;
    config.num_jobs = 0;
    alpha = config.zipf_alpha;
    w = generate_henp_workload(config);
  }
  std::vector<std::size_t> rank_to_pool(w.pool.size());
  for (std::size_t i = 0; i < rank_to_pool.size(); ++i) rank_to_pool[i] = i;
  Rng population(kPopulationSeed);
  population.shuffle(std::span<std::size_t>(rank_to_pool));
  const ZipfSampler zipf(w.pool.size(), alpha);
  Rng rng(seed);
  w.job_index.reserve(spec.stream_jobs);
  w.jobs.reserve(spec.stream_jobs);
  for (std::size_t j = 0; j < spec.stream_jobs; ++j) {
    w.job_index.push_back(rank_to_pool[zipf.sample(rng)]);
    w.jobs.push_back(w.pool[w.job_index.back()]);
  }
  return w;
}

/// The default tiers with the deterministic placement fbcd applies for
/// --tier-mix (so the in-process servers stage exactly like the fleet's).
MassStorageSystem tiered_mss(const FileCatalog& catalog) {
  MassStorageSystem mss(default_tiers(), catalog);
  Rng rng(kPopulationSeed + 17);
  for (FileId id = 0; id < catalog.count(); ++id) {
    const double roll = rng.uniform_double();
    if (roll < kTapeFrac) {
      mss.place_file(id, 1);
    } else if (roll < kTapeFrac + kRemoteFrac) {
      mss.place_file(id, 2);
    }
  }
  return mss;
}

service::ServiceConfig service_config(const Spec& spec, double time_scale) {
  service::ServiceConfig config;
  config.cache_bytes = spec.cache_bytes;
  config.time_scale = time_scale;
  config.seed = kServiceSeed;
  return config;
}

cluster::ClusterConfig cluster_config(const Spec& spec) {
  cluster::ClusterConfig config;
  config.shards = spec.shards;
  config.placement = cluster::PlacementMode::BundleAffinity;
  return config;
}

// -- process accounting -----------------------------------------------------

/// user+sys CPU seconds of one process (/proc/<pid>/stat).
double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t paren = text.rfind(')');
  if (paren == std::string::npos)
    throw std::runtime_error("cannot read /proc/" + std::to_string(pid));
  std::istringstream fields(text.substr(paren + 2));
  std::string field;
  double ticks = 0.0;
  for (int i = 3; i <= 15 && fields >> field; ++i)
    if (i == 14 || i == 15) ticks += std::stod(field);
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double self_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// The machine's CPU ticks so far: all of them, and those the hypervisor
/// gave to other guests while this one wanted to run (steal).
struct HostTicks {
  double total = 0.0;
  double steal = 0.0;
};

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") throw std::runtime_error("cannot read /proc/stat");
  HostTicks t;
  double ticks = 0.0;
  // user nice system idle iowait irq softirq steal; guest time is in user.
  for (int i = 0; i < 8 && in >> ticks; ++i) {
    t.total += ticks;
    if (i == 7) t.steal = ticks;
  }
  return t;
}

/// Share of the machine's CPU time stolen between two readings, %.
double steal_pct(const HostTicks& a, const HostTicks& b) {
  return b.total > a.total ? 100.0 * (b.steal - a.steal) / (b.total - a.total)
                           : 0.0;
}

/// Median of `values` over the entries whose `steal` is calm, or over all
/// of them when fewer than kMinCalm are calm.
double calm_median(const std::vector<double>& values,
                   const std::vector<double>& steal) {
  std::vector<double> calm;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (steal.at(i) <= kCalmStealPct) calm.push_back(values[i]);
  return median_of(calm.size() >= kMinCalm ? calm : values);
}

/// Confines this process, every thread it starts from now on and the
/// fbcgrid fleet it spawns (children inherit the mask) to one CPU, the
/// highest it may use (README.md, "One CPU").
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpu = c;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof one, &one) != 0)
    throw std::runtime_error("cannot pin to CPU " + std::to_string(cpu));
}

/// Peak resident set (VmHWM) of one process, MiB.
double peak_rss_mib(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM for pid " + pid);
}

// -- the fbcgrid fleet --------------------------------------------------------

/// A spawned `fbcgrid --spawn-remote` with its fbcd shards. The grid runs
/// in its own process group and dies with this process (PDEATHSIG), so no
/// daemon outlives a crashed benchmark.
class Fleet {
 public:
  Fleet(const std::string& fbcgrid, const Spec& spec) {
    const std::vector<std::string> args = {
        fbcgrid,
        "--spawn-remote",
        "--port=0",
        "--shards=" + std::to_string(spec.shards),
        "--placement=affinity",
        "--scenario=henp",
        "--wseed=" + std::to_string(kPopulationSeed),
        // The daemons only serve the catalog (independent of the stream
        // length); the job stream lives in this load generator.
        "--jobs=1",
        "--cache=" + std::to_string(spec.cache_bytes),
        "--time-scale=" + std::to_string(spec.time_scale),
        "--seed=" + std::to_string(kServiceSeed),
    };
    int fds[2];
    if (pipe(fds) != 0) throw std::runtime_error("fleet: pipe failed");
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fleet: fork failed");
    if (pid_ == 0) {
      setpgid(0, 0);
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(127);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      std::vector<char*> argv;
      for (const std::string& a : args)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(argv[0], argv.data());
      _exit(127);
    }
    setpgid(pid_, pid_);
    close(fds[1]);
    out_fd_ = fds[0];
    read_startup();
  }

  ~Fleet() {
    if (pid_ > 0) {
      kill(-pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// SIGTERMs the grid (which stops and audits its shards) and returns its
  /// exit status description; "exit 0" means every shard audit passed.
  std::string stop() {
    kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(-pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return "killed after a 60s shutdown timeout";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (WIFEXITED(status))
      return "exit " + std::to_string(WEXITSTATUS(status));
    return "signal " + std::to_string(WTERMSIG(status));
  }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The grid and every shard daemon.
  [[nodiscard]] std::vector<pid_t> pids() const {
    std::vector<pid_t> all = {pid_};
    all.insert(all.end(), shard_pids_.begin(), shard_pids_.end());
    return all;
  }

 private:
  /// Reads fbcgrid's stdout up to its "listening on" line, collecting the
  /// "fbcgrid: shard i pid=P port=Q" lines before it.
  void read_startup() {
    std::string line;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    for (;;) {
      pollfd pfd{out_fd_, POLLIN, 0};
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0 ||
          poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
        throw std::runtime_error("fleet: fbcgrid did not start in 120s");
      char byte = 0;
      if (read(out_fd_, &byte, 1) != 1)
        throw std::runtime_error("fleet: fbcgrid exited during start-up");
      if (byte != '\n') {
        line.push_back(byte);
        continue;
      }
      const std::size_t pid_at = line.find(" pid=");
      if (line.rfind("fbcgrid: shard ", 0) == 0 && pid_at != std::string::npos)
        shard_pids_.push_back(
            static_cast<pid_t>(std::stol(line.substr(pid_at + 5))));
      const std::string needle = "listening on 127.0.0.1:";
      const std::size_t at = line.find(needle);
      if (at != std::string::npos) {
        port_ = static_cast<std::uint16_t>(
            std::stoul(line.substr(at + needle.size())));
        return;
      }
      line.clear();
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<pid_t> shard_pids_;
};

// -- tracing ----------------------------------------------------------------

enum SpanName : std::uint8_t {
  kSpanJob,
  kSpanServerAcquire,
  kSpanServerRelease,
  kSpanClientAcquire,
  kSpanClientReleaseAcquire,
  kSpanClientRelease,
  kSpanNames,
};

const char* const kSpanNameText[kSpanNames] = {
    "job",
    "server.acquire",
    "server.release",
    "client.acquire",
    "client.release_acquire",
    "client.release",
};

/// One span. Ids are (client thread << 32 | index in that thread's log);
/// parent 0 means a root span. Times are ns since the phase start.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t job = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanName name = kSpanJob;
};

/// Per-client span log; only the owning thread appends.
class SpanLog {
 public:
  SpanLog(bool enabled, std::uint32_t thread, Clock::time_point origin)
      : enabled_(enabled), thread_(thread), origin_(origin) {}

  /// Records a span and returns its id (0 when tracing is off).
  std::uint64_t add(SpanName name, std::uint64_t parent, std::uint64_t job,
                    Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return 0;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(thread_ + 1) << 32) | spans_.size();
    spans_.push_back(
        {id, parent, job, ns_since(origin_, start), ns_since(origin_, end),
         name});
    return id;
  }

  /// Id the next add() will return (lets a parent be named before its
  /// children finish).
  [[nodiscard]] std::uint64_t next_id() const {
    return enabled_ ? ((static_cast<std::uint64_t>(thread_ + 1) << 32) |
                       spans_.size())
                    : 0;
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] std::vector<Span>& spans() noexcept { return spans_; }

 private:
  bool enabled_;
  std::uint32_t thread_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per span name: count, mean duration and mean self time (duration minus
/// the part of it covered by child spans; children of one span never
/// overlap, since each client thread calls one thing at a time).
struct SpanSummary {
  std::uint64_t count = 0;
  double mean_us = 0.0;
  double self_us = 0.0;
};

std::vector<SpanSummary> summarize_spans(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const Span& s : spans)
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  std::vector<SpanSummary> out(kSpanNames);
  for (const Span& s : spans) {
    SpanSummary& sum = out[s.name];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const auto it = child_ns.find(s.id);
    const std::int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
    ++sum.count;
    sum.mean_us += static_cast<double>(dur) / 1e3;
    sum.self_us += static_cast<double>(self) / 1e3;
  }
  for (SpanSummary& sum : out) {
    if (sum.count == 0) continue;
    sum.mean_us /= static_cast<double>(sum.count);
    sum.self_us /= static_cast<double>(sum.count);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "name\tspan\tparent\tjob\tstart_ns\tend_ns\n";
  for (const Span& s : spans)
    out << kSpanNameText[s.name] << '\t' << s.id << '\t' << s.parent << '\t'
        << s.job << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
}

// -- latency samples --------------------------------------------------------

/// Log-linear latency histogram over nanoseconds: 64 sub-buckets per power
/// of two, so a quantile is exact to 1/64 of its value. Its memory is
/// fixed, which keeps the load generator's own footprint (counted in
/// peak_rss_mib) independent of how many jobs a run completes.
class LatencyHist {
 public:
  void record(Clock::duration d) {
    const auto ns = static_cast<std::uint64_t>(std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(d).count()));
    ++buckets_[index(ns)];
    ++count_;
    sum_ns_ += ns;
  }

  void merge(const LatencyHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    count_ += o.count_;
    sum_ns_ += o.sum_ns_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  [[nodiscard]] double mean_us() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) / 1e3 /
                             static_cast<double>(count_);
  }

  /// q-quantile in microseconds (project rank convention, interpolated
  /// inside the bucket); 0 when empty.
  [[nodiscard]] double quantile_us(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = quantile_rank(count_, q);
    double seen = 0.0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = static_cast<double>(buckets_[i]);
      if (c == 0.0) continue;
      if (rank < seen + c) {
        const double frac = std::min(1.0, (rank - seen + 0.5) / c);
        return (static_cast<double>(lower(i)) +
                frac * static_cast<double>(width(i))) / 1e3;
      }
      seen += c;
    }
    return 0.0;
  }

 private:
  static constexpr std::size_t kSub = 64;
  static constexpr std::size_t kBuckets = kSub + 58 * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const auto e = static_cast<std::size_t>(63 - std::countl_zero(v));
    return kSub + (e - 6) * kSub + static_cast<std::size_t>((v >> (e - 6)) & (kSub - 1));
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const std::size_t e = (i - kSub) / kSub + 6;
    return (kSub + (i - kSub) % kSub) << (e - 6);
  }
  static std::uint64_t width(std::size_t i) {
    return i < kSub ? 1 : std::uint64_t{1} << ((i - kSub) / kSub);
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
};

// -- serving stacks -----------------------------------------------------------

/// One window of a timed phase: jobs whose release was acknowledged in
/// it, and acquires granted in it.
struct WindowTally {
  std::uint64_t completed = 0;
  LatencyHist acquire;
};

/// Client-side tallies of one phase, summed over clients.
struct Tally {
  std::uint64_t attempted = 0;  ///< acquires attempted (one per job)
  std::uint64_t granted = 0;
  std::uint64_t failed = 0;     ///< acquires refused after the retry budget
  std::uint64_t completed = 0;  ///< granted and release acknowledged
  std::uint64_t hits = 0;       ///< grants whose bundle was resident
  std::uint64_t release_failed = 0;
  std::uint64_t replay_hits = 0;  ///< hits at positions below replay_end
  LatencyHist acquire;         ///< send -> grant, per granted job
  LatencyHist rpc;             ///< every client call (fleet)
  LatencyHist server_acquire;  ///< BundleServer::acquire calls (traced)
  LatencyHist server_release;  ///< BundleServer::release calls (traced)
  std::vector<Span> spans;
  std::vector<WindowTally> windows;  ///< timed phases only
  std::vector<double> cpu_at;  ///< serving CPU seconds at window bounds
  std::vector<HostTicks> host_at;  ///< machine ticks at window bounds

  WindowTally& window(std::size_t k) {
    if (windows.size() <= k) windows.resize(k + 1);
    return windows[k];
  }

  void add(Tally&& o) {
    attempted += o.attempted;
    granted += o.granted;
    failed += o.failed;
    completed += o.completed;
    hits += o.hits;
    release_failed += o.release_failed;
    replay_hits += o.replay_hits;
    acquire.merge(o.acquire);
    rpc.merge(o.rpc);
    server_acquire.merge(o.server_acquire);
    server_release.merge(o.server_release);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    for (std::size_t k = 0; k < o.windows.size(); ++k) {
      window(k).completed += o.windows[k].completed;
      windows[k].acquire.merge(o.windows[k].acquire);
    }
  }
};

/// Shared job dispatcher of one phase: clients take stream positions in
/// order until the deadline passes or `end` is reached.
struct Dispatch {
  std::atomic<std::uint64_t> next{0};
  std::uint64_t end = UINT64_MAX;
  Clock::time_point deadline = Clock::time_point::max();
  /// Hits at stream positions below this are tallied separately (the
  /// traced jobs the serial references replay).
  std::uint64_t replay_end = 0;
  /// Timed phases are cut into `windows` equal windows from `start`.
  Clock::time_point start{};
  Clock::duration window{};
  std::size_t windows = 0;

  [[nodiscard]] std::optional<std::size_t> window_of(Clock::time_point t) const {
    if (windows == 0 || t < start) return std::nullopt;
    const auto k = static_cast<std::size_t>((t - start) / window);
    if (k >= windows) return std::nullopt;
    return k;
  }

  std::optional<std::uint64_t> take() {
    if (Clock::now() >= deadline) return std::nullopt;
    const std::uint64_t i = next.fetch_add(1);
    if (i >= end) return std::nullopt;
    return i;
  }
};

/// Retries QueueFull refusals on the server's retry-after hint for at most
/// `budget_ms` of cumulative sleep; any other refusal is final.
template <typename Call>
AcquireResult with_retry(AcquireResult r, std::uint64_t budget_ms,
                         Call&& again) {
  while (r.status == AcquireStatus::QueueFull && budget_ms > 0) {
    const std::uint64_t wait =
        std::min<std::uint64_t>(budget_ms,
                                std::max<std::uint32_t>(1, r.retry_after_ms));
    budget_ms -= wait;
    std::this_thread::sleep_for(std::chrono::milliseconds(wait));
    r = again();
  }
  return r;
}

/// What every workload's serving side offers the phases.
class Stack {
 public:
  virtual ~Stack() = default;
  /// Runs one client's share of a phase.
  virtual void run_client(std::size_t client, Dispatch& dispatch,
                          SpanLog& log, Tally* out) = 0;
  [[nodiscard]] virtual MetricsSnapshot metrics() = 0;
  /// Process ids whose CPU and peak RSS count as serving cost (this
  /// process is always counted separately).
  [[nodiscard]] virtual std::vector<pid_t> serving_pids() const { return {}; }
  /// Stops the stack and returns correctness violations.
  virtual std::vector<std::string> finish() = 0;
};

/// One in-process BundleServer over a tiered MSS.
class LocalStack final : public Stack {
 public:
  LocalStack(const Spec& spec, const Workload& workload)
      : workload_(workload),
        mss_(tiered_mss(workload.catalog)),
        server_(service_config(spec, spec.time_scale), mss_),
        timeout_ms_(server_.config().timeout_ms) {}

  void run_client(std::size_t, Dispatch& dispatch, SpanLog& log,
                  Tally* out) override {
    const std::size_t n = workload_.jobs.size();
    while (const auto i = dispatch.take()) {
      const Request& job = workload_.jobs[*i % n];
      const std::uint64_t job_span = log.next_id();
      const Clock::time_point t0 = Clock::now();
      AcquireResult r = with_retry(server_.acquire(job), timeout_ms_,
                                   [&] { return server_.acquire(job); });
      const Clock::time_point t1 = Clock::now();
      ++out->attempted;
      if (r.status != AcquireStatus::Ok) {
        ++out->failed;
        continue;
      }
      ++out->granted;
      if (r.request_hit) ++out->hits;
      if (r.request_hit && *i < dispatch.replay_end) ++out->replay_hits;
      out->acquire.record(t1 - t0);
      if (const auto k = dispatch.window_of(t1))
        out->window(*k).acquire.record(t1 - t0);
      const Clock::time_point t2 = Clock::now();
      if (!server_.release(r.lease)) ++out->release_failed;
      const Clock::time_point t3 = Clock::now();
      ++out->completed;
      if (const auto k = dispatch.window_of(t3)) ++out->window(*k).completed;
      if (log.enabled()) {
        log.add(kSpanJob, 0, *i, t0, t3);
        log.add(kSpanServerAcquire, job_span, *i, t0, t1);
        log.add(kSpanServerRelease, job_span, *i, t2, t3);
        out->server_acquire.record(t1 - t0);
        out->server_release.record(t3 - t2);
      }
    }
  }

  MetricsSnapshot metrics() override { return server_.metrics(); }

  std::vector<std::string> finish() override {
    std::vector<std::string> v = server_.audit();
    for (std::string& s : v) s = "server audit: " + s;
    return v;
  }

 private:
  const Workload& workload_;
  MassStorageSystem mss_;
  service::BundleServer server_;
  std::uint64_t timeout_ms_;
};

/// fbcgrid --spawn-remote fleet plus one BundleClient per load client.
class FleetStack final : public Stack {
 public:
  FleetStack(const Spec& spec, const Workload& workload,
             const std::string& fbcgrid)
      : workload_(workload), fleet_(fbcgrid, spec) {
    for (std::size_t c = 0; c < spec.clients; ++c)
      clients_.push_back(std::make_unique<service::BundleClient>(fleet_.port()));
    probe_ = std::make_unique<service::BundleClient>(fleet_.port());
  }

  void run_client(std::size_t client, Dispatch& dispatch, SpanLog& log,
                  Tally* out) override {
    service::BundleClient& c = *clients_[client];
    const std::size_t n = workload_.jobs.size();
    // The release of job k rides in front of job k+1's acquire
    // (release_acquire): one round trip per job, as fbcload does.
    LeaseId held = 0;
    std::uint64_t held_job = 0;
    while (const auto i = dispatch.take()) {
      const Request& job = workload_.jobs[*i % n];
      const std::uint64_t job_span = log.next_id();
      const Clock::time_point t0 = Clock::now();
      bool released = true;
      const bool pipelined = held != 0;
      AcquireResult r = held != 0 ? c.release_acquire(held, job.files, &released)
                                  : c.acquire(job.files);
      const Clock::time_point t1 = Clock::now();
      if (held != 0) {
        if (!released) ++out->release_failed;
        ++out->completed;
        if (const auto k = dispatch.window_of(t1)) ++out->window(*k).completed;
        held = 0;
      }
      out->rpc.record(t1 - t0);
      r = with_retry(r, timeout_ms_, [&] { return c.acquire(job.files); });
      const Clock::time_point t2 = Clock::now();
      ++out->attempted;
      if (log.enabled()) {
        log.add(kSpanJob, 0, *i, t0, t2);
        log.add(pipelined ? kSpanClientReleaseAcquire : kSpanClientAcquire,
                job_span, *i, t0, t1);
      }
      if (r.status != AcquireStatus::Ok) {
        ++out->failed;
        continue;
      }
      ++out->granted;
      if (r.request_hit) ++out->hits;
      if (r.request_hit && *i < dispatch.replay_end) ++out->replay_hits;
      out->acquire.record(t2 - t0);
      if (const auto k = dispatch.window_of(t2))
        out->window(*k).acquire.record(t2 - t0);
      held = r.lease;
      held_job = *i;
    }
    if (held != 0) {
      const Clock::time_point t0 = Clock::now();
      if (!c.release(held)) ++out->release_failed;
      const Clock::time_point t1 = Clock::now();
      out->rpc.record(t1 - t0);
      log.add(kSpanClientRelease, 0, held_job, t0, t1);
      ++out->completed;
    }
  }

  MetricsSnapshot metrics() override { return probe_->metrics(); }

  std::vector<pid_t> serving_pids() const override { return fleet_.pids(); }

  std::vector<std::string> finish() override {
    clients_.clear();
    probe_.reset();
    const std::string exit = fleet_.stop();
    if (exit == "exit 0") return {};
    return {"fbcgrid (shard audits) ended with " + exit};
  }

 private:
  const Workload& workload_;
  Fleet fleet_;
  std::vector<std::unique_ptr<service::BundleClient>> clients_;
  std::unique_ptr<service::BundleClient> probe_;
  std::uint64_t timeout_ms_ = service::ServiceConfig{}.timeout_ms;
};

/// Runs `spec.clients` threads against `stack` until `dispatch` runs dry.
/// With `seconds` > 0 the phase is timed: it ends after `seconds`, cut into
/// windows of about `spec.window_s`, and `cpu` is sampled at every window
/// bound.
Tally run_phase(Stack& stack, const Spec& spec, Dispatch& dispatch,
                bool trace, double seconds = 0.0,
                const std::function<double()>& cpu = {}) {
  const std::size_t clients = spec.clients;
  const Clock::time_point origin = Clock::now();
  std::vector<double> cpu_at;
  std::vector<HostTicks> host_at;
  std::string sampler_error;
  std::thread sampler;
  if (seconds > 0.0) {
    dispatch.windows = static_cast<std::size_t>(
        std::max(1.0, std::floor(seconds / spec.window_s)));
    dispatch.window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds / static_cast<double>(dispatch.windows)));
    dispatch.start = origin;
    dispatch.deadline = origin + dispatch.window * dispatch.windows;
    cpu_at.push_back(cpu());
    host_at.push_back(host_ticks());
    sampler = std::thread([&] {
      try {
        for (std::size_t k = 1; k <= dispatch.windows; ++k) {
          std::this_thread::sleep_until(origin + dispatch.window * k);
          cpu_at.push_back(cpu());
          host_at.push_back(host_ticks());
        }
      } catch (const std::exception& e) {
        sampler_error = e.what();
      }
    });
  }
  std::vector<Tally> tallies(clients);
  std::vector<std::thread> threads;
  std::vector<std::string> errors(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      try {
        SpanLog log(trace, static_cast<std::uint32_t>(c), origin);
        stack.run_client(c, dispatch, log, &tallies[c]);
        tallies[c].spans = std::move(log.spans());
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (sampler.joinable()) sampler.join();
  for (const std::string& e : errors)
    if (!e.empty()) throw std::runtime_error("client: " + e);
  if (!sampler_error.empty())
    throw std::runtime_error("cpu sampler: " + sampler_error);
  Tally total;
  for (Tally& t : tallies) total.add(std::move(t));
  total.window(dispatch.windows == 0 ? 0 : dispatch.windows - 1);
  if (dispatch.windows == 0) total.windows.clear();
  total.cpu_at = std::move(cpu_at);
  total.host_at = std::move(host_at);
  return total;
}

/// Per-window values of a timed phase; each end-to-end rate, latency and
/// CPU figure is the median over the calm windows, so neither a short
/// stall of the shared machine nor a spell of host steal sets it.
struct Windowed {
  std::vector<double> rate, p50, p99, cpu;  ///< per window
  std::vector<double> steal;  ///< host steal % per window
  std::uint64_t min_samples;
  double jobs_per_s, p50_ms, p99_ms, cpu_ms_per_job;
};

Windowed windowed(const Tally& t, const Dispatch& d) {
  const double window_s = std::chrono::duration<double>(d.window).count();
  Windowed v{};
  v.min_samples = t.windows.empty() ? 0 : UINT64_MAX;
  for (std::size_t k = 0; k < t.windows.size(); ++k) {
    const WindowTally& w = t.windows[k];
    v.rate.push_back(static_cast<double>(w.completed) / window_s);
    v.p50.push_back(w.acquire.quantile_us(0.50) / 1e3);
    v.p99.push_back(w.acquire.quantile_us(0.99) / 1e3);
    v.cpu.push_back((t.cpu_at.at(k + 1) - t.cpu_at.at(k)) * 1e3 /
                    static_cast<double>(std::max<std::uint64_t>(1, w.completed)));
    v.steal.push_back(steal_pct(t.host_at.at(k), t.host_at.at(k + 1)));
    v.min_samples = std::min(v.min_samples, w.acquire.count());
  }
  v.jobs_per_s = calm_median(v.rate, v.steal);
  v.p50_ms = calm_median(v.p50, v.steal);
  v.p99_ms = calm_median(v.p99, v.steal);
  v.cpu_ms_per_job = calm_median(v.cpu, v.steal);
  return v;
}

// -- metrics helpers ---------------------------------------------------------

std::uint64_t counter(const MetricsSnapshot& m, const std::string& name) {
  for (const auto& [n, v] : m.counters)
    if (n == name) return v;
  return 0;
}

/// Observations recorded into histogram `name` between two snapshots.
obs::Histogram hist_delta(const MetricsSnapshot& before,
                          const MetricsSnapshot& after,
                          const std::string& name) {
  const auto find = [&](const MetricsSnapshot& m) {
    for (const auto& h : m.histograms)
      if (h.name == name) return h.hist.state();
    return obs::HistogramState{};
  };
  const obs::HistogramState a = find(before);
  obs::HistogramState d = find(after);
  std::size_t lo = obs::kHistogramBuckets;
  std::size_t hi = 0;
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    d.buckets[i] -= a.buckets[i];
    if (d.buckets[i] != 0) {
      lo = std::min(lo, i);
      hi = i;
    }
  }
  d.sum -= a.sum;
  if (lo == obs::kHistogramBuckets) return {};
  d.min = obs::Histogram::bucket_lower(lo);
  d.max = obs::Histogram::bucket_upper(hi);
  return obs::Histogram::from_state(d).value_or(obs::Histogram{});
}

double hist_q(const obs::Histogram& h, double q) {
  return h.empty() ? 0.0 : h.quantile(q);
}

/// Counter and byte deltas of one phase.
struct StatsDelta {
  std::uint64_t requests, rejected_full, timed_out, evictions,
      bytes_requested, bytes_missed;
};

StatsDelta stats_delta(const ServiceStats& a, const ServiceStats& b) {
  return {b.requests - a.requests,
          b.rejected_full - a.rejected_full,
          b.timed_out - a.timed_out,
          b.evictions - a.evictions,
          b.bytes_requested - a.bytes_requested,
          b.bytes_missed - a.bytes_missed};
}

// -- serial references (traced run) -----------------------------------------

/// What the serial references replay: the warm-up prefix [0, warm_end)
/// and then the first traced stream positions [from, to), at most
/// kReplayJobs of them. The untraced phase in between is skipped; both
/// bounds keep a traced run's length independent of machine speed.
struct Replay {
  std::uint64_t warm_end = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;

  [[nodiscard]] std::uint64_t size() const { return warm_end + to - from; }

  /// Stream position of replay step k.
  [[nodiscard]] std::uint64_t position(std::uint64_t k) const {
    return k < warm_end ? k : from + (k - warm_end);
  }
};

/// Traced jobs the serial references replay at most.
constexpr std::uint64_t kReplayJobs = 200000;

/// Jobs the serial simulation replays at most (memory and time bound).
constexpr std::uint64_t kSimJobs = 100000;

/// Serial Simulator::run over the first kSimJobs replay steps with the
/// servers' policy and cache; on the fleet each shard's slice runs on its
/// own simulator. Returns wall microseconds per job.
double sim_us_per_job(const Spec& spec, const Workload& w,
                      const Replay& replay) {
  std::vector<Request> jobs;
  for (std::uint64_t k = 0; k < std::min(replay.size(), kSimJobs); ++k)
    jobs.push_back(w.jobs[replay.position(k) % w.jobs.size()]);
  std::vector<std::vector<Request>> slices;
  if (spec.kind == Kind::HenpFleet) {
    const cluster::Placement placement(cluster_config(spec), w.catalog,
                                       spec.cache_bytes);
    slices.resize(spec.shards);
    for (const Request& job : jobs)
      for (const cluster::SubRequest& part : placement.plan(job).parts)
        slices[part.shard].push_back(part.request);
  } else {
    slices.push_back(jobs);
  }
  double total_s = 0.0;
  for (const std::vector<Request>& slice : slices) {
    PolicyContext context;
    context.catalog = &w.catalog;
    context.seed = kServiceSeed;
    context.select_engine = service::ServiceConfig{}.engine;
    PolicyPtr policy = make_policy(service::ServiceConfig{}.policy, context);
    SimulatorConfig config;
    config.cache_bytes = spec.cache_bytes;
    Simulator sim(config, w.catalog, *policy);
    const Clock::time_point t0 = Clock::now();
    const SimulationResult result = sim.run(slice);
    total_s += seconds_between(t0, Clock::now());
    if (result.metrics.jobs() != slice.size())
      throw std::runtime_error("serial simulation skipped jobs");
  }
  return total_s * 1e6 / static_cast<double>(std::max<std::size_t>(1, jobs.size()));
}

/// Replays through a fresh serving stack with one caller and no staging
/// sleep; returns the request-hit % over the traced positions. Audits the
/// fresh servers into `violations`.
double serial_hit_pct(const Spec& spec, const Workload& w,
                      const Replay& replay,
                      std::vector<std::string>* violations) {
  const MassStorageSystem mss = tiered_mss(w.catalog);
  const service::ServiceConfig config = service_config(spec, 0.0);
  std::vector<std::unique_ptr<service::BundleServer>> servers;
  std::unique_ptr<cluster::ClusterRouter> router;
  service::ServingEndpoint* endpoint = nullptr;
  if (spec.kind == Kind::HenpFleet) {
    std::vector<std::unique_ptr<cluster::Shard>> shards;
    for (std::uint32_t s = 0; s < spec.shards; ++s) {
      service::ServiceConfig shard = config;
      shard.shard_id = s;
      servers.push_back(std::make_unique<service::BundleServer>(shard, mss));
      shards.push_back(std::make_unique<cluster::LocalShard>(*servers.back()));
    }
    router = std::make_unique<cluster::ClusterRouter>(
        cluster_config(spec), w.catalog, spec.cache_bytes, std::move(shards));
    endpoint = router.get();
  } else {
    servers.push_back(std::make_unique<service::BundleServer>(config, mss));
    endpoint = servers.back().get();
  }
  std::uint64_t hits = 0;
  for (std::uint64_t k = 0; k < replay.size(); ++k) {
    const AcquireResult r =
        endpoint->acquire(w.jobs[replay.position(k) % w.jobs.size()]);
    if (r.status != AcquireStatus::Ok) {
      violations->push_back("serial replay: acquire refused: " +
                            std::string(to_string(r.status)));
      return 0.0;
    }
    if (k >= replay.warm_end && r.request_hit) ++hits;
    endpoint->release(r.lease);
  }
  for (const auto& server : servers)
    for (const std::string& v : server->audit())
      violations->push_back("serial replay audit: " + v);
  return pct(static_cast<double>(hits),
             static_cast<double>(replay.to - replay.from));
}

/// Encodes and decodes each job's acquire frame; returns ns per job and
/// reports any round-trip mismatch.
double codec_roundtrip_ns(const Workload& w, const Replay& replay,
                          std::vector<std::string>* violations) {
  std::vector<std::uint8_t> frame;
  std::uint64_t mismatches = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint64_t i = replay.from; i < replay.to; ++i) {
    const Request& job = w.jobs[i % w.jobs.size()];
    frame.clear();
    service::encode_frame(service::AcquireRequestMsg{i, job.files}, &frame);
    const std::span<const std::uint8_t> bytes(frame);
    const service::FrameHeader header =
        service::decode_header(bytes.first(service::kFrameHeaderBytes));
    const service::Message back = service::decode_payload(
        header.type, bytes.subspan(service::kFrameHeaderBytes));
    const auto* msg = std::get_if<service::AcquireRequestMsg>(&back);
    if (msg == nullptr || msg->cookie != i || msg->files != job.files)
      ++mismatches;
  }
  const double ns = seconds_between(t0, Clock::now()) * 1e9;
  if (mismatches != 0)
    violations->push_back("codec: " + std::to_string(mismatches) +
                          " acquire frames did not round-trip");
  return ns / static_cast<double>(std::max<std::uint64_t>(1, replay.to - replay.from));
}

// -- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
              << json_number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

// -- the run ----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fbcgrid;
  std::string out_dir = ".bench_out";
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--fbcgrid") {
      o.fbcgrid = value;
    } else if (flag == "--out-dir") {
      o.out_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

/// A built serving stack plus what its set-up cost.
struct Setup {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Stack> stack;
  Tally warmup;
  std::uint64_t next_job = 0;  ///< first stream position after warm-up
  double setup_s = 0.0;
  double setup_steal_pct = 0.0;  ///< host steal during the set-up
  double gen_ms = 0.0;
};

/// Generate, build, warm up. The warm-up runs the fixed prefix and then
/// keeps going until the cache has evicted at least once (it is full).
Setup set_up(const Spec& spec, const Options& o) {
  Setup s;
  const HostTicks h0 = host_ticks();
  const Clock::time_point t0 = Clock::now();
  s.workload = std::make_unique<Workload>(generate(spec, o.seed));
  s.gen_ms = seconds_between(t0, Clock::now()) * 1e3;
  if (spec.kind == Kind::HenpFleet) {
    s.stack = std::make_unique<FleetStack>(spec, *s.workload, o.fbcgrid);
  } else {
    s.stack = std::make_unique<LocalStack>(spec, *s.workload);
  }
  std::uint64_t end = spec.warmup_jobs;
  for (;;) {
    Dispatch d;
    d.next = s.next_job;
    d.end = end;
    s.warmup.add(run_phase(*s.stack, spec, d, false));
    s.next_job = end;
    if (s.stack->metrics().stats.evictions > 0) break;
    if (end >= 10 * spec.stream_jobs)
      throw std::runtime_error("warm-up never filled the cache");
    end += spec.warmup_jobs;
  }
  s.setup_s = seconds_between(t0, Clock::now());
  s.setup_steal_pct = steal_pct(h0, host_ticks());
  return s;
}

double cpu_s(const std::vector<pid_t>& pids) {
  double total = self_cpu_s();
  for (pid_t p : pids) total += proc_cpu_s(p);
  return total;
}

int run(const Options& o) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (o.workload == s.name) spec = &s;
  if (spec == nullptr) throw std::invalid_argument("unknown --workload " + o.workload);
  if (spec->kind == Kind::HenpFleet && o.fbcgrid.empty())
    throw std::invalid_argument("henp-fleet needs --fbcgrid");
  pin_to_one_cpu();

  std::vector<std::string> violations;
  std::vector<double> setup_times;
  std::vector<double> setup_steal;
  std::vector<double> gen_times;
  Setup s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (s.stack) {
      for (std::string& v : s.stack->finish()) violations.push_back(v);
      s.stack.reset();  // before the workload it refers to
    }
    s = set_up(*spec, o);
    setup_times.push_back(s.setup_s);
    setup_steal.push_back(s.setup_steal_pct);
    gen_times.push_back(s.gen_ms);
  }
  Stack& stack = *s.stack;
  const Workload& w = *s.workload;
  Tally lifetime = std::move(s.warmup);

  // Untraced timed phase: the end-to-end metrics.
  const std::vector<pid_t> pids = stack.serving_pids();
  const auto serving_cpu = [&pids] { return cpu_s(pids); };
  const MetricsSnapshot m0 = stack.metrics();
  Dispatch timed;
  timed.next = s.next_job;
  Tally e2e = run_phase(stack, *spec, timed, false, o.seconds,
                        serving_cpu);
  const MetricsSnapshot m1 = stack.metrics();
  const std::uint64_t traced_from = timed.next.load();
  std::uint64_t served_end = traced_from;  // stream positions dispatched
  const StatsDelta d1 = stats_delta(m0.stats, m1.stats);
  const Windowed win = windowed(e2e, timed);

  std::vector<Metric> out;
  Tally traced;
  if (!o.trace) {
    double rss = peak_rss_mib("self");
    for (pid_t p : pids) rss += peak_rss_mib(std::to_string(p));
    const double jobs = static_cast<double>(std::max<std::uint64_t>(1, e2e.completed));
    out = {
        {"jobs_per_s", win.jobs_per_s, "1/s"},
        {"job_p50_ms", win.p50_ms, "ms"},
        {"job_p99_ms", win.p99_ms, "ms"},
        {"granted_pct", pct(static_cast<double>(e2e.granted),
                            static_cast<double>(e2e.attempted)), "%"},
        {"request_hit_pct", pct(static_cast<double>(e2e.hits),
                                static_cast<double>(e2e.granted)), "%"},
        {"byte_miss_ratio", d1.bytes_requested == 0 ? 0.0
             : static_cast<double>(d1.bytes_missed) /
               static_cast<double>(d1.bytes_requested), "ratio"},
        {"mib_staged_per_job", static_cast<double>(d1.bytes_missed) /
                                   static_cast<double>(MiB) / jobs, "MiB"},
        {"cpu_ms_per_job", win.cpu_ms_per_job, "ms"},
        {"setup_s", calm_median(setup_times, setup_steal), "s"},
        {"peak_rss_mib", rss, "MiB"},
    };
    std::cout << "samples: " << e2e.acquire.count() << " acquires in "
              << e2e.windows.size() << " windows, fewest in a window "
              << win.min_samples << " (" << win.min_samples / 100
              << " beyond its p99)";
    const auto print_row = [](const char* name, const std::vector<double>& v) {
      std::cout << "\nwindow " << name << ':';
      for (double x : v) std::cout << ' ' << x;
    };
    print_row("jobs_per_s", win.rate);
    print_row("job_p50_ms", win.p50);
    print_row("job_p99_ms", win.p99);
    print_row("cpu_ms_per_job", win.cpu);
    print_row("steal_pct", win.steal);
    std::cout << "\nsetup_s:";
    for (double t : setup_times) std::cout << ' ' << t;
    std::cout << "\nsetup steal_pct:";
    for (double v : setup_steal) std::cout << ' ' << v;
    std::cout << '\n';
    if (win.min_samples / 100 < 10)
      violations.push_back("a window has fewer than 10 samples beyond its p99 (" +
                           std::to_string(win.min_samples) + " samples)");
  } else {
    // Traced timed phase: the per-layer metrics.
    Dispatch td;
    td.next = traced_from;
    td.replay_end = traced_from + kReplayJobs;
    traced = run_phase(stack, *spec, td, true, o.seconds, serving_cpu);
    const MetricsSnapshot m2 = stack.metrics();
    served_end = td.next.load();
    const StatsDelta d2 = stats_delta(m1.stats, m2.stats);
    const double jobs = static_cast<double>(std::max<std::uint64_t>(1, traced.completed));
    const double traced_jps = windowed(traced, td).jobs_per_s;

    const Replay replay{s.next_job, traced_from,
                        std::min(served_end, td.replay_end)};
    const double sim_us = sim_us_per_job(*spec, w, replay);
    const double serial_hit = serial_hit_pct(*spec, w, replay, &violations);
    const double served_hit =
        pct(static_cast<double>(traced.replay_hits),
            static_cast<double>(replay.to - replay.from));
    const double codec_ns = codec_roundtrip_ns(w, replay, &violations);

    const obs::Histogram queue = hist_delta(m1, m2, "acquire.queue_us");
    const obs::Histogram reserve = hist_delta(m1, m2, "acquire.reserve_us");
    const obs::Histogram fetch = hist_delta(m1, m2, "acquire.fetch_us");
    const obs::Histogram total = hist_delta(m1, m2, "acquire.total_us");
    const obs::Histogram batch = hist_delta(m1, m2, "admit.batch_size");
    const auto cdelta = [&](const char* name) {
      return static_cast<double>(counter(m2, name) - counter(m1, name));
    };

    const bool fleet = spec->kind == Kind::HenpFleet;
    double acq_p50 = 0, acq_p99 = 0, rel_p50 = 0, per_job_server_us = 0;
    if (fleet) {
      acq_p50 = hist_q(total, 0.5);
      acq_p99 = hist_q(total, 0.99);
      per_job_server_us = static_cast<double>(total.sum()) / jobs;
    } else {
      acq_p50 = traced.server_acquire.quantile_us(0.5);
      acq_p99 = traced.server_acquire.quantile_us(0.99);
      rel_p50 = traced.server_release.quantile_us(0.5);
      per_job_server_us =
          traced.server_acquire.mean_us() + traced.server_release.mean_us();
    }
    double plan_ns = 0.0;
    if (fleet) {
      const cluster::Placement placement(cluster_config(*spec), w.catalog,
                                         spec->cache_bytes);
      std::size_t parts = 0;
      const Clock::time_point p0 = Clock::now();
      for (std::uint64_t i = replay.from; i < replay.to; ++i)
        parts += placement.plan(w.jobs[i % w.jobs.size()]).parts.size();
      const std::uint64_t planned = replay.to - replay.from;
      plan_ns = seconds_between(p0, Clock::now()) * 1e9 /
                static_cast<double>(std::max<std::uint64_t>(1, planned));
      if (parts < planned) violations.push_back("placement: empty plan");
    }
    const double rpc_p50 = traced.rpc.quantile_us(0.5);
    const double single = cdelta("grid.acquire.single");
    const double scatter = cdelta("grid.acquire.scatter");
    const std::vector<SpanSummary> spans = summarize_spans(traced.spans);

    out = {
        {"workload.gen_ms", median_of(gen_times), "ms"},
        {"cache.sim_us_per_job", sim_us, "us"},
        {"cache.evictions_per_job", static_cast<double>(d2.evictions) / jobs, "count"},
        {"server.acquire_us.p50", acq_p50, "us"},
        {"server.acquire_us.p99", acq_p99, "us"},
        {"server.release_us.p50", rel_p50, "us"},
        {"server.overhead_us_per_job", per_job_server_us - sim_us, "us"},
        {"server.queue_us.p50", hist_q(queue, 0.5), "us"},
        {"server.queue_us.p99", hist_q(queue, 0.99), "us"},
        {"server.reserve_us.p50", hist_q(reserve, 0.5), "us"},
        {"server.reserve_us.p99", hist_q(reserve, 0.99), "us"},
        {"server.fetch_us.p50", hist_q(fetch, 0.5), "us"},
        {"server.coalesced_pct", pct(cdelta("acquire.coalesced"),
                                     static_cast<double>(d2.requests)), "%"},
        {"server.admit_batch.mean", batch.empty() ? 0.0 : batch.mean(), "count"},
        {"server.queue_full", static_cast<double>(d2.rejected_full), "count"},
        {"server.timed_out", static_cast<double>(d2.timed_out), "count"},
        {"server.serial_hit_pct", serial_hit, "%"},
        {"server.hit_gap_pct", served_hit - serial_hit, "%"},
        {"codec.acquire_roundtrip_ns", codec_ns, "ns"},
        {"client.rpc_us.p50", rpc_p50, "us"},
        {"client.rpc_us.p99", traced.rpc.quantile_us(0.99), "us"},
        {"fleet.hop_us.p50", fleet ? rpc_p50 - hist_q(total, 0.5) : 0.0, "us"},
        {"placement.plan_ns", plan_ns, "ns"},
        {"router.scatter_pct", pct(scatter, single + scatter), "%"},
        {"router.rollback_pct", pct(cdelta("grid.acquire.rollback"), single + scatter), "%"},
        {"router.rerouted", cdelta("grid.acquire.rerouted"), "count"},
        {"grid.transfers_per_job", cdelta("fetch.transfers") / jobs, "count"},
        {"trace.overhead_pct", pct(win.jobs_per_s - traced_jps, win.jobs_per_s), "%"},
        {"trace.job_self_us", spans[kSpanJob].self_us, "us"},
    };

    std::cout << "traced phase: " << traced.completed << " jobs, "
              << traced.spans.size() << " spans\n"
              << "span\tcount\tmean_us\tself_us\n";
    for (int n = 0; n < kSpanNames; ++n)
      if (spans[n].count != 0)
        std::cout << kSpanNameText[n] << '\t' << spans[n].count << '\t'
                  << spans[n].mean_us << '\t' << spans[n].self_us << '\n';
    mkdir(o.out_dir.c_str(), 0755);
    const std::string path = o.out_dir + "/spans-" + spec->name + ".tsv";
    write_spans(path, traced.spans);
    std::cout << "spans written to " << path << '\n';
  }

  // Correctness gate over the whole lifetime of the serving stack.
  const std::uint64_t attempted = e2e.attempted + traced.attempted;
  const std::uint64_t failed = e2e.failed + traced.failed;
  lifetime.add(std::move(e2e));
  lifetime.add(std::move(traced));
  const MetricsSnapshot final_m = stack.metrics();
  const ServiceStats& st = final_m.stats;
  if (st.active_leases != 0)
    violations.push_back("active_leases " + std::to_string(st.active_leases) +
                         " after the drain");
  if (lifetime.release_failed != 0)
    violations.push_back(std::to_string(lifetime.release_failed) +
                         " releases not acknowledged");
  if (spec->kind == Kind::HenpFleet) {
    // The shards count one lease (and one hit) per part of a scattered
    // bundle; a scattered job is a hit only when every part was.
    const cluster::Placement placement(cluster_config(*spec), w.catalog,
                                       spec->cache_bytes);
    std::uint64_t parts = 0;
    for (std::uint64_t i = 0; i < served_end; ++i)
      parts += placement.plan(w.jobs[i % w.jobs.size()]).parts.size();
    const std::uint64_t router_grants =
        counter(final_m, "grid.acquire.single") +
        counter(final_m, "grid.acquire.scatter");
    if (router_grants != lifetime.granted)
      violations.push_back("client grants " + std::to_string(lifetime.granted) +
                           " != router grants " + std::to_string(router_grants));
    if (lifetime.failed == 0 && st.leases_granted != parts)
      violations.push_back("shard leases_granted " +
                           std::to_string(st.leases_granted) +
                           " != planned parts " + std::to_string(parts));
    if (st.request_hits < lifetime.hits)
      violations.push_back("client hits exceed the shards' request_hits");
    if (counter(final_m, "grid.acquire.rerouted") != 0)
      violations.push_back("healthy fleet rerouted acquires");
  } else {
    if (st.leases_granted != lifetime.granted)
      violations.push_back("client grants " + std::to_string(lifetime.granted) +
                           " != server leases_granted " +
                           std::to_string(st.leases_granted));
    if (st.request_hits != lifetime.hits)
      violations.push_back("client hits " + std::to_string(lifetime.hits) +
                           " != server request_hits " +
                           std::to_string(st.request_hits));
  }
  for (std::string& v : stack.finish()) violations.push_back(v);
  if (attempted == 0) violations.push_back("no job was attempted");
  for (const Metric& m : out)
    if (!std::isfinite(m.value)) violations.push_back(m.name + " is not finite");

  for (const Metric& m : out)
    std::cout << m.name << " = " << m.value << ' ' << m.unit << '\n';
  for (const std::string& v : violations)
    std::cerr << "perfbench: CORRECTNESS VIOLATION: " << v << '\n';
  std::cout << "correctness gate: "
            << (violations.empty() ? "passed" : "FAILED")
            << " (audits, lease drain, grant/hit tie-outs"
            << (o.trace ? ", codec round-trip, serial replays" : "")
            << (spec->kind == Kind::HenpFleet ? ", fbcgrid exit status" : "")
            << ")\n";
  print_result(violations.empty(), attempted, failed,
               violations.empty() ? out : std::vector<Metric>{});
  return violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench_loadgen: error: " << e.what() << '\n';
    return 2;
  }
}
