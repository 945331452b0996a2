#include "cluster/stats.hpp"

#include <map>

#include "obs/counter.hpp"
#include "obs/histogram.hpp"

namespace fbc::cluster {

service::ServiceStats merge_stats(
    std::span<const service::ServiceStats> shards) {
  service::ServiceStats out;
  for (const service::ServiceStats& s : shards)
    for (const service::StatField& field : service::kServiceStatsFields)
      out.*field.member += s.*field.member;
  return out;
}

service::MetricsSnapshot merge_metrics(
    std::span<const service::MetricsSnapshot> shards) {
  service::MetricsSnapshot out;
  {
    std::vector<service::ServiceStats> stats;
    stats.reserve(shards.size());
    for (const service::MetricsSnapshot& s : shards) stats.push_back(s.stats);
    out.stats = merge_stats(stats);
  }
  obs::CounterRegistry counters;
  std::map<std::string, obs::Histogram> histograms;
  for (const service::MetricsSnapshot& s : shards) {
    for (const obs::CounterSample& c : s.counters)
      counters.add(c.first, c.second);
    for (const service::NamedHistogram& h : s.histograms)
      histograms[h.name].merge(h.hist);
  }
  out.counters = counters.snapshot();
  out.histograms.reserve(histograms.size());
  for (auto& [name, hist] : histograms)
    out.histograms.push_back({name, std::move(hist)});
  return out;
}

}  // namespace fbc::cluster
