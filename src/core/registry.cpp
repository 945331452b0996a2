#include "core/registry.hpp"

#include <memory>
#include <stdexcept>

#include "core/optgen.hpp"
#include "policies/adaptive.hpp"
#include "policies/dist_online.hpp"
#include "policies/fifo.hpp"
#include "policies/gds.hpp"
#include "policies/gdsf.hpp"
#include "policies/landlord.hpp"
#include "policies/lfu.hpp"
#include "policies/lookahead.hpp"
#include "policies/lru.hpp"
#include "policies/lru_k.hpp"
#include "policies/random_evict.hpp"

namespace fbc {
namespace {

const FileCatalog& require_catalog(const PolicyContext& context,
                                   const std::string& name) {
  if (context.catalog == nullptr)
    throw std::invalid_argument("make_policy(" + name +
                                "): context.catalog is required");
  return *context.catalog;
}

PolicyPtr make_optfb(const PolicyContext& context, const std::string& name,
                     OptFileBundleConfig config) {
  config.aging_factor = context.aging_factor;
  config.history.max_entries = context.history_max_entries;
  config.engine = context.select_engine;
  return std::make_unique<OptFileBundlePolicy>(require_catalog(context, name),
                                               config);
}

/// A policy whose constructor takes the fixed arguments `args` only.
template <class Policy, auto... args>
PolicyPtr make_plain(const PolicyContext&, const std::string&) {
  return std::make_unique<Policy>(args...);
}

PolicyPtr make_adaptive(const PolicyContext& context,
                        const std::string& name) {
  const FileCatalog& catalog = require_catalog(context, name);
  std::vector<AdaptiveContender> contenders;
  for (const char* contender : {"optfb", "landlord", "gdsf"}) {
    contenders.push_back(AdaptiveContender{contender,
                                           make_policy(contender, context),
                                           make_policy(contender, context)});
  }
  AdaptiveConfig config;
  config.seed = context.seed;
  config.sample_period = context.duel_sample_period;
  config.phase_jobs = context.duel_phase_jobs;
  // The training signal: a BundleOPTgen oracle fed the same sampled
  // subsequence the shadow caches replay, created lazily once the real
  // cache capacity is known.
  AdaptivePolicy::OracleFactory oracle = [&catalog](Bytes capacity) {
    auto gen = std::make_shared<BundleOPTgen>(
        catalog, OptgenConfig{capacity, /*window_quanta=*/4096});
    return [gen](const Request& request) {
      return gen->observe(request).opt_hit;
    };
  };
  return std::make_unique<AdaptivePolicy>(catalog, config,
                                          std::move(contenders),
                                          std::move(oracle));
}

using Factory = PolicyPtr (*)(const PolicyContext&, const std::string&);

/// Every registered policy, in display order.
constexpr struct {
  const char* name;
  Factory make;
} kPolicies[] = {
    {"optfb",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n, {});
     }},
    {"optfb-basic",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n, {.variant = SelectVariant::Basic});
     }},
    {"optfb-seeded1",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n, {.variant = SelectVariant::Seeded1});
     }},
    {"optfb-seeded2",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n, {.variant = SelectVariant::Seeded2});
     }},
    {"optfb-full",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n,
                         {.history = {.mode = HistoryMode::Full},
                          .prefetch_selected = true});
     }},
    {"optfb-window",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n,
                         {.history = {.mode = HistoryMode::Window,
                                      .window_jobs = c.history_window_jobs},
                          .prefetch_selected = true});
     }},
    {"optfb-bytes",
     [](const PolicyContext& c, const std::string& n) {
       return make_optfb(c, n, {.value_model = ValueModel::BytesWeighted});
     }},
    {"landlord",
     make_plain<LandlordPolicy, LandlordPolicy::CreditModel::Uniform>},
    {"landlord-size",
     make_plain<LandlordPolicy,
                LandlordPolicy::CreditModel::ProportionalToSize>},
    {"dist-online",
     [](const PolicyContext& c, const std::string& n) -> PolicyPtr {
       return std::make_unique<DistOnlinePolicy>(require_catalog(c, n));
     }},
    {"lru", make_plain<LruPolicy>},
    {"lru-2", make_plain<LruKPolicy, std::size_t{2}>},
    {"lru-3", make_plain<LruKPolicy, std::size_t{3}>},
    {"lfu", make_plain<LfuPolicy>},
    {"fifo", make_plain<FifoPolicy>},
    {"gds-unit", make_plain<GdsPolicy, GdsCost::Unit>},
    {"gds-size", make_plain<GdsPolicy, GdsCost::Size>},
    {"gds-fetch", make_plain<GdsPolicy, GdsCost::FetchTime>},
    {"gdsf", make_plain<GdsfPolicy, true>},
    {"gdsf-unit", make_plain<GdsfPolicy, false>},
    {"random",
     [](const PolicyContext& c, const std::string&) -> PolicyPtr {
       return std::make_unique<RandomPolicy>(c.seed);
     }},
    {"lookahead",
     [](const PolicyContext& c, const std::string&) -> PolicyPtr {
       if (c.jobs.empty())
         throw std::invalid_argument(
             "make_policy(lookahead): context.jobs is required");
       return std::make_unique<LookaheadPolicy>(c.jobs);
     }},
    {"adaptive", make_adaptive},
};

}  // namespace

PolicyPtr make_policy(const std::string& name, const PolicyContext& context) {
  for (const auto& policy : kPolicies)
    if (name == policy.name) return policy.make(context, name);
  throw std::invalid_argument("make_policy: unknown policy '" + name + "'");
}

std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (const auto& policy : kPolicies) names.emplace_back(policy.name);
  return names;
}

}  // namespace fbc
