// Placement tests: parse/print round-trips, plan determinism, the
// file-by-file partition invariants of hash placement, the single-shard
// fast path and spill fallback of affinity placement, and ring sanity
// (every shard actually receives files).
#include "cluster/placement.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

namespace fbc::cluster {
namespace {

FileCatalog sized_catalog(std::size_t count, Bytes each = 100) {
  std::vector<Bytes> sizes(count, each);
  return FileCatalog(std::move(sizes));
}

ClusterConfig hash_config(std::uint32_t shards) {
  ClusterConfig config;
  config.shards = shards;
  config.placement = PlacementMode::HashFile;
  config.vnodes = 16;
  return config;
}

ClusterConfig affinity_config(std::uint32_t shards) {
  ClusterConfig config = hash_config(shards);
  config.placement = PlacementMode::BundleAffinity;
  return config;
}

TEST(PlacementMode, ParseAndPrint) {
  EXPECT_EQ(parse_placement("hash"), PlacementMode::HashFile);
  EXPECT_EQ(parse_placement("affinity"), PlacementMode::BundleAffinity);
  EXPECT_THROW((void)parse_placement("random"), std::invalid_argument);
  EXPECT_STREQ(to_string(PlacementMode::HashFile), "hash");
  EXPECT_STREQ(to_string(PlacementMode::BundleAffinity), "affinity");
}

TEST(Placement, RejectsDegenerateConfig) {
  FileCatalog catalog = sized_catalog(4);
  ClusterConfig config = hash_config(0);
  EXPECT_THROW((Placement{config, catalog, 1000}), std::invalid_argument);
  config.shards = 2;
  config.vnodes = 0;
  EXPECT_THROW((Placement{config, catalog, 1000}), std::invalid_argument);
}

TEST(Placement, PlanIsDeterministicAcrossInstances) {
  FileCatalog catalog = sized_catalog(32);
  for (const ClusterConfig& config : {hash_config(4), affinity_config(4)}) {
    Placement a(config, catalog, 1000);
    Placement b(config, catalog, 1000);
    for (FileId id = 0; id < 32; ++id)
      EXPECT_EQ(a.file_shard(id), b.file_shard(id));
    const Request request({1, 5, 9, 20, 31});
    const PlacementPlan pa = a.plan(request);
    const PlacementPlan pb = b.plan(request);
    ASSERT_EQ(pa.parts.size(), pb.parts.size());
    for (std::size_t i = 0; i < pa.parts.size(); ++i) {
      EXPECT_EQ(pa.parts[i].shard, pb.parts[i].shard);
      EXPECT_EQ(pa.parts[i].request.files, pb.parts[i].request.files);
    }
  }
}

TEST(Placement, HashPlanPartitionsTheBundle) {
  FileCatalog catalog = sized_catalog(64);
  Placement placement(hash_config(4), catalog, 1000);
  Request request({0, 3, 7, 11, 23, 42, 63});
  const PlacementPlan plan = placement.plan(request);

  // Parts are in strictly increasing shard order and each file sits on
  // its ring home; the union is exactly the bundle.
  std::vector<FileId> covered;
  std::uint32_t last_shard = 0;
  bool first = true;
  for (const SubRequest& part : plan.parts) {
    if (!first) {
      EXPECT_GT(part.shard, last_shard);
    }
    first = false;
    last_shard = part.shard;
    EXPECT_LT(part.shard, 4u);
    EXPECT_FALSE(part.request.files.empty());
    for (FileId id : part.request.files) {
      EXPECT_EQ(placement.file_shard(id), part.shard);
      covered.push_back(id);
    }
  }
  std::sort(covered.begin(), covered.end());
  EXPECT_EQ(covered, request.files);
}

TEST(Placement, HashRingUsesEveryShard) {
  FileCatalog catalog = sized_catalog(512);
  Placement placement(hash_config(4), catalog, 1000);
  std::set<std::uint32_t> used;
  for (FileId id = 0; id < 512; ++id) used.insert(placement.file_shard(id));
  EXPECT_EQ(used.size(), 4u);
}

TEST(Placement, AffinitySmallBundleIsSingleShard) {
  FileCatalog catalog = sized_catalog(32);
  ClusterConfig config = affinity_config(4);
  config.spill_threshold = 0.5;
  // 3 files x 100 B = 300 <= 0.5 * 1000: stays whole.
  Placement placement(config, catalog, 1000);
  const Request request({2, 9, 17});
  const PlacementPlan plan = placement.plan(request);
  ASSERT_EQ(plan.parts.size(), 1u);
  EXPECT_FALSE(plan.split());
  EXPECT_EQ(plan.parts.front().shard, placement.bundle_home(request));
  EXPECT_EQ(plan.parts.front().request.files, request.files);
}

TEST(Placement, AffinityCoLocatesIdenticalBundles) {
  FileCatalog catalog = sized_catalog(32);
  Placement placement(affinity_config(4), catalog, 100000);
  const Request a({2, 9, 17});
  const Request b({2, 9, 17});
  EXPECT_EQ(placement.bundle_home(a), placement.bundle_home(b));
}

TEST(Placement, AffinitySpillsOversizedBundleToHashPartition) {
  FileCatalog catalog = sized_catalog(32);
  ClusterConfig config = affinity_config(4);
  config.spill_threshold = 0.5;
  // 6 files x 100 B = 600 > 0.5 * 1000: scatters like hash placement.
  Placement affinity(config, catalog, 1000);
  Placement hash(hash_config(4), catalog, 1000);
  const Request request({0, 5, 10, 15, 20, 25});
  const PlacementPlan spilled = affinity.plan(request);
  const PlacementPlan partitioned = hash.plan(request);
  ASSERT_EQ(spilled.parts.size(), partitioned.parts.size());
  for (std::size_t i = 0; i < spilled.parts.size(); ++i) {
    EXPECT_EQ(spilled.parts[i].shard, partitioned.parts[i].shard);
    EXPECT_EQ(spilled.parts[i].request.files,
              partitioned.parts[i].request.files);
  }
}

TEST(Placement, SingleShardClusterNeverScatters) {
  FileCatalog catalog = sized_catalog(16);
  for (const ClusterConfig& base : {hash_config(1), affinity_config(1)}) {
    ClusterConfig config = base;
    config.spill_threshold = 0.01;  // would spill on any bigger cluster
    Placement placement(config, catalog, 1000);
    const Request request({0, 4, 8, 12});
    const PlacementPlan plan = placement.plan(request);
    ASSERT_EQ(plan.parts.size(), 1u);
    EXPECT_EQ(plan.parts.front().shard, 0u);
    EXPECT_EQ(plan.parts.front().request.files, request.files);
  }
}

}  // namespace
}  // namespace fbc::cluster
