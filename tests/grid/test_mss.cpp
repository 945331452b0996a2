// Tests for the mass-storage-system tier model.
#include "grid/mss.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace fbc {
namespace {

TEST(StorageTier, FetchSecondsFormula) {
  StorageTier tier{"t", /*latency_s=*/2.0, /*bandwidth_bps=*/100.0};
  EXPECT_DOUBLE_EQ(tier.fetch_seconds(0), 2.0);
  EXPECT_DOUBLE_EQ(tier.fetch_seconds(500), 7.0);
}

TEST(DefaultTiers, ThreeTiersOrderedByLocality) {
  const auto tiers = default_tiers();
  ASSERT_EQ(tiers.size(), 3u);
  EXPECT_EQ(tiers[0].name, "disk-pool");
  EXPECT_EQ(tiers[1].name, "local-tape");
  EXPECT_EQ(tiers[2].name, "remote-mss");
  // The disk pool must be strictly faster than the WAN for typical files.
  EXPECT_LT(tiers[0].fetch_seconds(100 * MiB),
            tiers[2].fetch_seconds(100 * MiB));
}

TEST(MassStorageSystem, DefaultsAllFilesToTierZero) {
  FileCatalog catalog({100, 200});
  MassStorageSystem mss(default_tiers(), catalog);
  EXPECT_EQ(mss.tier_count(), 3u);
  EXPECT_EQ(mss.tier_of(0), 0u);
  EXPECT_EQ(mss.tier_of(1), 0u);
}

TEST(MassStorageSystem, PlacementChangesFetchTime) {
  FileCatalog catalog({100 * MiB});
  MassStorageSystem mss(default_tiers(), catalog);
  const double fast = mss.fetch_seconds(0);
  mss.place_file(0, 2);
  EXPECT_EQ(mss.tier_of(0), 2u);
  const double slow = mss.fetch_seconds(0);
  EXPECT_GT(slow, fast);
}

TEST(MassStorageSystem, FetchSecondsUsesCatalogSizes) {
  FileCatalog catalog({1000});
  std::vector<StorageTier> tiers{StorageTier{"x", 1.0, 100.0}};
  MassStorageSystem mss(tiers, catalog);
  EXPECT_DOUBLE_EQ(mss.fetch_seconds(0), 1.0 + 10.0);
}

TEST(MassStorageSystem, Validation) {
  FileCatalog catalog({100});
  EXPECT_THROW(MassStorageSystem({}, catalog), std::invalid_argument);
  MassStorageSystem mss(default_tiers(), catalog);
  EXPECT_THROW(mss.place_file(5, 0), std::invalid_argument);
  EXPECT_THROW(mss.place_file(0, 9), std::invalid_argument);
  EXPECT_THROW((void)mss.tier_of(5), std::invalid_argument);
}

TEST(PlaceTierMix, SplitsTheCatalogByTheFractions) {
  FileCatalog catalog(std::vector<Bytes>(1000, 1));
  MassStorageSystem mss(default_tiers(), catalog);
  place_tier_mix(mss, "0.5,0.3", 7);
  std::vector<std::size_t> per_tier(3, 0);
  for (FileId id = 0; id < catalog.count(); ++id) ++per_tier[mss.tier_of(id)];
  EXPECT_NEAR(static_cast<double>(per_tier[1]), 500.0, 60.0);  // tape
  EXPECT_NEAR(static_cast<double>(per_tier[2]), 300.0, 60.0);  // remote
  // Deterministic in the seed.
  MassStorageSystem again(default_tiers(), catalog);
  place_tier_mix(again, "0.5,0.3", 7);
  for (FileId id = 0; id < catalog.count(); ++id)
    EXPECT_EQ(again.tier_of(id), mss.tier_of(id));
  // The two fractions may cover the whole catalog.
  place_tier_mix(mss, "1,0", 7);
  for (FileId id = 0; id < catalog.count(); ++id)
    EXPECT_EQ(mss.tier_of(id), 1u);
}

TEST(PlaceTierMix, RejectsMalformedMixes) {
  FileCatalog catalog({100});
  MassStorageSystem mss(default_tiers(), catalog);
  for (const char* bad : {"1.5,0", "-0.2,0.5", "0.5x,0.3", "0.5,0.3x",
                          "0.7,0.4", "0.5", ",0.3", "nan,0"})
    EXPECT_THROW(place_tier_mix(mss, bad, 1), std::invalid_argument) << bad;
  EXPECT_NO_THROW(place_tier_mix(mss, "0.33,0.67", 1));
}

}  // namespace
}  // namespace fbc
