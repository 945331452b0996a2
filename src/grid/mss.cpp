#include "grid/mss.hpp"

#include <charconv>
#include <stdexcept>

#include "util/rng.hpp"

namespace fbc {

std::vector<StorageTier> default_tiers() {
  return {
      StorageTier{"disk-pool", /*latency_s=*/0.05,
                  /*bandwidth_bps=*/400.0 * 1024 * 1024},
      StorageTier{"local-tape", /*latency_s=*/8.0,
                  /*bandwidth_bps=*/120.0 * 1024 * 1024},
      StorageTier{"remote-mss", /*latency_s=*/2.0,
                  /*bandwidth_bps=*/25.0 * 1024 * 1024},
  };
}

MassStorageSystem::MassStorageSystem(std::vector<StorageTier> tiers,
                                     const FileCatalog& catalog)
    : tiers_(std::move(tiers)), catalog_(&catalog) {
  if (tiers_.empty())
    throw std::invalid_argument("MassStorageSystem: need at least one tier");
  placement_.assign(catalog.count(), 0);
}

void MassStorageSystem::place_file(FileId id, std::size_t tier_index) {
  if (!catalog_->valid(id))
    throw std::invalid_argument("MassStorageSystem::place_file: bad file id");
  if (tier_index >= tiers_.size())
    throw std::invalid_argument("MassStorageSystem::place_file: bad tier");
  if (placement_.size() <= id) placement_.resize(id + 1, 0);
  placement_[id] = static_cast<std::uint32_t>(tier_index);
}

std::size_t MassStorageSystem::tier_of(FileId id) const {
  if (id >= placement_.size())
    throw std::invalid_argument("MassStorageSystem::tier_of: bad file id");
  return placement_[id];
}

double MassStorageSystem::fetch_seconds(FileId id) const {
  return tiers_[tier_of(id)].fetch_seconds(catalog_->size_of(id));
}

void place_tier_mix(MassStorageSystem& mss, const std::string& mix,
                    std::uint64_t seed) {
  const auto fraction = [&mix](const char* first, const char* last) {
    double value = -1.0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last || !(value >= 0.0 && value <= 1.0))
      throw std::invalid_argument(
          "--tier-mix needs 'tape,remote' fractions in [0,1], got '" + mix +
          "'");
    return value;
  };
  const std::size_t comma = mix.find(',');
  if (comma == std::string::npos)
    throw std::invalid_argument("--tier-mix needs 'tape,remote' fractions");
  const double tape_frac = fraction(mix.data(), mix.data() + comma);
  const double remote_frac =
      fraction(mix.data() + comma + 1, mix.data() + mix.size());
  // The slack forgives decimal round-off such as "0.33,0.67".
  if (tape_frac + remote_frac > 1.0 + 1e-9)
    throw std::invalid_argument("--tier-mix fractions sum above 1: '" + mix +
                                "'");
  Rng placement_rng(seed + 17);
  for (FileId id = 0; id < mss.catalog().count(); ++id) {
    const double roll = placement_rng.uniform_double();
    if (roll < tape_frac) {
      mss.place_file(id, 1);
    } else if (roll < tape_frac + remote_frac) {
      mss.place_file(id, 2);
    }
  }
}

}  // namespace fbc
