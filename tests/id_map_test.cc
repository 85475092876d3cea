// IdMap (util/id_map.h) against std::unordered_map under seeded random
// insert / assign / erase / find sequences. Small key ranges force long
// probe runs, so backward-shift deletion is exercised across wrap-around
// and growth.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>

#include "util/id_map.h"

namespace mad {
namespace {

void RunDifferential(uint32_t seed, uint64_t key_range, int steps) {
  std::mt19937_64 rng(seed);
  IdMap map;
  std::unordered_map<uint64_t, uint64_t> reference;
  std::uniform_int_distribution<uint64_t> key(1, key_range);
  for (int step = 0; step < steps; ++step) {
    const uint64_t k = key(rng);
    switch (rng() % 4) {
      case 0: {
        bool inserted = false;
        const uint64_t value = map.FindOrInsert(k, step, &inserted);
        auto [it, fresh] = reference.emplace(k, step);
        ASSERT_EQ(inserted, fresh) << "step " << step;
        ASSERT_EQ(value, it->second) << "step " << step;
        break;
      }
      case 1:
        map.Assign(k, step);
        reference[k] = step;
        break;
      case 2:
        map.Erase(k);
        reference.erase(k);
        break;
      default:
        break;
    }
    // Every key of the range agrees after every step.
    for (uint64_t probe = 1; probe <= key_range; ++probe) {
      const uint64_t* found = map.Find(probe);
      auto it = reference.find(probe);
      ASSERT_EQ(found != nullptr, it != reference.end())
          << "key " << probe << " at step " << step;
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
  }
}

TEST(IdMapTest, MatchesUnorderedMapOnDenseKeys) {
  for (uint32_t seed : {1u, 2u, 3u}) RunDifferential(seed, 40, 3000);
}

TEST(IdMapTest, MatchesUnorderedMapOnSparseKeys) {
  RunDifferential(7, 400, 4000);
}

TEST(IdMapTest, ReserveKeepsContents) {
  IdMap map;
  for (uint64_t k = 1; k <= 100; ++k) map.Assign(k * 977, k);
  map.Reserve(10000);
  for (uint64_t k = 1; k <= 100; ++k) {
    const uint64_t* found = map.Find(k * 977);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(*found, k);
  }
  EXPECT_EQ(map.Find(5), nullptr);
}

}  // namespace
}  // namespace mad
