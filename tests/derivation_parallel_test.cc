// Determinism of the parallel derivation engine: for every thread count the
// output must be bit-for-bit the same — same molecules, same atom order
// within each node group, same link order. The fan-out writes into
// pre-sized per-root slots, so thread scheduling can never reorder results;
// these tests pin that guarantee against the Fig. 2 geo descriptions and a
// shared-subobject BOM DAG.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "molecule/derivation.h"
#include "molecule/description.h"
#include "util/thread_pool.h"
#include "workload/bom.h"
#include "workload/geo.h"

namespace mad {
namespace {

/// Order-sensitive equality, stricter than Molecule::operator== (which is
/// set-semantic via CanonicalKey).
bool ExactlyEqual(const Molecule& a, const Molecule& b) {
  if (a.root() != b.root() || a.node_count() != b.node_count()) return false;
  for (size_t i = 0; i < a.node_count(); ++i) {
    if (a.AtomsOf(i) != b.AtomsOf(i)) return false;
  }
  return a.links() == b.links();
}

void ExpectIdenticalRuns(const Database& db, const MoleculeDescription& md) {
  DerivationStats serial_stats;
  auto serial =
      DeriveMolecules(db, md, DerivationOptions{1}, &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status();

  for (unsigned parallelism : {2u, 8u}) {
    DerivationStats stats;
    auto parallel =
        DeriveMolecules(db, md, DerivationOptions{parallelism}, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(parallel->size(), serial->size());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_TRUE(ExactlyEqual((*serial)[i], (*parallel)[i]))
          << "molecule " << i << " differs at parallelism " << parallelism;
      EXPECT_TRUE(ValidateMolecule(db, md, (*parallel)[i]).ok());
    }
    // Every counter except wall_ms is thread-count independent.
    EXPECT_EQ(stats.roots, serial_stats.roots);
    EXPECT_EQ(stats.atoms_visited, serial_stats.atoms_visited);
    EXPECT_EQ(stats.links_scanned, serial_stats.links_scanned);
  }
}

TEST(DerivationParallelTest, GeoChainIsThreadCountInvariant) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok()) << md.status();
  ExpectIdenticalRuns(db, *md);
}

TEST(DerivationParallelTest, GeoBranchingIsThreadCountInvariant) {
  Database db("GEO_DB");
  auto ids = workload::BuildFigure4GeoDatabase(db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  // point-edge-(area-state,net-river): branches plus conjunctive reverse
  // traversals — the hardest Fig. 2 shape.
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"point", "edge", "area", "state", "net", "river"},
      {{"edge-point", "point", "edge", false},
       {"area-edge", "edge", "area", false},
       {"state-area", "area", "state", false},
       {"net-edge", "edge", "net", false},
       {"river-net", "net", "river", false}});
  ASSERT_TRUE(md.ok()) << md.status();
  ExpectIdenticalRuns(db, *md);
}

TEST(DerivationParallelTest, SharedBomDagIsThreadCountInvariant) {
  Database db("BOM_DB");
  workload::BomScale scale;
  scale.roots = 12;
  scale.depth = 4;
  scale.fanout = 3;
  scale.share_fraction = 0.4;  // force shared subobjects
  auto stats = workload::GenerateBom(db, scale);
  ASSERT_TRUE(stats.ok()) << stats.status();
  // Two-level super-component view over the reflexive composition link
  // (stored <super, sub>, so forward traversal descends).
  auto md = MoleculeDescription::Create(
      db,
      {{"part", "part", std::nullopt},
       {"part", "sub", std::nullopt},
       {"part", "subsub", std::nullopt}},
      {{"composition", "part", "sub", false},
       {"composition", "sub", "subsub", false}});
  ASSERT_TRUE(md.ok()) << md.status();
  ExpectIdenticalRuns(db, *md);
}

TEST(DerivationParallelTest, ForRootsKeepsCallerOrderAtAnyParallelism) {
  Database db("BOM_DB");
  workload::BomScale scale;
  scale.roots = 8;
  scale.depth = 3;
  auto stats = workload::GenerateBom(db, scale);
  ASSERT_TRUE(stats.ok()) << stats.status();
  auto md = MoleculeDescription::Create(
      db, {{"part", "part", std::nullopt}, {"part", "sub", std::nullopt}},
      {{"composition", "part", "sub", false}});
  ASSERT_TRUE(md.ok()) << md.status();

  // Request roots in reverse order: slots must follow the request order.
  std::vector<AtomId> roots(stats->roots.rbegin(), stats->roots.rend());
  auto serial = DeriveMoleculesForRoots(db, *md, roots, DerivationOptions{1});
  ASSERT_TRUE(serial.ok()) << serial.status();
  auto parallel = DeriveMoleculesForRoots(db, *md, roots, DerivationOptions{8});
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ASSERT_EQ(serial->size(), roots.size());
  ASSERT_EQ(parallel->size(), roots.size());
  for (size_t i = 0; i < roots.size(); ++i) {
    EXPECT_EQ((*serial)[i].root(), roots[i]);
    EXPECT_TRUE(ExactlyEqual((*serial)[i], (*parallel)[i])) << "slot " << i;
  }
}

// Parallelism 0 lets the engine size the fan-out from the root count: a
// full scan of a large occurrence fans out, a small root set derives
// serially, and either way the output is bit-identical to a serial run.
TEST(DerivationParallelTest, EngineSizesTheFanOutFromTheRootCount) {
  Database db("SCALED");
  workload::GeoScale scale;
  scale.states = 2000;
  ASSERT_TRUE(workload::GenerateScaledGeo(db, scale).ok());
  auto md = MoleculeDescription::CreateFromTypes(
      db, {"state", "area", "edge", "point"},
      {{"state-area", "state", "area", false},
       {"area-edge", "area", "edge", false},
       {"edge-point", "edge", "point", false}});
  ASSERT_TRUE(md.ok()) << md.status();

  DerivationStats serial_stats;
  auto serial = DeriveMolecules(db, *md, DerivationOptions{1}, &serial_stats);
  ASSERT_TRUE(serial.ok()) << serial.status();
  DerivationStats sized_stats;
  auto sized = DeriveMolecules(db, *md, DerivationOptions{}, &sized_stats);
  ASSERT_TRUE(sized.ok()) << sized.status();
  ASSERT_EQ(sized->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_TRUE(ExactlyEqual((*serial)[i], (*sized)[i])) << "molecule " << i;
  }
  EXPECT_EQ(sized_stats.atoms_visited, serial_stats.atoms_visited);
  EXPECT_EQ(sized_stats.links_scanned, serial_stats.links_scanned);
  EXPECT_LE(sized_stats.threads_used, ThreadPool::DefaultParallelism());
  if (std::thread::hardware_concurrency() >= 2) {
    EXPECT_GT(sized_stats.threads_used, 1u);
  }

  std::vector<AtomId> few;
  for (size_t i = 0; i < 50; ++i) few.push_back((*serial)[i].root());
  DerivationStats few_stats;
  auto small = DeriveMoleculesForRoots(db, *md, few, DerivationOptions{},
                                       &few_stats);
  ASSERT_TRUE(small.ok()) << small.status();
  ASSERT_EQ(small->size(), few.size());
  for (size_t i = 0; i < few.size(); ++i) {
    EXPECT_TRUE(ExactlyEqual((*serial)[i], (*small)[i])) << "slot " << i;
  }
  EXPECT_EQ(few_stats.threads_used, 1u);
}

}  // namespace
}  // namespace mad
