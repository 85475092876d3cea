// PERF-OPS: scaling of the molecule algebra operators Σ, Π, Ω, Δ, Ψ, X and
// of the propagation function prop over scaled geographic networks.
// Expected shape: Σ is linear in the molecule count times qualification
// cost; Π is linear in retained atoms; the set operators are linear in the
// canonical-key material; X is quadratic (|mv1|·|mv2|); prop is linear in
// the distinct atoms/links of the result set. A point query (one
// index-seeded molecule through the MQL session) costs about one molecule
// at every database size.

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>

#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/operations.h"
#include "molecule/propagation.h"
#include "mql/session.h"
#include "workload/geo.h"

namespace {

namespace e = mad::expr;

struct OpsFixture {
  std::unique_ptr<mad::Database> db;
  std::unique_ptr<mad::MoleculeType> mt;
  int64_t states = -1;

  static OpsFixture& Get(benchmark::State& state) {
    static OpsFixture f;
    if (f.db == nullptr || f.states != state.range(0)) {
      f.states = state.range(0);
      f.db = std::make_unique<mad::Database>("SCALED");
      mad::workload::GeoScale scale;
      scale.states = static_cast<int>(f.states);
      scale.rivers = scale.states / 5 + 1;
      auto stats = mad::workload::GenerateScaledGeo(*f.db, scale);
      if (!stats.ok()) {
        state.SkipWithError(stats.status().ToString().c_str());
        f.db.reset();
        return f;
      }
      auto md = mad::MoleculeDescription::CreateFromTypes(
          *f.db, {"state", "area", "edge", "point"},
          {{"state-area", "state", "area", false},
           {"area-edge", "area", "edge", false},
           {"edge-point", "edge", "point", false}});
      if (!md.ok()) {
        state.SkipWithError(md.status().ToString().c_str());
        f.db.reset();
        return f;
      }
      auto mt = mad::DefineMoleculeType(*f.db, "mt_state", *md);
      if (!mt.ok()) {
        state.SkipWithError(mt.status().ToString().c_str());
        f.db.reset();
        return f;
      }
      f.mt = std::make_unique<mad::MoleculeType>(*std::move(mt));
    }
    return f;
  }
};

void BM_MoleculeDerivation(benchmark::State& state) {
  // The molecule-type definition operator `a` itself, at a pinned thread
  // count (range(1)) or, at 0, the count the engine picks from the root
  // count; engine set-up + fan-out per iteration. /100/0 sits below the
  // serial crossover and /5000/0 above it.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  mad::DerivationOptions opts{static_cast<unsigned>(state.range(1))};
  mad::DerivationStats stats;
  for (auto _ : state) {
    auto mt = mad::DefineMoleculeType(*f.db, "bench", f.mt->description(),
                                      opts, &stats);
    if (!mt.ok()) {
      state.SkipWithError(mt.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(&mt);
  }
  state.counters["atoms_visited"] = static_cast<double>(stats.atoms_visited);
  state.counters["links_scanned"] = static_cast<double>(stats.links_scanned);
}
BENCHMARK(BM_MoleculeDerivation)
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 4})
    ->Args({400, 1})
    ->Args({400, 2})
    ->Args({400, 4})
    ->Args({100, 0})
    ->Args({5000, 1})
    ->Args({5000, 4})
    ->Args({5000, 0});

void BM_PointQuery(benchmark::State& state) {
  // SELECT on an indexed root attribute returning one molecule over
  // GenerateScaledGeo(range(0)) states: the statement should scale with
  // the result, not with the database.
  static std::unique_ptr<mad::Database> db;
  static int64_t states = -1;
  if (db == nullptr || states != state.range(0)) {
    states = state.range(0);
    db = std::make_unique<mad::Database>("POINT");
    mad::workload::GeoScale scale;
    scale.states = static_cast<int>(states);
    scale.rivers = scale.states / 5 + 1;
    auto stats = mad::workload::GenerateScaledGeo(*db, scale);
    if (!stats.ok() || !db->CreateIndex("state", "name").ok()) {
      state.SkipWithError("point-query fixture failed");
      db.reset();
      return;
    }
  }
  mad::mql::Session session(db.get());
  for (auto _ : state) {
    auto result = session.Execute(
        "SELECT ALL FROM state-area-edge-point WHERE state.name = 'S7'");
    if (!result.ok() || result->molecules == nullptr ||
        result->molecules->size() != 1) {
      state.SkipWithError("point query failed");
      return;
    }
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_PointQuery)->Arg(50)->Arg(500)->Arg(5000);

void BM_SigmaRestrict(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000}));
  for (auto _ : state) {
    auto result = mad::RestrictMolecules(*f.db, *f.mt, pred, "sigma");
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SigmaRestrict)->Arg(20)->Arg(100)->Arg(400);

void BM_SigmaRestrictDeepQualification(benchmark::State& state) {
  // Qualification over a leaf node: existential scan of every point group.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto pred = e::Gt(e::Attr("point", "x"), e::Lit(990.0));
  for (auto _ : state) {
    auto result = mad::RestrictMolecules(*f.db, *f.mt, pred, "sigma");
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_SigmaRestrictDeepQualification)->Arg(20)->Arg(100)->Arg(400);

void BM_PiProjection(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  mad::MoleculeProjectionSpec spec;
  spec.keep_labels = {"state", "area", "edge"};
  spec.attributes["state"] = {"name"};
  for (auto _ : state) {
    auto result = mad::ProjectMolecules(*f.db, *f.mt, spec, "pi");
    benchmark::DoNotOptimize(&result);
  }
}
BENCHMARK(BM_PiProjection)->Arg(20)->Arg(100)->Arg(400);

void BM_OmegaDeltaPsi(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto big = mad::RestrictMolecules(
      *f.db, *f.mt, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{800})),
      "big");
  auto small = mad::RestrictMolecules(
      *f.db, *f.mt, e::Lt(e::Attr("state", "hectare"), e::Lit(int64_t{1400})),
      "small");
  if (!big.ok() || !small.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  for (auto _ : state) {
    auto u = mad::UnionMolecules(*big, *small, "u");
    auto d = mad::DifferenceMolecules(*big, *small, "d");
    auto i = mad::IntersectMolecules(*big, *small, "i");
    benchmark::DoNotOptimize(&u);
    benchmark::DoNotOptimize(&d);
    benchmark::DoNotOptimize(&i);
  }
}
BENCHMARK(BM_OmegaDeltaPsi)->Arg(20)->Arg(100)->Arg(400);

void BM_CanonicalKey(benchmark::State& state) {
  // The fingerprint underlying the set operators.
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    size_t total = 0;
    for (const mad::Molecule& m : f.mt->molecules()) {
      total += m.CanonicalKey().size();
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_CanonicalKey)->Arg(20)->Arg(100);

void BM_CartesianProductX(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  // Keep operands small: X is quadratic and mutates the database.
  auto left = mad::RestrictMolecules(
      *f.db, *f.mt, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1500})),
      "left");
  auto right = mad::RestrictMolecules(
      *f.db, *f.mt, e::Lt(e::Attr("state", "hectare"), e::Lit(int64_t{300})),
      "right");
  if (!left.ok() || !right.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  int run = 0;
  size_t pairs = 0;
  for (auto _ : state) {
    std::string name = "x" + std::to_string(++run);
    auto x = mad::CartesianProductMolecules(*f.db, *left, *right, name);
    if (!x.ok()) {
      state.SkipWithError(x.status().ToString().c_str());
      return;
    }
    pairs = x->size();
    state.PauseTiming();
    auto s = f.db->DropAtomType(name);  // pair type + links
    benchmark::DoNotOptimize(&s);
    state.ResumeTiming();
  }
  state.counters["pairs"] = static_cast<double>(pairs);
}
BENCHMARK(BM_CartesianProductX)->Arg(20)->Arg(100);

void BM_Propagation(benchmark::State& state) {
  auto& f = OpsFixture::Get(state);
  if (f.db == nullptr) return;
  auto big = mad::RestrictMolecules(
      *f.db, *f.mt, e::Gt(e::Attr("state", "hectare"), e::Lit(int64_t{1000})),
      "to_prop");
  if (!big.ok()) {
    state.SkipWithError("setup failed");
    return;
  }
  int run = 0;
  for (auto _ : state) {
    std::string name = "prop" + std::to_string(++run);
    auto prop = mad::PropagateMoleculeType(*f.db, *big, name);
    if (!prop.ok()) {
      state.SkipWithError(prop.status().ToString().c_str());
      return;
    }
    state.PauseTiming();
    for (const mad::MoleculeNode& node : prop->description().nodes()) {
      auto s = f.db->DropAtomType(node.type_name);
      benchmark::DoNotOptimize(&s);
    }
    state.ResumeTiming();
  }
}
BENCHMARK(BM_Propagation)->Arg(20)->Arg(100);

const bool kHeaderPrinted = [] {
  std::cout << "==== PERF-OPS: molecule algebra operator scaling (Σ Π Ω Δ Ψ "
               "X, prop) ====\n\n";
  return true;
}();

}  // namespace
