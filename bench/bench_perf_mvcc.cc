// PERF-MVCC: the cost of the epoch machinery on read paths. Three shapes:
//
//  * Derivation/head        — derivation at the default kHeadView; guards
//    the "zero-cost when unused" claim: versioning must not tax
//    single-threaded readers.
//  * Derivation/pinned      — the same derivation through a pinned view over
//    a clean head (each store read takes the HeadVisibleAt fast path).
//  * Derivation/archived    — pinned view over a head with archived versions
//    (the snapshot-reconstruction slow path readers only hit while writers
//    overlap them).
//  * Txn/autocommit vs txn  — mutation cost with and without a transaction
//    wrapper (undo logging + commit restamping).

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "molecule/derivation.h"
#include "molecule/description.h"
#include "storage/database.h"
#include "workload/geo.h"

namespace {

struct MvccFixture {
  std::unique_ptr<mad::Database> db;
  std::unique_ptr<mad::MoleculeDescription> md;
  mad::ReadView archived_view{0, 0};
  int64_t states = -1;

  static MvccFixture& Get(benchmark::State& state, bool with_archive) {
    static MvccFixture f;
    const int64_t want = state.range(0) * (with_archive ? -1 : 1);
    if (f.db == nullptr || f.states != want) {
      f.states = want;
      f.db = std::make_unique<mad::Database>("MVCC_BENCH");
      mad::workload::GeoScale scale;
      scale.states = static_cast<int>(state.range(0));
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
      f.md = std::make_unique<mad::MoleculeDescription>(*std::move(md));
      if (with_archive) {
        // Age the stores: update every state once while an epoch is pinned
        // so every superseded version lands in the archive and stays there
        // (the pin blocks reclamation for the fixture's lifetime — leaked
        // deliberately, the fixture is static).
        auto* pin = new mad::EpochPin([&] {
          mad::ReaderLock lock(f.db->mutex());
          return f.db->PinEpoch();
        }());
        benchmark::DoNotOptimize(pin);
        f.archived_view = pin->view();
        auto at = f.db->GetAtomType("state");
        if (at.ok()) {
          for (const mad::Atom& atom : (*at)->occurrence().atoms()) {
            std::vector<mad::Value> values = atom.values;
            (void)f.db->UpdateAtom("state", atom.id, std::move(values));
          }
        }
      }
    }
    return f;
  }
};

void BM_DerivationHead(benchmark::State& state) {
  MvccFixture& f = MvccFixture::Get(state, false);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    auto molecules = mad::DeriveMolecules(*f.db, *f.md);
    if (!molecules.ok()) state.SkipWithError("derivation failed");
    benchmark::DoNotOptimize(molecules);
  }
}
BENCHMARK(BM_DerivationHead)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_DerivationPinnedCleanHead(benchmark::State& state) {
  MvccFixture& f = MvccFixture::Get(state, false);
  if (f.db == nullptr) return;
  for (auto _ : state) {
    mad::ReaderLock lock(f.db->mutex());
    mad::EpochPin pin = f.db->PinEpoch();
    mad::DerivationOptions options;
    options.view = pin.view();
    auto molecules = mad::DeriveMolecules(*f.db, *f.md, options);
    if (!molecules.ok()) state.SkipWithError("derivation failed");
    benchmark::DoNotOptimize(molecules);
  }
}
BENCHMARK(BM_DerivationPinnedCleanHead)->Arg(200)->Unit(benchmark::kMicrosecond);

void BM_DerivationPinnedArchivedStores(benchmark::State& state) {
  MvccFixture& f = MvccFixture::Get(state, true);
  if (f.db == nullptr) return;
  // Pin an epoch *behind* the aging updates: every state store read goes
  // through snapshot reconstruction.
  for (auto _ : state) {
    mad::ReaderLock lock(f.db->mutex());
    mad::DerivationOptions options;
    options.view = f.archived_view;
    auto molecules = mad::DeriveMolecules(*f.db, *f.md, options);
    if (!molecules.ok()) state.SkipWithError("derivation failed");
    benchmark::DoNotOptimize(molecules);
  }
}
BENCHMARK(BM_DerivationPinnedArchivedStores)
    ->Arg(200)
    ->Unit(benchmark::kMicrosecond);

void BM_AutocommitInsertDelete(benchmark::State& state) {
  mad::Database db("WRITE_BENCH");
  mad::Schema s;
  (void)s.AddAttribute("name", mad::DataType::kString);
  (void)db.DefineAtomType("part", s);
  for (auto _ : state) {
    auto id = db.InsertAtom("part", {mad::Value("x")});
    if (!id.ok() || !db.DeleteAtom("part", *id).ok()) {
      state.SkipWithError("mutation failed");
    }
  }
}
BENCHMARK(BM_AutocommitInsertDelete)->Unit(benchmark::kNanosecond);

void BM_TransactionInsertDeleteCommit(benchmark::State& state) {
  mad::Database db("WRITE_BENCH_TXN");
  mad::Schema s;
  (void)s.AddAttribute("name", mad::DataType::kString);
  (void)db.DefineAtomType("part", s);
  for (auto _ : state) {
    auto txn = db.Begin();
    auto id = db.InsertAtom("part", {mad::Value("x")}, txn.get());
    if (!id.ok() || !db.DeleteAtom("part", *id, txn.get()).ok() ||
        !txn->Commit().ok()) {
      state.SkipWithError("transactional mutation failed");
    }
  }
}
BENCHMARK(BM_TransactionInsertDeleteCommit)->Unit(benchmark::kNanosecond);

}  // namespace
