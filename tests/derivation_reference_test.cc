// Differential test of the derivation engine against a naive reference
// implementation of m_dom written straight from Def. 6: per root, a
// fixpoint over whole atom-type occurrences that admits an atom into a node
// iff, for *every* incoming directed link type, some contained parent is
// linked to it (checked link by link against the link store). The
// reference never walks a partner list and knows nothing of the engine's
// scratch structures; it is set-based and slow on purpose.
//
// Seeded random databases cover conjunctive multi-in-edge nodes, reverse
// edges, reflexive link types, empty occurrences, and pinned views over
// stores holding archived versions and another transaction's pending
// writes, and default options (which name no view) reading the head while
// a transaction is open. Beyond the molecule sets the tests check root
// order against occurrence order, pushed filters against
// derive-then-restrict, thread count invariance at parallelism 1/4/8 and
// under the engine's rule (0), ValidateMolecule on head output, and the
// DerivationStats counters for one fixed seed.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "expr/compile.h"
#include "expr/expr.h"
#include "molecule/derivation.h"
#include "molecule/description.h"
#include "molecule/operations.h"
#include "storage/database.h"

namespace mad {
namespace {

namespace e = expr;

// Pinned thread counts, plus 0: the engine's own root-count rule.
constexpr unsigned kParallelisms[] = {1, 4, 8, 0};

/// A molecule as sets: per node the atom ids, plus (edge, parent, child)
/// link triples. Molecule::operator== is set-semantic too, but this form
/// prints readably and is built independently by the reference.
struct SetMolecule {
  uint64_t root = 0;
  std::vector<std::set<uint64_t>> atoms;
  std::set<std::tuple<size_t, uint64_t, uint64_t>> links;

  bool operator==(const SetMolecule&) const = default;
};

std::string Describe(const SetMolecule& m) {
  std::string out = "root #" + std::to_string(m.root) + ":";
  for (const std::set<uint64_t>& group : m.atoms) {
    out += " {";
    for (uint64_t id : group) out += std::to_string(id) + ",";
    out += "}";
  }
  out += " links";
  for (const auto& [edge, parent, child] : m.links) {
    out += " " + std::to_string(edge) + ":" + std::to_string(parent) + "-" +
           std::to_string(child);
  }
  return out;
}

/// Converts engine output; duplicate atoms or links inside one molecule
/// would be a bug, so they fail here rather than vanish into a set.
SetMolecule ToSets(const Molecule& m) {
  SetMolecule out;
  out.root = m.root().value;
  for (size_t i = 0; i < m.node_count(); ++i) {
    std::set<uint64_t> group;
    for (AtomId id : m.AtomsOf(i)) group.insert(id.value);
    EXPECT_EQ(group.size(), m.AtomsOf(i).size()) << "duplicate atom";
    out.atoms.push_back(std::move(group));
  }
  for (const MoleculeLink& link : m.links()) {
    out.links.emplace(link.edge_index, link.parent.value, link.child.value);
  }
  EXPECT_EQ(out.links.size(), m.links().size()) << "duplicate link";
  return out;
}

/// Order-sensitive equality: same root, same atom order per group, same
/// link order.
bool ExactlyEqual(const Molecule& a, const Molecule& b) {
  if (a.root() != b.root() || a.node_count() != b.node_count()) return false;
  for (size_t i = 0; i < a.node_count(); ++i) {
    if (a.AtomsOf(i) != b.AtomsOf(i)) return false;
  }
  return a.links() == b.links();
}

// ---- The reference (Def. 6) -------------------------------------------------

/// The occurrence of `type` as the reader sees it: the head, or the
/// versions visible at `view`.
std::vector<uint64_t> Occurrence(const Database& db, const std::string& type,
                                 const std::optional<ReadView>& view) {
  const AtomStore& store = (*db.GetAtomType(type))->occurrence();
  std::vector<uint64_t> ids;
  if (view.has_value()) {
    for (const Atom* atom : store.SnapshotAt(*view)) {
      ids.push_back(atom->id.value);
    }
  } else {
    for (const Atom& atom : store.atoms()) ids.push_back(atom.id.value);
  }
  return ids;
}

bool Linked(const Database& db, const DirectedLink& dl, uint64_t parent,
            uint64_t child, const std::optional<ReadView>& view) {
  const LinkStore& store = (*db.GetLinkType(dl.link_type))->occurrence();
  // A reverse edge traverses the link from its second role to its first.
  const AtomId first{dl.reverse ? child : parent};
  const AtomId second{dl.reverse ? parent : child};
  return view.has_value() ? store.ContainsAt(first, second, *view)
                          : store.Contains(first, second);
}

/// m_dom for one root: contained(n) is the largest set of occurrence atoms
/// linked to a contained parent through every in-edge of n, computed as a
/// fixpoint from empty groups; g is every link between contained atoms
/// along a description edge.
SetMolecule Reference(const Database& db, const MoleculeDescription& md,
                      uint64_t root, const std::optional<ReadView>& view) {
  const size_t n = md.nodes().size();
  const size_t root_idx = *md.NodeIndex(md.root_label());
  SetMolecule m;
  m.root = root;
  m.atoms.assign(n, {});
  m.atoms[root_idx].insert(root);
  std::vector<std::vector<uint64_t>> occurrences;
  for (const MoleculeNode& node : md.nodes()) {
    occurrences.push_back(Occurrence(db, node.type_name, view));
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      if (i == root_idx) continue;
      std::set<uint64_t> next;
      for (uint64_t candidate : occurrences[i]) {
        bool every_edge = true;
        for (const DirectedLink& dl : md.links()) {
          if (*md.NodeIndex(dl.to) != i) continue;
          bool some_parent = false;
          for (uint64_t parent : m.atoms[*md.NodeIndex(dl.from)]) {
            if (Linked(db, dl, parent, candidate, view)) some_parent = true;
          }
          every_edge = every_edge && some_parent;
        }
        if (every_edge) next.insert(candidate);
      }
      if (next != m.atoms[i]) {
        m.atoms[i] = std::move(next);
        changed = true;
      }
    }
  }
  for (size_t e = 0; e < md.links().size(); ++e) {
    const DirectedLink& dl = md.links()[e];
    for (uint64_t parent : m.atoms[*md.NodeIndex(dl.from)]) {
      for (uint64_t child : m.atoms[*md.NodeIndex(dl.to)]) {
        if (Linked(db, dl, parent, child, view)) {
          m.links.emplace(e, parent, child);
        }
      }
    }
  }
  return m;
}

// ---- Random databases -------------------------------------------------------

Schema ValueSchema() {
  Schema s;
  EXPECT_TRUE(s.AddAttribute("v", DataType::kInt64).ok());
  return s;
}

/// Atom types a, b, c (populated) and d (always empty); link types ab, bc,
/// ac, ad and the reflexive bb, each filled at a seeded density.
class RandomDb {
 public:
  explicit RandomDb(uint32_t seed) : rng_(seed) {
    for (const char* type : {"a", "b", "c", "d"}) {
      EXPECT_TRUE(db.DefineAtomType(type, ValueSchema()).ok());
    }
    EXPECT_TRUE(db.DefineLinkType("ab", "a", "b").ok());
    EXPECT_TRUE(db.DefineLinkType("bc", "b", "c").ok());
    EXPECT_TRUE(db.DefineLinkType("ac", "a", "c").ok());
    EXPECT_TRUE(db.DefineLinkType("ad", "a", "d").ok());
    EXPECT_TRUE(db.DefineLinkType("bb", "b", "b").ok());
    const std::map<std::string, int> sizes = {{"a", 7}, {"b", 11}, {"c", 11}};
    for (const auto& [type, count] : sizes) {
      for (int i = 0; i < count; ++i) InsertAtom(type, nullptr);
    }
    for (const char* lt : {"ab", "bc", "ac", "bb"}) {
      auto type = db.GetLinkType(lt);
      const std::string first = (*type)->first_atom_type();
      const std::string second = (*type)->second_atom_type();
      for (AtomId x : ids[first]) {
        for (AtomId y : ids[second]) {
          if (Chance(0.22)) {
            EXPECT_TRUE(db.InsertLink(lt, x, y).ok());
          }
        }
      }
    }
  }

  bool Chance(double p) { return std::bernoulli_distribution(p)(rng_); }
  int64_t RandomValue() {
    return std::uniform_int_distribution<int>(0, 99)(rng_);
  }
  AtomId Pick(const std::string& type) {
    const std::vector<AtomId>& pool = ids[type];
    return pool[std::uniform_int_distribution<size_t>(0, pool.size() - 1)(
        rng_)];
  }

  AtomId InsertAtom(const std::string& type, Transaction* txn) {
    auto id = db.InsertAtom(type, {Value(RandomValue())}, txn);
    EXPECT_TRUE(id.ok()) << id.status();
    ids[type].push_back(*id);
    return *id;
  }

  /// A burst of writes: updates (which move atoms to the back of the
  /// head), deletes with their link cascades, link erasures, and fresh
  /// atoms wired into the graph. Conflicts and misses are skipped — the
  /// point is to leave versions behind, not to succeed at every step.
  void Churn(int steps, Transaction* txn) {
    for (int i = 0; i < steps; ++i) {
      const char* type = Chance(0.5) ? "b" : (Chance(0.5) ? "a" : "c");
      switch (std::uniform_int_distribution<int>(0, 3)(rng_)) {
        case 0:
          (void)db.UpdateAtom(type, Pick(type), {Value(RandomValue())}, txn);
          break;
        case 1:
          (void)db.DeleteAtom(type, Pick(type), txn);
          break;
        case 2: {
          const char* lt = Chance(0.5) ? "bc" : "bb";
          (void)db.EraseLink(lt, Pick("b"), Pick(lt[1] == 'c' ? "c" : "b"),
                             txn);
          break;
        }
        default: {
          AtomId fresh = InsertAtom("c", txn);
          (void)db.InsertLink("bc", Pick("b"), fresh, txn);
          (void)db.InsertLink("ac", Pick("a"), fresh, txn);
          break;
        }
      }
    }
  }

  Database db{"REFERENCE_DB"};
  std::map<std::string, std::vector<AtomId>> ids;

 private:
  std::mt19937 rng_;
};

struct Shape {
  std::string name;
  std::vector<MoleculeNode> nodes;
  std::vector<DirectedLink> links;
};

std::vector<Shape> Shapes() {
  auto node = [](const char* type, const char* label) {
    return MoleculeNode{type, label, std::nullopt};
  };
  return {
      {"chain", {node("a", "a"), node("b", "b"), node("c", "c")},
       {{"ab", "a", "b", false}, {"bc", "b", "c", false}}},
      // c has two in-edges: conjunctive containment.
      {"conjunctive", {node("a", "a"), node("b", "b"), node("c", "c")},
       {{"ab", "a", "b", false}, {"ac", "a", "c", false},
        {"bc", "b", "c", false}}},
      {"reverse", {node("c", "c"), node("b", "b"), node("a", "a")},
       {{"bc", "c", "b", true}, {"ab", "b", "a", true}}},
      {"reflexive", {node("b", "top"), node("b", "sub"), node("c", "c")},
       {{"bb", "top", "sub", false}, {"bc", "sub", "c", false}}},
      {"reflexive_up", {node("b", "low"), node("b", "up")},
       {{"bb", "low", "up", true}}},
      {"empty_occurrence", {node("a", "a"), node("d", "d"), node("b", "b")},
       {{"ad", "a", "d", false}, {"ab", "a", "b", false}}},
  };
}

MoleculeDescription Build(const Database& db, const Shape& shape) {
  auto md = MoleculeDescription::Create(db, shape.nodes, shape.links);
  EXPECT_TRUE(md.ok()) << shape.name << ": " << md.status();
  return *std::move(md);
}

/// Derives `md` at `view` on every parallelism and checks each run against
/// the reference, the occurrence order of the roots, and the other runs.
void CheckAgainstReference(const Database& db, const MoleculeDescription& md,
                           const std::optional<ReadView>& view,
                           const std::string& context) {
  SCOPED_TRACE(context);
  const std::vector<uint64_t> roots =
      Occurrence(db, md.root_node().type_name, view);
  std::optional<std::vector<Molecule>> first;
  std::optional<DerivationStats> first_stats;
  for (unsigned parallelism : kParallelisms) {
    DerivationOptions options(parallelism);
    options.view = view.value_or(kHeadView);
    DerivationStats stats;
    auto molecules = DeriveMolecules(db, md, options, &stats);
    ASSERT_TRUE(molecules.ok()) << molecules.status();
    ASSERT_EQ(molecules->size(), roots.size());
    for (size_t i = 0; i < roots.size(); ++i) {
      const Molecule& m = (*molecules)[i];
      ASSERT_EQ(m.root().value, roots[i]) << "root order at " << i;
      const SetMolecule expected = Reference(db, md, roots[i], view);
      EXPECT_EQ(ToSets(m), expected)
          << "engine:    " << Describe(ToSets(m))
          << "\nreference: " << Describe(expected);
      if (!view.has_value()) {
        EXPECT_TRUE(ValidateMolecule(db, md, m).ok())
            << ValidateMolecule(db, md, m);
      }
    }
    if (!first.has_value()) {
      first = std::move(*molecules);
      first_stats = stats;
      continue;
    }
    for (size_t i = 0; i < first->size(); ++i) {
      EXPECT_TRUE(ExactlyEqual((*first)[i], (*molecules)[i]))
          << "molecule " << i << " differs at parallelism " << parallelism;
    }
    EXPECT_EQ(stats.atoms_visited, first_stats->atoms_visited);
    EXPECT_EQ(stats.links_scanned, first_stats->links_scanned);
  }
  // DeriveForRoots in reverse order and DeriveFor agree with DeriveAll.
  std::vector<AtomId> reversed;
  for (auto it = roots.rbegin(); it != roots.rend(); ++it) {
    reversed.push_back(AtomId{*it});
  }
  DerivationOptions options(1);
  options.view = view.value_or(kHeadView);
  auto engine = DerivationEngine::Create(db, md, options);
  ASSERT_TRUE(engine.ok()) << engine.status();
  auto some = engine->DeriveForRoots(reversed);
  ASSERT_TRUE(some.ok()) << some.status();
  ASSERT_EQ(some->size(), first->size());
  for (size_t i = 0; i < some->size(); ++i) {
    EXPECT_TRUE(ExactlyEqual((*some)[i], (*first)[first->size() - 1 - i]));
  }
  if (!roots.empty()) {
    auto one = engine->DeriveFor(AtomId{roots.back()});
    ASSERT_TRUE(one.ok()) << one.status();
    EXPECT_TRUE(ExactlyEqual(*one, first->back()));
  }
}

/// Pushed node filter + residual program versus deriving everything and
/// restricting afterwards (Def. 10 Σ): the same molecules in the same
/// order, at every parallelism.
void CheckPushdown(const Database& db, const MoleculeDescription& md,
                   const std::string& filter_label,
                   const std::optional<ReadView>& view,
                   const std::string& context) {
  SCOPED_TRACE(context + " / pushdown on " + filter_label);
  const std::string last = md.nodes().back().label;
  const e::ExprPtr node_predicate =
      e::Gt(e::Attr(filter_label, "v"), e::Lit(int64_t{40}));
  const e::ExprPtr residual =
      e::Le(e::Attr(md.root_label(), "v"),
            e::Add(e::Attr(last, "v"), e::Lit(int64_t{30})));
  auto node_program =
      e::CompiledPredicate::Compile(db, md, node_predicate,
                                    view.value_or(kHeadView));
  ASSERT_TRUE(node_program.ok()) << node_program.status();
  auto residual_program = e::CompiledPredicate::Compile(
      db, md, residual, view.value_or(kHeadView));
  ASSERT_TRUE(residual_program.ok()) << residual_program.status();

  DerivationOptions all_options(1);
  all_options.view = view.value_or(kHeadView);
  auto all = DeriveMolecules(db, md, all_options);
  ASSERT_TRUE(all.ok()) << all.status();
  MoleculeType everything("all", md, *std::move(all));
  auto restricted = RestrictMolecules(db, everything,
                                      e::And(node_predicate, residual),
                                      "restricted", view.value_or(kHeadView));
  ASSERT_TRUE(restricted.ok()) << restricted.status();

  for (unsigned parallelism : kParallelisms) {
    DerivationOptions options(parallelism);
    options.view = view.value_or(kHeadView);
    options.node_filters.emplace_back(*md.NodeIndex(filter_label),
                                      &*node_program);
    options.residual = &*residual_program;
    DerivationStats stats;
    auto pushed = DeriveMolecules(db, md, options, &stats);
    ASSERT_TRUE(pushed.ok()) << pushed.status();
    const std::vector<Molecule>& expected = restricted->molecules();
    ASSERT_EQ(pushed->size(), expected.size()) << "parallelism " << parallelism;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_TRUE(ExactlyEqual((*pushed)[i], expected[i]))
          << "molecule " << i << " at parallelism " << parallelism;
    }
    EXPECT_EQ(stats.roots - stats.molecules_rejected, expected.size());
  }
}

void CheckEveryShape(const Database& db, const std::optional<ReadView>& view,
                     const std::string& context) {
  for (const Shape& shape : Shapes()) {
    const MoleculeDescription md = Build(db, shape);
    CheckAgainstReference(db, md, view, context + " / " + shape.name);
    CheckPushdown(db, md, md.nodes()[1].label, view,
                  context + " / " + shape.name);
  }
}

TEST(DerivationReferenceTest, HeadMatchesDef6OnRandomDatabases) {
  for (uint32_t seed : {1u, 2u, 3u, 4u, 5u}) {
    RandomDb r(seed);
    ReaderLock lock(r.db.mutex());
    CheckEveryShape(r.db, std::nullopt, "seed " + std::to_string(seed));
  }
}

TEST(DerivationReferenceTest, PinnedViewsMatchDef6OverArchivedAndPending) {
  for (uint32_t seed : {11u, 12u, 13u}) {
    RandomDb r(seed);
    const std::string ctx = "seed " + std::to_string(seed);
    // Pin before the churn: every later write leaves an archived version
    // (or a pending one) that this view must not see.
    EpochPin old_pin = [&] {
      ReaderLock lock(r.db.mutex());
      return r.db.PinEpoch();
    }();
    r.Churn(25, nullptr);
    std::unique_ptr<Transaction> txn = r.db.Begin();
    r.Churn(12, txn.get());

    ReaderLock lock(r.db.mutex());
    EpochPin now_pin = r.db.PinEpoch();
    CheckEveryShape(r.db, old_pin.view(), ctx + " / old pin");
    // The current epoch with another transaction's writes pending.
    CheckEveryShape(r.db, now_pin.view(), ctx + " / current pin");
    // The writing transaction sees its own pending versions.
    CheckEveryShape(r.db, txn->view(), ctx + " / own writes");
    // The head itself, pending versions included.
    CheckEveryShape(r.db, std::nullopt, ctx + " / head");
    lock.Unlock();
    ASSERT_TRUE(txn->Rollback().ok());
  }
}

TEST(DerivationReferenceTest,
     DefaultOptionsReadTheHeadWhileATransactionIsOpen) {
  for (uint32_t seed : {21u, 22u, 23u}) {
    RandomDb r(seed);
    r.Churn(20, nullptr);
    // Another transaction's pending writes sit in the head; default options
    // name no view and must read exactly that head, pending versions
    // included.
    std::unique_ptr<Transaction> txn = r.db.Begin();
    r.Churn(12, txn.get());
    {
      ReaderLock lock(r.db.mutex());
      for (const Shape& shape : Shapes()) {
        SCOPED_TRACE("seed " + std::to_string(seed) + " / " + shape.name);
        const MoleculeDescription md = Build(r.db, shape);
        const std::vector<uint64_t> roots =
            Occurrence(r.db, md.root_node().type_name, std::nullopt);
        auto molecules = DeriveMolecules(r.db, md);
        ASSERT_TRUE(molecules.ok()) << molecules.status();
        ASSERT_EQ(molecules->size(), roots.size());
        for (size_t i = 0; i < roots.size(); ++i) {
          const Molecule& m = (*molecules)[i];
          ASSERT_EQ(m.root().value, roots[i]) << "root order at " << i;
          const SetMolecule expected =
              Reference(r.db, md, roots[i], std::nullopt);
          EXPECT_EQ(ToSets(m), expected)
              << "engine:    " << Describe(ToSets(m))
              << "\nreference: " << Describe(expected);
        }
      }
    }
    ASSERT_TRUE(txn->Rollback().ok());
  }
}

/// DerivationStats are part of the output contract (EXPLAIN ANALYZE and
/// SHOW METRICS report them). Pinned for one seed; the counts were
/// captured from the CSR-snapshot engine this one replaced.
TEST(DerivationReferenceTest, StatsArePinnedForAFixedSeed) {
  RandomDb r(7);
  EpochPin old_pin = [&] {
    ReaderLock lock(r.db.mutex());
    return r.db.PinEpoch();
  }();
  r.Churn(20, nullptr);
  ReaderLock lock(r.db.mutex());
  struct Expected {
    const char* shape;
    bool pinned;
    bool filtered;
    size_t atoms_visited;
    size_t links_scanned;
    size_t rejected;
  };
  const Expected expected[] = {
      {"chain", false, false, 18, 26, 0},
      {"chain", true, true, 42, 75, 3},
      {"conjunctive", false, false, 33, 60, 0},
      {"conjunctive", true, true, 45, 95, 3},
      {"reverse", false, false, 49, 68, 0},
      {"reverse", true, true, 69, 120, 1},
      {"reflexive", false, false, 65, 138, 0},
      {"reflexive", true, true, 82, 180, 3},
      {"reflexive_up", false, false, 28, 38, 0},
      {"reflexive_up", true, true, 37, 52, 0},
      {"empty_occurrence", false, false, 10, 10, 0},
      {"empty_occurrence", true, true, 7, 0, 7},
      {"chain", false, true, 18, 26, 3},
      {"conjunctive", true, false, 56, 120, 0},
  };
  std::map<std::string, Shape> shapes;
  for (const Shape& shape : Shapes()) shapes[shape.name] = shape;
  for (const Expected& want : expected) {
    const MoleculeDescription md = Build(r.db, shapes[want.shape]);
    std::optional<ReadView> view;
    if (want.pinned) view = old_pin.view();
    const std::string label = md.nodes()[1].label;
    auto program = e::CompiledPredicate::Compile(
        r.db, md, e::Gt(e::Attr(label, "v"), e::Lit(int64_t{40})),
        view.value_or(kHeadView));
    ASSERT_TRUE(program.ok()) << program.status();
    DerivationOptions options(1);
    options.view = view.value_or(kHeadView);
    if (want.filtered) {
      options.node_filters.emplace_back(*md.NodeIndex(label), &*program);
    }
    DerivationStats stats;
    ASSERT_TRUE(DeriveMolecules(r.db, md, options, &stats).ok());
    SCOPED_TRACE(std::string(want.shape) + (want.pinned ? " pinned" : " head") +
                 (want.filtered ? " filtered" : ""));
    EXPECT_EQ(stats.atoms_visited, want.atoms_visited);
    EXPECT_EQ(stats.links_scanned, want.links_scanned);
    EXPECT_EQ(stats.molecules_rejected, want.rejected);
  }
}

}  // namespace
}  // namespace mad
