#ifndef MAD_MOLECULE_DERIVATION_H_
#define MAD_MOLECULE_DERIVATION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "molecule/molecule_type.h"
#include "molecule/statistics.h"
#include "storage/database.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {

namespace expr {
class CompiledPredicate;
}  // namespace expr

/// Tuning knobs of the derivation engine.
struct DerivationOptions {
  DerivationOptions() = default;
  explicit DerivationOptions(unsigned p) : parallelism(p) {}

  /// Worker threads for the per-root fan-out (the calling thread counts as
  /// one). 0, what every production caller passes, lets the engine size the
  /// fan-out from the root count: serial for small root sets, up to
  /// hardware_concurrency for large ones. A nonzero count pins it — a seam
  /// for tests and benches. Output is bit-for-bit identical at every
  /// setting: molecules land in pre-sized root-order slots, and the
  /// per-root derivation itself is single-threaded.
  unsigned parallelism = 0;
  /// Pushed-down qualification: (node index, compiled program) pairs, at
  /// most one per node. Each program must reference only its own node
  /// (attributes or COUNT of that node — the optimizer's single-node
  /// conjuncts); it is evaluated the moment the node's group completes
  /// during derivation, and a false verdict (or error) rejects the whole
  /// molecule before downstream nodes expand. Because a group depends only
  /// on its ancestors (Def. 6 grows top-down), the verdict is identical to
  /// evaluating the conjunct on the fully derived molecule — pushdown
  /// changes *when* molecules are discarded, never *which*.
  std::vector<std::pair<size_t, const expr::CompiledPredicate*>> node_filters;
  /// Molecule-level residue of the WHERE clause (multi-node conjuncts,
  /// disjunctions, FORALL across nodes): evaluated over the completed
  /// groups inside the fan-out, before materialization.
  const expr::CompiledPredicate* residual = nullptr;
  // The compiled programs are borrowed and must outlive every derive call.
  /// The view derivation reads at (DESIGN.md §11); pushed programs must be
  /// compiled at the same view. The default, kHeadView, reads the head;
  /// the stores answer any view the head is visible at from the head alone.
  ReadView view = kHeadView;
};

/// The derivation engine behind m_dom (Def. 6): a molecule description
/// resolved against one database — store pointers, topological node order,
/// in-edges and pushed filters, O(|description|) to build. Each molecule is
/// then grown by walking the stores directly from its own root
/// (LinkStore::PartnersAt for each contained parent, AtomStore::FindVersionAt
/// for membership and filter rows, both at the options' view), so deriving
/// one molecule costs about one molecule, whatever the database size.
///
/// Lock contract: the engine borrows the stores. From Create() to the last
/// derive call the caller holds the database's shared lock (the MQL session
/// does, for the whole statement) or is the only thread touching the
/// database, and nothing mutates it in between. Build a new engine after
/// mutations. Pushed predicate programs carry the same contract.
///
/// Derivation of a large root set fans out over a shared worker pool; each
/// worker owns a scratch workspace keyed by AtomId, sized to the molecule
/// and reset sparsely after each one, and results are written into per-root
/// slots so the output order never depends on thread scheduling.
class DerivationEngine {
 public:
  /// Resolves `md` against `db`; reads no atom or link.
  static Result<DerivationEngine> Create(const Database& db,
                                         const MoleculeDescription& md,
                                         DerivationOptions options = {});

  /// One molecule per root-atom-type atom, in occurrence order (read at
  /// call time). Molecules rejected by pushed filters are omitted (the
  /// survivors keep occurrence order and are bit-identical to
  /// derive-then-restrict).
  Result<std::vector<Molecule>> DeriveAll(DerivationStats* stats = nullptr) const;

  /// Molecules for exactly `roots`, in the given order (filter rejections
  /// omitted). Every root is validated against the root store up front;
  /// invalid ids are reported together in one NotFound status.
  Result<std::vector<Molecule>> DeriveForRoots(
      const std::vector<AtomId>& roots, DerivationStats* stats = nullptr) const;

  /// The single molecule rooted at `root`.
  Result<Molecule> DeriveFor(AtomId root, DerivationStats* stats = nullptr) const;

 private:
  /// One description node resolved against its atom store.
  struct Node {
    const AtomStore* store = nullptr;
    std::vector<uint32_t> in_edges;  // description edge indexes
    /// options_.node_filters entry for this node, or nullptr.
    const expr::CompiledPredicate* filter = nullptr;
    /// Some program's binding loops read this node's rows.
    bool needs_rows = false;
  };
  /// One directed description edge resolved against its link store.
  struct Edge {
    size_t from_node = 0;
    size_t to_node = 0;
    const LinkStore* store = nullptr;
    LinkDirection direction = LinkDirection::kForward;
  };
  struct Workspace;

  DerivationEngine() = default;

  /// The version of `id` in `node`'s store visible to this engine, or
  /// nullptr when the atom is not in the node's occurrence.
  const Atom* FindAtom(const Node& node, AtomId id) const {
    return node.store->FindVersionAt(id, options_.view);
  }
  /// Derives the molecule for one root; nullopt when a pushed filter or the
  /// residual program rejected it, an error status when a program failed to
  /// evaluate.
  Result<std::optional<Molecule>> DeriveOne(const Atom* root,
                                            Workspace& ws) const;
  Result<bool> CompleteNode(size_t node_idx, Workspace& ws) const;
  Result<std::vector<Molecule>> FanOut(const std::vector<const Atom*>& roots,
                                       DerivationStats* stats) const;

  DerivationOptions options_;
  bool filtering_ = false;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<size_t> node_order_;  // node indexes in topo order, root first
  size_t root_node_ = 0;
  std::string root_type_name_;  // for error messages
};

/// The function m_dom (Def. 6): derives every molecule matching `md` from
/// the database's atom networks — one molecule per atom of the root atom
/// type, grown by hierarchical join along the directed link types until the
/// leaves are reached, maximal per the `contained`/`total` predicates.
///
/// Multiple incoming description edges are *conjunctive* (the paper's
/// ∀-quantifier in `contained`): an atom of a node with k incoming directed
/// link types belongs to the molecule only if it is linked to contained
/// parent atoms through every one of the k edges.
Result<std::vector<Molecule>> DeriveMolecules(const Database& db,
                                              const MoleculeDescription& md,
                                              const DerivationOptions& options = {},
                                              DerivationStats* stats = nullptr);

/// Derives the single molecule rooted at `root` (which must be an atom of
/// the root atom type).
Result<Molecule> DeriveMoleculeFor(const Database& db,
                                   const MoleculeDescription& md, AtomId root);

/// Derives only the molecules rooted at `roots` (each must be an atom of
/// the root atom type) — the target of restriction pushdown: when a WHERE
/// conjunct is decidable on root attributes alone, the engine derives just
/// the qualifying roots instead of the whole occurrence. All roots are
/// validated before any derivation starts; a NotFound status names every
/// invalid id at once.
Result<std::vector<Molecule>> DeriveMoleculesForRoots(
    const Database& db, const MoleculeDescription& md,
    const std::vector<AtomId>& roots, const DerivationOptions& options = {},
    DerivationStats* stats = nullptr);

/// The operator molecule-type-definition a[mname, G](C) (Def. 8): pairs a
/// validated description with its derived occurrence.
Result<MoleculeType> DefineMoleculeType(const Database& db, std::string name,
                                        MoleculeDescription md,
                                        const DerivationOptions& options = {},
                                        DerivationStats* stats = nullptr);

/// Checks the mv_graph predicate (Def. 6) on an already-built molecule:
/// the instance graph must be directed, acyclic, coherent, rooted at the
/// molecule's root atom, and each atom/link must exist in the database
/// under the description's types. Used by tests and by Theorem-2 checks.
Status ValidateMolecule(const Database& db, const MoleculeDescription& md,
                        const Molecule& molecule);

}  // namespace mad

#endif  // MAD_MOLECULE_DERIVATION_H_
