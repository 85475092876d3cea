#ifndef MAD_MQL_OPTIMIZER_H_
#define MAD_MQL_OPTIMIZER_H_

#include <optional>
#include <string>
#include <vector>

#include "core/value.h"
#include "expr/expr.h"
#include "molecule/description.h"
#include "storage/database.h"
#include "storage/index.h"
#include "storage/version.h"
#include "util/result.h"

namespace mad {
namespace mql {

/// The WHERE conjuncts decidable on one description node alone, AND-joined
/// in their original order. The derivation engine evaluates the predicate
/// the moment the node's group completes, rejecting the molecule before
/// downstream nodes expand.
struct NodeFilter {
  size_t node_index = 0;
  expr::ExprPtr predicate;
};

/// A root equality conjunct `root.attr = literal` matched against an
/// existing AttributeIndex: derivation seeds its root set from the index
/// bucket instead of scanning the whole occurrence. Only the WHERE's
/// *first* conjunct qualifies, for the reason ScanSeed gives. The root's
/// node filter still verifies the conjunct, so the seed only narrows the
/// fan-out.
struct IndexSeed {
  const AttributeIndex* index = nullptr;
  std::string attribute;
  Value value;
};

/// A root comparison conjunct `attr ⊕ literal` evaluated column-at-a-time
/// over the whole root occurrence: derivation seeds its root set from the
/// batch kernel's pass bitmap instead of deriving-then-filtering every
/// root. Only the WHERE's *first* conjunct qualifies — AND evaluates left
/// to right with short-circuit, so dropping rows the first conjunct rejects
/// cannot suppress a later conjunct's runtime error — and the session
/// applies the seed only when the kernel reports zero error rows and the
/// root column is regular (the planner offers it only when the head is the
/// view). The root's node filter still verifies the conjunct, so the seed
/// only narrows.
struct ScanSeed {
  std::string attribute;
  size_t value_slot = 0;
  expr::CompareOp op = expr::CompareOp::kEq;
  Value value;
  bool attr_on_left = true;
  /// The conjunct as written, for EXPLAIN.
  std::string display;
};

/// A WHERE predicate split for qualification pushdown (the restriction
/// rewrite the paper's outlook anticipates: "exploit the algebra to ...
/// enhance query transformation and query optimization").
struct PushdownPlan {
  /// The pushed prefix of the WHERE — single-node conjuncts whose nodes
  /// come in topological order — grouped per node, ascending node index.
  /// The root node's filter (if any) is an ordinary entry.
  std::vector<NodeFilter> node_filters;
  /// The conjuncts after that prefix, AND-joined in original order; null
  /// when everything was pushed.
  expr::ExprPtr residual;
  /// Root-index seed, when the WHERE's first conjunct is a usable root
  /// equality.
  std::optional<IndexSeed> seed;
  /// Columnar whole-store scan seed; used only when `seed` is absent (an
  /// index bucket beats a full-column scan).
  std::optional<ScanSeed> scan_seed;

  bool HasPushdown() const {
    return !node_filters.empty() || seed.has_value() || scan_seed.has_value();
  }
};

/// Splits the top-level conjunction of `predicate` per description node: a
/// conjunct whose references (attributes, COUNT and FORALL quantifiers) all
/// bind to one node becomes that node's filter, as long as every conjunct
/// before it was pushed and its node does not precede theirs in
/// topological order. Everything else — mixed conjuncts, disjunctions over
/// several nodes, constants, and whatever follows them — stays residual,
/// so pushed and unpushed plans evaluate conjuncts in the same order and
/// raise the same errors. Root seeds are planned only when the root
/// store's head is visible at `view` (the head by default): the index and
/// the columns they read mirror the head. A null predicate yields an empty
/// plan.
Result<PushdownPlan> PlanPredicatePushdown(const Database& db,
                                           const MoleculeDescription& md,
                                           const expr::ExprPtr& predicate,
                                           const ReadView& view = kHeadView);

/// Description node indices referenced by `node` — attribute references
/// plus COUNT/FORALL quantifiers — sorted and unique. Resolution mirrors
/// the qualification rules (label first, unique type name, unique
/// unqualified attribute), so a predicate the qualifier accepts always
/// classifies.
Result<std::vector<size_t>> ReferencedNodes(const Database& db,
                                            const MoleculeDescription& md,
                                            const expr::Expr& node);

}  // namespace mql
}  // namespace mad

#endif  // MAD_MQL_OPTIMIZER_H_
