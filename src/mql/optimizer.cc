#include "mql/optimizer.h"

#include <algorithm>
#include <map>
#include <set>

namespace mad {
namespace mql {

namespace {

/// Resolves one attribute reference to a node index, mirroring the
/// qualification resolution rules (label first, unique type name, unique
/// unqualified attribute).
Result<size_t> ResolveRef(const Database& db, const MoleculeDescription& md,
                          const expr::Expr& ref) {
  if (!ref.qualifier().empty()) return md.ResolveQualifier(ref.qualifier());

  const size_t kNone = static_cast<size_t>(-1);
  size_t hit = kNone;
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    if (!at->description().HasAttribute(ref.attribute())) continue;
    if (md.nodes()[i].attributes.has_value()) {
      const auto& visible = *md.nodes()[i].attributes;
      if (std::find(visible.begin(), visible.end(), ref.attribute()) ==
          visible.end()) {
        continue;
      }
    }
    if (hit != kNone) {
      return Status::InvalidArgument("ambiguous attribute '" +
                                     ref.attribute() + "'");
    }
    hit = i;
  }
  if (hit == kNone) {
    return Status::NotFound("attribute '" + ref.attribute() +
                            "' occurs in no node");
  }
  return hit;
}

/// Attribute references bind nodes; COUNT(x) and FORALL x(...) bind their
/// quantified node even without attribute references underneath.
Status CollectNodeRefs(const Database& db, const MoleculeDescription& md,
                       const expr::Expr& node, std::set<size_t>* out) {
  switch (node.kind()) {
    case expr::Expr::Kind::kAttrRef: {
      MAD_ASSIGN_OR_RETURN(size_t idx, ResolveRef(db, md, node));
      out->insert(idx);
      return Status::OK();
    }
    case expr::Expr::Kind::kCount: {
      MAD_ASSIGN_OR_RETURN(size_t idx, md.ResolveQualifier(node.qualifier()));
      out->insert(idx);
      return Status::OK();
    }
    case expr::Expr::Kind::kForAll: {
      MAD_ASSIGN_OR_RETURN(size_t idx, md.ResolveQualifier(node.qualifier()));
      out->insert(idx);
      return CollectNodeRefs(db, md, *node.left(), out);
    }
    default:
      if (node.left() != nullptr) {
        MAD_RETURN_IF_ERROR(CollectNodeRefs(db, md, *node.left(), out));
      }
      if (node.right() != nullptr) {
        MAD_RETURN_IF_ERROR(CollectNodeRefs(db, md, *node.right(), out));
      }
      return Status::OK();
  }
}

void CollectConjuncts(const expr::ExprPtr& node,
                      std::vector<expr::ExprPtr>* out) {
  if (node->kind() == expr::Expr::Kind::kAnd) {
    CollectConjuncts(node->left(), out);
    CollectConjuncts(node->right(), out);
    return;
  }
  out->push_back(node);
}

expr::ExprPtr AndAll(const std::vector<expr::ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  expr::ExprPtr result = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    result = expr::And(result, conjuncts[i]);
  }
  return result;
}

/// Matches `attr = literal` / `literal = attr` with `attr` on the root
/// node and an AttributeIndex on the root atom type.
std::optional<IndexSeed> MatchIndexSeed(const Database& db,
                                        const MoleculeDescription& md,
                                        const expr::Expr& conjunct) {
  if (conjunct.kind() != expr::Expr::Kind::kCompare ||
      conjunct.compare_op() != expr::CompareOp::kEq) {
    return std::nullopt;
  }
  const expr::Expr* attr = conjunct.left().get();
  const expr::Expr* lit = conjunct.right().get();
  if (attr->kind() != expr::Expr::Kind::kAttrRef) std::swap(attr, lit);
  if (attr->kind() != expr::Expr::Kind::kAttrRef ||
      lit->kind() != expr::Expr::Kind::kLiteral) {
    return std::nullopt;
  }
  // The conjunct was already classified to the root node, so the reference
  // is known to bind there; only the index lookup can still fail.
  const AttributeIndex* index =
      db.FindIndex(md.root_node().type_name, attr->attribute());
  if (index == nullptr) return std::nullopt;
  IndexSeed seed;
  seed.index = index;
  seed.attribute = attr->attribute();
  seed.value = lit->literal();
  return seed;
}

/// Matches `attr ⊕ literal` / `literal ⊕ attr` with `attr` on the root
/// node: a candidate for the columnar whole-store scan seed.
std::optional<ScanSeed> MatchScanSeed(const Database& db,
                                      const MoleculeDescription& md,
                                      const expr::Expr& conjunct) {
  if (conjunct.kind() != expr::Expr::Kind::kCompare) return std::nullopt;
  const expr::Expr* attr = conjunct.left().get();
  const expr::Expr* lit = conjunct.right().get();
  bool attr_on_left = true;
  if (attr->kind() != expr::Expr::Kind::kAttrRef) {
    std::swap(attr, lit);
    attr_on_left = false;
  }
  if (attr->kind() != expr::Expr::Kind::kAttrRef ||
      lit->kind() != expr::Expr::Kind::kLiteral) {
    return std::nullopt;
  }
  auto at = db.GetAtomType(md.root_node().type_name);
  if (!at.ok()) return std::nullopt;
  auto slot = (*at)->description().IndexOf(attr->attribute());
  if (!slot.ok()) return std::nullopt;
  ScanSeed seed;
  seed.attribute = attr->attribute();
  seed.value_slot = *slot;
  seed.op = conjunct.compare_op();
  seed.value = lit->literal();
  seed.attr_on_left = attr_on_left;
  seed.display = conjunct.ToString();
  return seed;
}

}  // namespace

Result<std::vector<size_t>> ReferencedNodes(const Database& db,
                                            const MoleculeDescription& md,
                                            const expr::Expr& node) {
  std::set<size_t> refs;
  MAD_RETURN_IF_ERROR(CollectNodeRefs(db, md, node, &refs));
  return std::vector<size_t>(refs.begin(), refs.end());
}

Result<PushdownPlan> PlanPredicatePushdown(const Database& db,
                                           const MoleculeDescription& md,
                                           const expr::ExprPtr& predicate,
                                           const ReadView& view) {
  PushdownPlan plan;
  if (predicate == nullptr) return plan;

  MAD_ASSIGN_OR_RETURN(size_t root_idx, md.NodeIndex(md.root_label()));

  std::vector<expr::ExprPtr> conjuncts;
  CollectConjuncts(predicate, &conjuncts);

  // Topological position per node: the engine runs each node's filter as
  // that node's group completes, in this order, and the residual last.
  std::vector<size_t> topo_pos(md.nodes().size());
  for (size_t i = 0; i < md.topo_order().size(); ++i) {
    MAD_ASSIGN_OR_RETURN(size_t idx, md.NodeIndex(md.topo_order()[i]));
    topo_pos[idx] = i;
  }

  // AND evaluates left to right with short-circuit, so which conjunct
  // rejects a molecule — or raises its error — depends on evaluation
  // order. Push only the prefix of single-node conjuncts whose nodes come
  // in topological order; the first multi-node, constant or out-of-order
  // conjunct ends it, and the rest stays residual, in original order.
  std::map<size_t, std::vector<expr::ExprPtr>> per_node;
  std::vector<expr::ExprPtr> residual_side;
  size_t last_pos = 0;
  for (const expr::ExprPtr& conjunct : conjuncts) {
    MAD_ASSIGN_OR_RETURN(std::vector<size_t> nodes,
                         ReferencedNodes(db, md, *conjunct));
    if (residual_side.empty() && nodes.size() == 1 &&
        topo_pos[nodes[0]] >= last_pos) {
      last_pos = topo_pos[nodes[0]];
      per_node[nodes[0]].push_back(conjunct);
    } else {
      residual_side.push_back(conjunct);
    }
  }

  for (const auto& [node_idx, node_conjuncts] : per_node) {
    NodeFilter filter;
    filter.node_index = node_idx;
    filter.predicate = AndAll(node_conjuncts);
    plan.node_filters.push_back(std::move(filter));
  }
  plan.residual = AndAll(residual_side);
  // Root seeds: only the WHERE's first conjunct may pre-filter roots (see
  // ScanSeed); the columnar scan seed only when no index matched. The root
  // comes first in topological order, so a pushed root group always starts
  // with that conjunct. The index and the columns mirror the head, so
  // neither seed applies when the root store's head is not the view.
  auto root_group = per_node.find(root_idx);
  MAD_ASSIGN_OR_RETURN(const AtomType* root_at,
                       db.GetAtomType(md.root_node().type_name));
  if (root_group != per_node.end() &&
      root_at->occurrence().HeadVisibleAt(view)) {
    const expr::Expr& first = *root_group->second.front();
    plan.seed = MatchIndexSeed(db, md, first);
    if (!plan.seed.has_value()) plan.scan_seed = MatchScanSeed(db, md, first);
  }
  return plan;
}

}  // namespace mql
}  // namespace mad
