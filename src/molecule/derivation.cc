#include "molecule/derivation.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "expr/compile.h"
#include "util/digraph.h"
#include "util/id_map.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace mad {

// ---- Description resolution ----------------------------------------------

Result<DerivationEngine> DerivationEngine::Create(const Database& db,
                                                 const MoleculeDescription& md,
                                                 DerivationOptions options) {
  DerivationEngine engine;
  engine.options_ = options;
  const size_t node_count = md.nodes().size();
  engine.nodes_.resize(node_count);
  for (size_t i = 0; i < node_count; ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    Node& node = engine.nodes_[i];
    node.store = &at->occurrence();
    const std::vector<size_t>& ins = md.InLinksOf(md.nodes()[i].label);
    node.in_edges.assign(ins.begin(), ins.end());
  }

  MAD_ASSIGN_OR_RETURN(engine.root_node_, md.NodeIndex(md.root_label()));
  engine.root_type_name_ = md.root_node().type_name;

  engine.node_order_.reserve(md.topo_order().size());
  for (const std::string& label : md.topo_order()) {
    MAD_ASSIGN_OR_RETURN(size_t idx, md.NodeIndex(label));
    engine.node_order_.push_back(idx);
  }

  engine.edges_.reserve(md.links().size());
  for (const DirectedLink& dl : md.links()) {
    Edge edge;
    MAD_ASSIGN_OR_RETURN(edge.from_node, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(edge.to_node, md.NodeIndex(dl.to));
    MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(dl.link_type));
    edge.store = &lt->occurrence();
    edge.direction =
        dl.reverse ? LinkDirection::kBackward : LinkDirection::kForward;
    engine.edges_.push_back(edge);
  }

  // Pushed-down qualification: attach the filters to their nodes and note
  // which nodes must publish rows for some program's binding loops.
  auto adopt = [&](const expr::CompiledPredicate* program) -> Status {
    if (program->node_count() != node_count) {
      return Status::InvalidArgument(
          "pushed predicate program was compiled against a different "
          "description");
    }
    for (size_t n : program->loop_nodes()) engine.nodes_[n].needs_rows = true;
    engine.filtering_ = true;
    return Status::OK();
  };
  for (const auto& [node_idx, program] : options.node_filters) {
    if (program == nullptr) continue;
    if (node_idx >= node_count) {
      return Status::InvalidArgument("pushed filter names node index " +
                                     std::to_string(node_idx) +
                                     " outside the description");
    }
    if (engine.nodes_[node_idx].filter != nullptr) {
      return Status::InvalidArgument(
          "node '" + md.nodes()[node_idx].label +
          "' has more than one pushed filter (conjoin them instead)");
    }
    MAD_RETURN_IF_ERROR(adopt(program));
    engine.nodes_[node_idx].filter = program;
  }
  if (options.residual != nullptr) {
    MAD_RETURN_IF_ERROR(adopt(options.residual));
  }
  return engine;
}

// ---- Per-worker scratch ---------------------------------------------------

/// Per-worker scratch, reused across every root. Everything is sized to the
/// molecules derived so far and reset sparsely per molecule, in time
/// proportional to the molecule, so no O(|occurrence|) state exists.
struct DerivationEngine::Workspace {
  /// One distinct partner atom reached in a node during this molecule.
  struct Candidate {
    AtomId id;
    const Atom* row = nullptr;  // nullptr: not in the node's occurrence
    uint32_t last_edge = 0;     // 1 + last in-edge that reached it
    uint32_t hits = 0;          // in-edges that reached it
    bool contained = false;
  };
  struct NodeScratch {
    std::vector<Candidate> candidates;  // discovery order
    std::vector<uint32_t> group;        // contained candidates, in order
    /// AtomId -> candidates position, built once a second parent reaches
    /// the node (one parent's partners are distinct).
    IdMap index;
    bool indexed = false;

    /// Sparse reset: erases only this molecule's ids from the index.
    void Reset() {
      if (indexed) {
        for (const Candidate& c : candidates) index.Erase(c.id.value);
      }
      indexed = false;
      candidates.clear();
      group.clear();
    }
  };
  /// Per description edge, the partners each contained parent reached, as
  /// candidate positions of the edge's target node: parent k of the
  /// from-group spans targets[offsets[k] .. offsets[k+1]). Replayed by the
  /// link-recording pass so the stores are walked once per molecule.
  struct EdgeScratch {
    std::vector<uint32_t> offsets;
    std::vector<uint32_t> targets;
  };
  std::vector<NodeScratch> nodes;
  std::vector<EdgeScratch> edges;
  std::vector<AtomId> partners;  // PartnersAt scratch
  size_t atoms_visited = 0;
  size_t links_scanned = 0;
  size_t rejected = 0;
  // Pushed-qualification state: one span per description node (published as
  // each group completes), row buffers for looped nodes, and the reusable
  // program scratch. All empty when no filters are pushed.
  std::vector<expr::CompiledPredicate::AtomSpan> spans;
  std::vector<std::vector<const Atom*>> row_buf;
  expr::CompiledPredicate::Scratch scratch;
};

// ---- Derivation of one molecule (Def. 6) ----------------------------------

/// Publishes a completed group to the pushed-qualification spans and runs
/// the node's filter, if any. Returns false to reject the molecule. Called
/// only when filtering: the span array always reflects every group
/// completed so far for this molecule (a program for node i references only
/// node i, and the residual runs when all groups are complete).
Result<bool> DerivationEngine::CompleteNode(size_t node_idx,
                                            Workspace& ws) const {
  expr::CompiledPredicate::AtomSpan& span = ws.spans[node_idx];
  const Workspace::NodeScratch& ns = ws.nodes[node_idx];
  span.size = ns.group.size();
  const Node& node = nodes_[node_idx];
  if (node.needs_rows) {
    std::vector<const Atom*>& buf = ws.row_buf[node_idx];
    buf.clear();
    for (uint32_t member : ns.group) buf.push_back(ns.candidates[member].row);
    span.data = buf.data();
  }
  if (node.filter == nullptr) return true;
  return node.filter->Eval(ws.spans.data(), ws.scratch);
}

/// Grows the maximal molecule for one root atom (the `contained`/`total`
/// semantics of Def. 6). Nodes are processed in topological order, so every
/// parent group is complete before its children are computed; an atom joins
/// a node's group iff it has a contained parent through *every* incoming
/// directed link type (conjunctive ∀-semantics). Only the partner lists of
/// contained atoms are read, so the cost follows the molecule, not the
/// database.
///
/// Pushed filters run as each group completes — a subtree that cannot
/// qualify is pruned before its descendants expand — and the residual
/// program runs before materialization. Rejections return nullopt.
Result<std::optional<Molecule>> DerivationEngine::DeriveOne(
    const Atom* root, Workspace& ws) const {
  if (ws.nodes.empty()) {
    ws.nodes.resize(nodes_.size());
    ws.edges.resize(edges_.size());
    if (filtering_) {
      ws.spans.resize(nodes_.size());
      ws.row_buf.resize(nodes_.size());
    }
  }
  for (Workspace::NodeScratch& ns : ws.nodes) ns.Reset();
  if (filtering_) {
    for (expr::CompiledPredicate::AtomSpan& span : ws.spans) {
      span = expr::CompiledPredicate::AtomSpan{};
    }
  }

  Workspace::NodeScratch& root_scratch = ws.nodes[root_node_];
  root_scratch.candidates.push_back(
      Workspace::Candidate{root->id, root, 0, 0, true});
  root_scratch.group.push_back(0);
  ws.atoms_visited += 1;
  if (filtering_) {
    MAD_ASSIGN_OR_RETURN(bool keep, CompleteNode(root_node_, ws));
    if (!keep) {
      ++ws.rejected;
      return std::optional<Molecule>();
    }
  }

  for (size_t oi = 1; oi < node_order_.size(); ++oi) {
    const size_t node_idx = node_order_[oi];
    Workspace::NodeScratch& ns = ws.nodes[node_idx];
    const Node& node = nodes_[node_idx];
    const std::vector<uint32_t>& ins = node.in_edges;

    for (uint32_t edge_idx : ins) {
      const Edge& edge = edges_[edge_idx];
      const Workspace::NodeScratch& from = ws.nodes[edge.from_node];
      Workspace::EdgeScratch& es = ws.edges[edge_idx];
      es.offsets.assign(1, 0);
      es.targets.clear();
      for (uint32_t parent : from.group) {
        const AtomId parent_id = from.candidates[parent].id;
        const std::vector<AtomId>& partners = edge.store->PartnersAt(
            parent_id, edge.direction, options_.view, &ws.partners);
        if (!ns.indexed && !ns.candidates.empty()) {
          for (size_t i = 0; i < ns.candidates.size(); ++i) {
            ns.index.Assign(ns.candidates[i].id.value, i);
          }
          ns.indexed = true;
        }
        for (AtomId partner : partners) {
          bool inserted = true;
          const uint32_t pos = static_cast<uint32_t>(
              ns.indexed ? ns.index.FindOrInsert(
                               partner.value, ns.candidates.size(), &inserted)
                         : ns.candidates.size());
          if (inserted) {
            ns.candidates.push_back(Workspace::Candidate{
                partner, FindAtom(node, partner), 0, 0, false});
          }
          Workspace::Candidate& c = ns.candidates[pos];
          if (c.row == nullptr) continue;  // not in this node's occurrence
          es.targets.push_back(pos);
          if (c.last_edge == edge_idx + 1) continue;  // dedup per edge
          c.last_edge = edge_idx + 1;
          ++c.hits;
        }
        es.offsets.push_back(static_cast<uint32_t>(es.targets.size()));
      }
      ws.links_scanned += es.targets.size();
    }
    for (uint32_t pos = 0; pos < ns.candidates.size(); ++pos) {
      Workspace::Candidate& c = ns.candidates[pos];
      if (c.row == nullptr) continue;
      ++ws.atoms_visited;
      if (c.hits == ins.size()) {
        c.contained = true;
        ns.group.push_back(pos);
      }
    }
    if (filtering_) {
      MAD_ASSIGN_OR_RETURN(bool keep, CompleteNode(node_idx, ws));
      if (!keep) {
        ++ws.rejected;
        return std::optional<Molecule>();
      }
    }
  }

  if (options_.residual != nullptr) {
    MAD_ASSIGN_OR_RETURN(bool keep,
                         options_.residual->Eval(ws.spans.data(), ws.scratch));
    if (!keep) {
      ++ws.rejected;
      return std::optional<Molecule>();
    }
  }

  Molecule m(root->id, nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Workspace::NodeScratch& ns = ws.nodes[i];
    std::vector<AtomId>& out = m.MutableAtomsOf(i);
    out.reserve(ns.group.size());
    for (uint32_t member : ns.group) out.push_back(ns.candidates[member].id);
  }

  // Record the molecule's links g: every underlying link between contained
  // atoms along a description edge, replayed from the discovery pass.
  size_t link_bound = 0;
  for (const Workspace::EdgeScratch& es : ws.edges) {
    link_bound += es.targets.size();
  }
  m.ReserveLinks(link_bound);
  for (size_t edge_idx = 0; edge_idx < edges_.size(); ++edge_idx) {
    const Edge& edge = edges_[edge_idx];
    const Workspace::EdgeScratch& es = ws.edges[edge_idx];
    const Workspace::NodeScratch& from = ws.nodes[edge.from_node];
    const Workspace::NodeScratch& to = ws.nodes[edge.to_node];
    ws.links_scanned += es.targets.size();
    for (size_t k = 0; k < from.group.size(); ++k) {
      const AtomId parent_id = from.candidates[from.group[k]].id;
      for (uint32_t t = es.offsets[k]; t < es.offsets[k + 1]; ++t) {
        const Workspace::Candidate& c = to.candidates[es.targets[t]];
        if (c.contained) m.AddLink(MoleculeLink{edge_idx, parent_id, c.id});
      }
    }
  }
  return std::optional<Molecule>(std::move(m));
}

// ---- Parallel fan-out -----------------------------------------------------

namespace {

/// Roots each worker needs before an extra thread pays for its job
/// hand-off, so root sets under twice this derive serially (the
/// BM_MoleculeDerivation sweep in EXPERIMENTS.md PERF-FANOUT).
constexpr size_t kRootsPerThread = 200;

}  // namespace

Result<std::vector<Molecule>> DerivationEngine::FanOut(
    const std::vector<const Atom*>& roots, DerivationStats* stats) const {
  size_t wanted = options_.parallelism;
  if (wanted == 0) {
    wanted = std::min<size_t>(ThreadPool::DefaultParallelism(),
                              roots.size() / kRootsPerThread);
  }
  const unsigned parallelism = static_cast<unsigned>(
      std::clamp<size_t>(wanted, 1, std::max<size_t>(1, roots.size())));

  // One span covers the whole fan-out; the per-root hot loop on the worker
  // threads stays span-free (it aggregates into DerivationStats instead).
  ScopedSpan span("derive",
                  std::to_string(parallelism) + " thread" +
                      (parallelism == 1 ? "" : "s"));
  span.set_rows_in(static_cast<int64_t>(roots.size()));

  const auto start = std::chrono::steady_clock::now();

  std::vector<Workspace> workspaces(parallelism);

  // Pre-sized slots keyed by root position: whatever thread derives slot i,
  // the output order is root order — bit-for-bit identical to a serial run.
  // A filter rejection leaves its slot empty; an evaluation error is
  // recorded per worker and the error of the *smallest* root index wins
  // after the join, so the reported status never depends on scheduling.
  std::vector<std::optional<Molecule>> slots(roots.size());
  struct WorkerError {
    size_t index;
    Status status;
  };
  std::vector<std::optional<WorkerError>> worker_errors(parallelism);
  const size_t chunk =
      std::max<size_t>(1, roots.size() / (static_cast<size_t>(parallelism) * 8));
  ThreadPool::Shared().ParallelFor(
      roots.size(), chunk, parallelism,
      [&](unsigned worker, size_t begin, size_t end) {
        Workspace& ws = workspaces[worker];
        for (size_t i = begin; i < end; ++i) {
          Result<std::optional<Molecule>> derived = DeriveOne(roots[i], ws);
          if (!derived.ok()) {
            std::optional<WorkerError>& err = worker_errors[worker];
            if (!err.has_value() || i < err->index) {
              err = WorkerError{i, derived.status()};
            }
            continue;
          }
          slots[i] = std::move(derived).value();
        }
      });

  const WorkerError* first_error = nullptr;
  for (const std::optional<WorkerError>& err : worker_errors) {
    if (err.has_value() &&
        (first_error == nullptr || err->index < first_error->index)) {
      first_error = &*err;
    }
  }
  if (first_error != nullptr) return first_error->status;

  std::vector<Molecule> molecules;
  molecules.reserve(slots.size());
  for (std::optional<Molecule>& slot : slots) {
    if (slot.has_value()) molecules.push_back(std::move(*slot));
  }

  size_t atoms_visited = 0;
  size_t links_scanned = 0;
  size_t rejected = 0;
  for (const Workspace& ws : workspaces) {
    atoms_visited += ws.atoms_visited;
    links_scanned += ws.links_scanned;
    rejected += ws.rejected;
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  if (stats != nullptr) {
    *stats = DerivationStats{};
    stats->roots = roots.size();
    stats->threads_used = parallelism;
    stats->atoms_visited = atoms_visited;
    stats->links_scanned = links_scanned;
    stats->molecules_rejected = rejected;
    stats->wall_ms = wall_ms;
  }

  // Fold the run into the process-wide registry (static refs: the name
  // lookup happens once, the updates are relaxed atomics).
  static Counter& roots_counter =
      Registry::Global().GetCounter("derivation.roots");
  static Counter& atoms_counter =
      Registry::Global().GetCounter("derivation.atoms_visited");
  static Counter& links_counter =
      Registry::Global().GetCounter("derivation.links_scanned");
  static Counter& rejected_counter =
      Registry::Global().GetCounter("derivation.rejected");
  static Histogram& wall_hist =
      Registry::Global().GetHistogram("derivation.fanout_us");
  roots_counter.Add(roots.size());
  atoms_counter.Add(atoms_visited);
  links_counter.Add(links_scanned);
  rejected_counter.Add(rejected);
  wall_hist.Observe(static_cast<uint64_t>(wall_ms * 1000.0));

  span.set_rows_out(static_cast<int64_t>(molecules.size()));
  return molecules;
}

Result<std::vector<Molecule>> DerivationEngine::DeriveAll(
    DerivationStats* stats) const {
  return FanOut(nodes_[root_node_].store->SnapshotAt(options_.view), stats);
}

Result<std::vector<Molecule>> DerivationEngine::DeriveForRoots(
    const std::vector<AtomId>& roots, DerivationStats* stats) const {
  // Validate every root before deriving anything, and report all offenders
  // in one message instead of failing at the first mid-loop.
  std::vector<const Atom*> rows;
  rows.reserve(roots.size());
  std::string bad;
  size_t bad_count = 0;
  for (AtomId root : roots) {
    const Atom* row = FindAtom(nodes_[root_node_], root);
    if (row == nullptr) {
      if (!bad.empty()) bad += ", ";
      bad += "#" + std::to_string(root.value);
      ++bad_count;
      continue;
    }
    rows.push_back(row);
  }
  if (bad_count > 0) {
    return Status::NotFound(
        (bad_count == 1 ? "atom " + bad + " is" : "atoms " + bad + " are") +
        " not in root atom type '" + root_type_name_ + "'");
  }
  return FanOut(rows, stats);
}

Result<Molecule> DerivationEngine::DeriveFor(AtomId root,
                                             DerivationStats* stats) const {
  const Atom* row = FindAtom(nodes_[root_node_], root);
  if (row == nullptr) {
    return Status::NotFound("atom #" + std::to_string(root.value) +
                            " is not in root atom type '" + root_type_name_ +
                            "'");
  }
  Workspace ws;
  MAD_ASSIGN_OR_RETURN(std::optional<Molecule> m, DeriveOne(row, ws));
  if (!m.has_value()) {
    return Status::NotFound("molecule #" + std::to_string(root.value) +
                            " was rejected by pushed-down qualification");
  }
  if (stats != nullptr) {
    *stats = DerivationStats{};
    stats->roots = 1;
    stats->threads_used = 1;
    stats->atoms_visited = ws.atoms_visited;
    stats->links_scanned = ws.links_scanned;
  }
  return *std::move(m);
}

// ---- Free-function façade --------------------------------------------------

Result<std::vector<Molecule>> DeriveMolecules(const Database& db,
                                              const MoleculeDescription& md,
                                              const DerivationOptions& options,
                                              DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  return engine.DeriveAll(stats);
}

Result<Molecule> DeriveMoleculeFor(const Database& db,
                                   const MoleculeDescription& md,
                                   AtomId root) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md));
  return engine.DeriveFor(root);
}

Result<std::vector<Molecule>> DeriveMoleculesForRoots(
    const Database& db, const MoleculeDescription& md,
    const std::vector<AtomId>& roots, const DerivationOptions& options,
    DerivationStats* stats) {
  MAD_ASSIGN_OR_RETURN(DerivationEngine engine,
                       DerivationEngine::Create(db, md, options));
  return engine.DeriveForRoots(roots, stats);
}

Result<MoleculeType> DefineMoleculeType(const Database& db, std::string name,
                                        MoleculeDescription md,
                                        const DerivationOptions& options,
                                        DerivationStats* stats) {
  if (name.empty()) {
    return Status::InvalidArgument("molecule type name must be non-empty");
  }
  MAD_ASSIGN_OR_RETURN(std::vector<Molecule> molecules,
                       DeriveMolecules(db, md, options, stats));
  return MoleculeType(std::move(name), std::move(md), std::move(molecules));
}

Status ValidateMolecule(const Database& db, const MoleculeDescription& md,
                        const Molecule& molecule) {
  if (molecule.node_count() != md.nodes().size()) {
    return Status::InvalidArgument(
        "molecule has a different node count than its description");
  }
  MAD_ASSIGN_OR_RETURN(size_t root_idx, md.NodeIndex(md.root_label()));

  // The root group holds exactly the root atom.
  const std::vector<AtomId>& root_group = molecule.AtomsOf(root_idx);
  if (root_group.size() != 1 || root_group[0] != molecule.root()) {
    return Status::ConstraintViolation(
        "molecule root group must hold exactly the root atom");
  }

  // Every atom exists under its node's atom type.
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    MAD_ASSIGN_OR_RETURN(const AtomType* at,
                         db.GetAtomType(md.nodes()[i].type_name));
    for (AtomId id : molecule.AtomsOf(i)) {
      if (!at->occurrence().Contains(id)) {
        return Status::ConstraintViolation(
            "molecule atom #" + std::to_string(id.value) +
            " is not in atom type '" + md.nodes()[i].type_name + "'");
      }
    }
  }

  // Every link is realised in the database with the right orientation and
  // connects contained atoms; build the instance graph along the way.
  Digraph instance;
  auto node_key = [](size_t node_idx, AtomId id) {
    return std::to_string(node_idx) + ":" + std::to_string(id.value);
  };
  for (size_t i = 0; i < md.nodes().size(); ++i) {
    for (AtomId id : molecule.AtomsOf(i)) instance.AddNode(node_key(i, id));
  }
  for (const MoleculeLink& link : molecule.links()) {
    if (link.edge_index >= md.links().size()) {
      return Status::ConstraintViolation("molecule link has bad edge index");
    }
    const DirectedLink& dl = md.links()[link.edge_index];
    MAD_ASSIGN_OR_RETURN(size_t from_idx, md.NodeIndex(dl.from));
    MAD_ASSIGN_OR_RETURN(size_t to_idx, md.NodeIndex(dl.to));
    if (!molecule.ContainsAtom(from_idx, link.parent) ||
        !molecule.ContainsAtom(to_idx, link.child)) {
      return Status::ConstraintViolation(
          "molecule link endpoints are not molecule atoms");
    }
    MAD_ASSIGN_OR_RETURN(const LinkType* lt, db.GetLinkType(dl.link_type));
    bool present = dl.reverse
                       ? lt->occurrence().Contains(link.child, link.parent)
                       : lt->occurrence().Contains(link.parent, link.child);
    if (!present) {
      return Status::ConstraintViolation(
          "molecule link is not present in link type '" + dl.link_type + "'");
    }
    MAD_RETURN_IF_ERROR(instance.AddEdge(dl.link_type,
                                         node_key(from_idx, link.parent),
                                         node_key(to_idx, link.child)));
  }

  // mv_graph: the instance graph is a coherent DAG rooted at the root atom.
  MAD_ASSIGN_OR_RETURN(std::string instance_root, instance.CheckRootedDag());
  if (instance_root != node_key(root_idx, molecule.root())) {
    return Status::ConstraintViolation(
        "molecule instance graph is not rooted at the root atom");
  }
  return Status::OK();
}

}  // namespace mad
