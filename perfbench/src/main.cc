// perfbench: the repository benchmark program (README.md in this directory).
//
//   perfbench --workload <geo_point|geo_scan|bom_txn> --seed <n>
//             --seconds <s> --trace <0|1> [--scratch <dir>] [--source-id <id>]
//
// One process: it generates the workload's data, starts an in-process
// MadServer on loopback with default ServerOptions, checks the server's
// replies against a local Session, then drives the server through closed-loop
// Client connections (one thread each) for --seconds. With --trace 1 it then
// replays a prefix of the statement stream serially, timing calls into each
// module's public functions, and reports the per-layer metrics instead of the
// end-to-end ones. The last stdout line is the result JSON.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "expr/compile.h"
#include "molecule/derivation.h"
#include "molecule/recursive.h"
#include "mql/optimizer.h"
#include "mql/parser.h"
#include "mql/sema.h"
#include "mql/session.h"
#include "mql/translator.h"
#include "outcome.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/result_render.h"
#include "server/server.h"
#include "stats.h"
#include "storage/database.h"
#include "storage/durable_database.h"
#include "util/metrics.h"
#include "util/sync.h"
#include "workload/bom.h"
#include "workload/geo.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mad::Database;
using mad::ReaderLock;
using mad::Result;
using mad::Status;
using mad::server::Client;
using mad::server::Message;

// setup_s is the median of at least kMinSetups set-ups, repeated until
// kSetupSeconds have passed (small databases set up in milliseconds).
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupSeconds = 1.0;
constexpr double kWarmupSeconds = 1.0;
constexpr size_t kSampledMolecules = 4;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The host's CPU time stolen from this machine (/proc/stat, steal ÷ all):
/// other tenants' load, which slows every timing and is reported beside it.
struct HostCpu {
  double steal = 0;
  double total = 0;
};
HostCpu ReadHostCpu() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  HostCpu h;
  for (int field = 0; field < 8; ++field) {
    double v = 0;
    stat >> v;
    h.total += v;
    if (field == 7) h.steal = v;
  }
  return h;
}

double CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---------------------------------------------------------------------------
// Set-up

/// One generated database with its server. Destruction stops the server
/// before the database it serves and removes the durable directory.
class Instance {
 public:
  Instance() = default;
  ~Instance() {
    if (server) server->Shutdown();
    server.reset();
    durable.reset();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  Database& database() { return durable ? durable->database() : *memory; }

  std::unique_ptr<Database> memory;
  std::unique_ptr<mad::DurableDatabase> durable;
  std::unique_ptr<mad::server::MadServer> server;
  std::string dir;
  size_t atoms = 0;
  size_t links = 0;
  BomShape shape;
  double generate_rss_bytes = 0.0;
};

/// Counts the BOM's parts per name pattern (root<k>, p<level>_<i>).
BomShape MeasureBomShape(Database& db, int depth) {
  BomShape shape;
  shape.leaf_level = depth;
  ReaderLock lock(db.mutex());
  const mad::AtomType* part = *db.GetAtomType("part");
  const std::string mid = "p" + std::to_string(kMidLevel) + "_";
  const std::string leaf = "p" + std::to_string(depth) + "_";
  for (const mad::Atom& atom : part->occurrence().atoms()) {
    const std::string& name = atom.values[0].AsString();
    if (name.rfind("root", 0) == 0) ++shape.roots;
    if (name.rfind(mid, 0) == 0) ++shape.mids;
    if (name.rfind(leaf, 0) == 0) ++shape.leaves;
  }
  return shape;
}

/// `data_seed` is the generator seed: the run seed on the geo workloads,
/// BomDataSeed(run seed) on bom_txn.
Result<std::unique_ptr<Instance>> SetUp(const WorkloadSpec& spec,
                                        uint64_t data_seed,
                                        const std::string& dir) {
  auto inst = std::make_unique<Instance>();
  double rss_before = CurrentRssBytes();
  if (spec.kind == WorkloadKind::kBomTxn) {
    inst->dir = dir;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    mad::DurabilityOptions options;
    options.sync = false;  // WAL written to the OS, never fsync'd
    MAD_ASSIGN_OR_RETURN(inst->durable,
                         mad::DurableDatabase::Open(dir, options));
    MAD_ASSIGN_OR_RETURN(mad::workload::BomStats stats,
                         mad::workload::GenerateBom(
                             inst->database(), BomScaleOf(spec, data_seed)));
    inst->atoms = stats.parts;
    inst->links = stats.links;
    MAD_RETURN_IF_ERROR(inst->database().CreateIndex("part", "name"));
    inst->shape = MeasureBomShape(inst->database(), spec.bom_depth);
  } else {
    inst->memory = std::make_unique<Database>("GEO");
    mad::workload::GeoScale scale;
    scale.states = spec.geo_states;
    scale.seed = data_seed;
    MAD_ASSIGN_OR_RETURN(
        mad::workload::GeoStats stats,
        mad::workload::GenerateScaledGeo(inst->database(), scale));
    inst->atoms = stats.atoms;
    inst->links = stats.links;
    if (spec.kind == WorkloadKind::kGeoPoint) {
      MAD_RETURN_IF_ERROR(inst->database().CreateIndex("state", "name"));
    }
  }
  inst->generate_rss_bytes = CurrentRssBytes() - rss_before;
  inst->server = std::make_unique<mad::server::MadServer>(
      &inst->database(), mad::server::ServerOptions{}, inst->durable.get());
  MAD_RETURN_IF_ERROR(inst->server->Start());
  return inst;
}

// ---------------------------------------------------------------------------
// Output checks

struct Checks {
  std::vector<std::string> failures;
  void Fail(const std::string& name, const std::string& detail) {
    failures.push_back(name + ": " + detail);
  }
  bool ok() const { return failures.empty(); }
};

/// The derivation footer ("derived N molecules: ..., 0.41 ms") carries the
/// one wall-clock figure of a rendering; mask it so the rest of the reply
/// compares byte for byte.
std::string MaskWallClock(const std::string& rendered) {
  std::string out;
  std::istringstream lines(rendered);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("derived ", 0) == 0) {
      size_t ms = line.find(" ms");
      size_t start = line.rfind(", ", ms);
      if (ms != std::string::npos && start != std::string::npos) {
        line = line.substr(0, start + 2) + "#" + line.substr(ms);
      }
    }
    out += line + "\n";
  }
  return out;
}

/// Sends the workload's check set over the wire and compares each reply
/// with a local Session's rendering; validates a seeded sample of the
/// returned molecules against Def. 6. Returns the derivation thread count
/// the sessions actually used (0 if no statement derived molecules).
unsigned CheckWireAgainstLocal(Instance& inst, const WorkloadSpec& spec,
                               uint64_t seed, Checks& checks) {
  Database& db = inst.database();
  Client client;
  Status connected = client.Connect("127.0.0.1", inst.server->port(), "check");
  if (!connected.ok()) {
    checks.Fail("wire_matches_local", connected.ToString());
    return 0;
  }
  mad::mql::Session local(&db);
  StatementStream stream(spec, inst.shape, seed, kCheckStream);
  std::mt19937_64 pick(MixSeed(seed, kCheckStream + 1));
  unsigned threads = 0;
  size_t sent = 0;
  while (sent < spec.check_statements) {
    for (const Step& step : stream.Next()) {
      if (step.kind != StepKind::kRead || sent == spec.check_statements) {
        continue;
      }
      ++sent;
      Result<Message> reply = client.Query(step.text);
      Result<mad::mql::QueryResult> result = local.Execute(step.text);
      if (Classify(reply) != Outcome::kOk || !result.ok()) {
        checks.Fail("wire_matches_local",
                    step.text + ": " +
                        (reply.ok() ? reply->text : reply.status().ToString()) +
                        " / " + result.status().ToString());
        continue;
      }
      std::string expected;
      {
        ReaderLock lock(db.mutex());
        expected = mad::server::RenderQueryResult(db, *result);
      }
      if (MaskWallClock(reply->text) != MaskWallClock(expected)) {
        checks.Fail("wire_matches_local", "reply differs for: " + step.text);
      }
      if (result->derivation.has_value()) {
        threads = std::max(threads, result->derivation->threads_used);
      }
      if (result->kind != mad::mql::QueryResult::Kind::kMolecules ||
          result->molecules->empty()) {
        continue;
      }
      const mad::MoleculeType& mt = *result->molecules;
      ReaderLock lock(db.mutex());
      for (size_t i = 0; i < kSampledMolecules; ++i) {
        const mad::Molecule& m = mt.molecules()[pick() % mt.size()];
        Status valid = mad::ValidateMolecule(db, mt.description(), m);
        if (!valid.ok()) {
          checks.Fail("molecule_valid", step.text + ": " + valid.ToString());
        }
      }
    }
  }
  (void)client.Close();
  return threads;
}

/// Every part's current cost, by name.
std::map<std::string, int64_t> ReadCosts(Database& db) {
  std::map<std::string, int64_t> costs;
  ReaderLock lock(db.mutex());
  const mad::AtomType* part = *db.GetAtomType("part");
  for (const mad::Atom& atom : part->occurrence().atoms()) {
    costs[atom.values[0].AsString()] = atom.values[1].AsInt64();
  }
  return costs;
}

// ---------------------------------------------------------------------------
// The measured window

/// The window is cut into sub-windows; throughput, median latency and CPU
/// per statement are each the median of their sub-window values, so a slow
/// spell of the shared host moves one sub-window, not the result. p99 and
/// the counts use the whole window.
constexpr int kSubWindows = 5;

/// One statement as a connection saw it.
struct Sample {
  Clock::time_point sent;
  Clock::time_point done;
  Outcome outcome;
};

/// One transaction, from BEGIN sent to the COMMIT or ROLLBACK reply.
struct TxnSample {
  Clock::time_point sent;
  Clock::time_point done;
  bool committed;
  bool conflict;  // rolled back after an MQL0601 abort
};

/// Everything one connection saw, warm-up and tail included; the window
/// selects by time afterwards. `acked` counts the increments of every
/// transaction whose COMMIT reply arrived: the ledger check needs them all.
struct ConnLog {
  bool connect_failed = false;
  std::vector<Sample> statements;
  std::vector<TxnSample> txns;
  std::map<std::string, int64_t> acked;
  std::string first_failure;
};

void RunConnection(uint16_t port, const WorkloadSpec& spec,
                   const BomShape& shape, uint64_t seed, size_t index,
                   const std::atomic<bool>& stop, ConnLog* out) {
  Client client;
  Status connected =
      client.Connect("127.0.0.1", port, "perfbench-" + std::to_string(index));
  if (!connected.ok()) {
    out->connect_failed = true;
    out->first_failure = connected.ToString();
    return;
  }
  StatementStream stream(spec, shape, seed, index);
  bool alive = true;
  while (alive && !stop.load(std::memory_order_acquire)) {
    // Transaction state of this cycle. `skip` drops the remaining UPDATEs
    // once one failed; the COMMIT then becomes a ROLLBACK.
    bool in_txn = false;
    bool skip = false;
    bool conflict = false;
    Clock::time_point txn_start;
    std::vector<std::string> updated;
    for (const Step& step : stream.Next()) {
      if (step.kind == StepKind::kUpdate && skip) continue;
      if (step.kind == StepKind::kCommit && !in_txn) continue;
      const bool rollback = step.kind == StepKind::kCommit && skip;
      const std::string& text = rollback ? std::string("ROLLBACK") : step.text;

      const Clock::time_point t0 = Clock::now();
      Result<Message> reply = client.Query(text);
      const Clock::time_point t1 = Clock::now();
      const Outcome outcome = Classify(reply);
      out->statements.push_back({t0, t1, outcome});
      if (outcome != Outcome::kOk && outcome != Outcome::kAbort &&
          out->first_failure.empty()) {
        out->first_failure = std::string(OutcomeName(outcome)) + " on " +
                             text + ": " +
                             (reply.ok() ? reply->text
                                         : reply.status().ToString());
      }
      if (outcome == Outcome::kTransport) {
        alive = false;
        break;
      }
      switch (step.kind) {
        case StepKind::kRead:
          break;
        case StepKind::kBegin:
          if (outcome != Outcome::kOk) {
            skip = true;  // no transaction: send none of its UPDATEs
            break;
          }
          in_txn = true;
          txn_start = t0;
          break;
        case StepKind::kUpdate:
          if (outcome == Outcome::kOk) {
            updated.push_back(step.part);
          } else {
            skip = true;
            conflict = outcome == Outcome::kAbort;
          }
          break;
        case StepKind::kCommit:
          if (rollback) {
            out->txns.push_back({txn_start, t1, false, conflict});
          } else if (outcome == Outcome::kOk) {
            for (const std::string& part : updated) ++out->acked[part];
            out->txns.push_back({txn_start, t1, true, false});
          } else {
            (void)client.Query("ROLLBACK");  // leave no transaction open
            out->txns.push_back({txn_start, t1, false, false});
          }
          in_txn = false;
          break;
      }
    }
  }
  (void)client.Close();
}

std::map<std::string, mad::MetricSample> Snapshot() {
  std::map<std::string, mad::MetricSample> out;
  for (mad::MetricSample& s : mad::Registry::Global().Snapshot().samples) {
    std::string name = s.name;
    out.emplace(std::move(name), std::move(s));
  }
  return out;
}

/// Counter value or histogram sum (µs) of `name` between two snapshots.
double Delta(const std::map<std::string, mad::MetricSample>& before,
             const std::map<std::string, mad::MetricSample>& after,
             const std::string& name, bool histogram_count = false) {
  auto value = [&](const std::map<std::string, mad::MetricSample>& snap) {
    auto it = snap.find(name);
    if (it == snap.end()) return 0.0;
    const mad::MetricSample& s = it->second;
    if (s.kind == mad::MetricSample::Kind::kHistogram) {
      return static_cast<double>(histogram_count ? s.count : s.sum_us);
    }
    return static_cast<double>(s.value);
  };
  return value(after) - value(before);
}

/// Statements sent and answered within one interval.
struct Tally {
  uint64_t attempted = 0;
  uint64_t by_outcome[5] = {};
  std::vector<double> latency_us;  // successful statements only
  uint64_t txn_begun = 0;
  uint64_t txn_committed = 0;
  uint64_t txn_conflicts = 0;
  std::vector<double> txn_us;  // committed transactions

  uint64_t count(Outcome o) const { return by_outcome[static_cast<int>(o)]; }
  uint64_t failed() const {
    return count(Outcome::kError) + count(Outcome::kBusy) +
           count(Outcome::kTransport);
  }
};

Tally Count(const std::vector<ConnLog>& logs, Clock::time_point from,
            Clock::time_point to) {
  Tally t;
  for (const ConnLog& log : logs) {
    for (const Sample& s : log.statements) {
      if (s.sent < from || s.done >= to) continue;
      ++t.attempted;
      ++t.by_outcome[static_cast<int>(s.outcome)];
      if (s.outcome == Outcome::kOk) {
        t.latency_us.push_back(Micros(s.done - s.sent));
      }
    }
    for (const TxnSample& x : log.txns) {
      if (x.sent < from || x.done >= to) continue;
      ++t.txn_begun;
      if (x.conflict) ++t.txn_conflicts;
      if (x.committed) {
        ++t.txn_committed;
        t.txn_us.push_back(Micros(x.done - x.sent));
      }
    }
  }
  return t;
}

struct Window {
  std::vector<Clock::time_point> bounds;  // kSubWindows + 1
  std::vector<double> cpu;                // process CPU seconds at each bound
  HostCpu host_before;
  HostCpu host_after;
  std::vector<ConnLog> logs;
  std::map<std::string, mad::MetricSample> before;
  std::map<std::string, mad::MetricSample> after;
  mad::EpochStats epochs_before;
  mad::EpochStats epochs_after;

  double seconds() const { return Seconds(bounds.back() - bounds.front()); }
  double cpu_seconds() const { return cpu.back() - cpu.front(); }
  double host_steal_frac() const {
    return Ratio(host_after.steal - host_before.steal,
                 host_after.total - host_before.total);
  }
  Tally Whole() const {
    Tally t = Count(logs, bounds.front(), bounds.back());
    for (const ConnLog& log : logs) {
      if (log.connect_failed) {
        ++t.attempted;
        ++t.by_outcome[static_cast<int>(Outcome::kTransport)];
      }
    }
    return t;
  }
  std::string FirstFailure() const {
    for (const ConnLog& log : logs) {
      if (!log.first_failure.empty()) return log.first_failure;
    }
    return "";
  }
};

Window RunWindow(Instance& inst, const WorkloadSpec& spec, uint64_t seed,
                 double seconds) {
  std::atomic<bool> stop{false};
  Window w;
  w.logs.resize(spec.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.connections; ++c) {
    threads.emplace_back(RunConnection, inst.server->port(), std::cref(spec),
                         std::cref(inst.shape), seed, c, std::cref(stop),
                         &w.logs[c]);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  w.before = Snapshot();
  w.epochs_before = inst.database().GetEpochStats();
  w.host_before = ReadHostCpu();
  const Clock::time_point t0 = Clock::now();
  const auto step = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kSubWindows));
  for (int k = 0; k <= kSubWindows; ++k) {
    if (k > 0) std::this_thread::sleep_until(t0 + k * step);
    w.bounds.push_back(Clock::now());
    w.cpu.push_back(CpuSeconds());
  }
  w.host_after = ReadHostCpu();
  w.after = Snapshot();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  w.epochs_after = inst.database().GetEpochStats();
  return w;
}

// ---------------------------------------------------------------------------
// The traced run

/// In-memory span log: name, start, end, parent span and statement id.
/// Written out once, when the run ends.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint64_t statement;
    int64_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };

  int64_t Open(const char* name, uint64_t statement, int64_t parent) {
    spans_.push_back({name, statement, parent, Clock::now(), {}});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) { spans_[static_cast<size_t>(id)].end = Clock::now(); }

  /// Per-statement duration (µs) of every span named `name` whose
  /// statement passes `keep`.
  template <typename Keep>
  std::vector<double> Durations(const std::string& name, Keep keep) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name && keep(s.statement)) {
        out.push_back(Micros(s.end - s.start));
      }
    }
    return out;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "id\tparent\tstatement\tname\tstart_ns\tend_ns\n";
    const Clock::time_point base = spans_.empty() ? Clock::time_point{}
                                                  : spans_.front().start;
    auto ns = [&](Clock::time_point t) {
      return std::chrono::duration_cast<std::chrono::nanoseconds>(t - base)
          .count();
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.statement << '\t' << s.name
          << '\t' << ns(s.start) << '\t' << ns(s.end) << '\n';
    }
  }

 private:
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t statement,
             int64_t parent = -1)
      : log_(log), id_(log.Open(name, statement, parent)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  SpanLog& log_;
  int64_t id_;
};

const char* KindOf(const Step& step) {
  switch (step.kind) {
    case StepKind::kRead:
      return "select";
    case StepKind::kBegin:
      return "begin";
    case StepKind::kUpdate:
      return "update";
    case StepKind::kCommit:
      return "commit";
  }
  return "?";
}

struct Traced {
  SpanLog log;
  std::vector<std::string> kind;  // by statement id
  double freeze_atoms = 0;
  double result_atoms = 0;
  double closure_links = 0;
  double closure_parts = 0;
  std::vector<double> threads_used;
  std::vector<double> untraced_roundtrip_us;
};

/// The session's SELECT path, stage by stage (session.cc RunSelect): the
/// same public calls in the same order, each in its own span. Scan seeds
/// are not mirrored: no workload's WHERE leads with a root-column compare.
Status TraceSelectStages(Database& db, const mad::mql::SelectStatement& select,
                         uint64_t id, int64_t parent, Traced& t) {
  mad::mql::TranslatedFrom from;
  {
    ScopedSpan span(t.log, "mql.translate", id, parent);
    MAD_ASSIGN_OR_RETURN(
        from, mad::mql::TranslateStructure(db, *select.from.structure));
  }
  ReaderLock lock(db.mutex());
  mad::EpochPin pin = db.PinEpoch();
  const mad::ReadView view = pin.view();
  if (from.recursive.has_value()) {
    ScopedSpan span(t.log, "molecule.recursive", id, parent);
    return mad::DeriveRecursiveMolecules(db, *from.recursive, view).status();
  }
  const mad::MoleculeDescription& md = *from.description;
  mad::DerivationOptions options{0};
  options.view = view;
  std::vector<mad::expr::CompiledPredicate> programs;
  std::optional<std::vector<mad::AtomId>> seeded;
  if (select.where != nullptr) {
    mad::mql::PushdownPlan plan;
    {
      ScopedSpan span(t.log, "mql.plan", id, parent);
      MAD_ASSIGN_OR_RETURN(plan, mad::mql::PlanPredicatePushdown(
                                     db, md, select.where));
      if (plan.seed.has_value()) {
        const mad::AtomStore& roots =
            (*db.GetAtomType(md.root_node().type_name))->occurrence();
        std::vector<std::pair<size_t, mad::AtomId>> ordered;
        for (mad::AtomId a : plan.seed->index->Lookup(plan.seed->value)) {
          std::optional<size_t> pos = roots.PositionOf(a);
          if (pos.has_value()) ordered.emplace_back(*pos, a);
        }
        std::sort(ordered.begin(), ordered.end());
        seeded.emplace();
        for (const auto& [pos, a] : ordered) seeded->push_back(a);
      }
    }
    {
      ScopedSpan span(t.log, "expr.compile", id, parent);
      programs.reserve(plan.node_filters.size() + 1);
      for (const mad::mql::NodeFilter& filter : plan.node_filters) {
        MAD_ASSIGN_OR_RETURN(mad::expr::CompiledPredicate program,
                             mad::expr::CompiledPredicate::Compile(
                                 db, md, filter.predicate, view));
        programs.push_back(std::move(program));
        options.node_filters.emplace_back(filter.node_index, &programs.back());
      }
      if (plan.residual != nullptr) {
        MAD_ASSIGN_OR_RETURN(mad::expr::CompiledPredicate program,
                             mad::expr::CompiledPredicate::Compile(
                                 db, md, plan.residual, view));
        programs.push_back(std::move(program));
        options.residual = &programs.back();
      }
    }
  }
  std::optional<mad::DerivationEngine> engine;
  {
    ScopedSpan span(t.log, "molecule.freeze", id, parent);
    MAD_ASSIGN_OR_RETURN(engine,
                         mad::DerivationEngine::Create(db, md, options));
  }
  for (const mad::MoleculeNode& node : md.nodes()) {
    t.freeze_atoms += static_cast<double>(
        (*db.GetAtomType(node.type_name))->occurrence().size());
  }
  ScopedSpan span(t.log, "molecule.derive", id, parent);
  Result<std::vector<mad::Molecule>> molecules =
      seeded.has_value() ? engine->DeriveForRoots(*seeded)
                         : engine->DeriveAll();
  return molecules.status();
}

/// Replays `prefix` on a local Session with stage spans, then four times
/// over a loopback Client, alternating untraced and traced passes so drift
/// between passes does not pose as tracing overhead.
Status RunTraced(Instance& inst, const std::vector<Step>& prefix, Traced& t) {
  Database& db = inst.database();
  mad::mql::Session session(&db);
  const std::map<std::string, mad::MoleculeDescription> no_registered_types;
  mad::Counter& closure_links =
      mad::Registry::Global().GetCounter("closure.links_traversed");
  for (const Step& step : prefix) {
    const uint64_t id = t.kind.size();
    t.kind.push_back(KindOf(step));
    ScopedSpan root(t.log, "statement", id);
    std::optional<mad::mql::Statement> parsed;
    {
      ScopedSpan span(t.log, "mql.parse", id, root.id());
      MAD_ASSIGN_OR_RETURN(parsed, mad::mql::ParseStatement(step.text));
    }
    {
      ScopedSpan span(t.log, "mql.sema", id, root.id());
      std::vector<mad::mql::Diagnostic> diags = mad::mql::AnalyzeStatement(
          db, no_registered_types, *parsed,
          mad::mql::AnalyzerContext{session.in_transaction()});
      if (mad::mql::HasErrors(diags)) {
        return Status::InvalidArgument("sema rejected: " + step.text);
      }
    }
    if (const auto* select = std::get_if<mad::mql::SelectStatement>(&*parsed)) {
      MAD_RETURN_IF_ERROR(TraceSelectStages(db, *select, id, root.id(), t));
    }
    std::optional<mad::mql::QueryResult> result;
    const uint64_t links_before = closure_links.value();
    {
      ScopedSpan span(t.log, "mql.execute", id, root.id());
      MAD_ASSIGN_OR_RETURN(result, session.Execute(step.text));
    }
    if (result->kind == mad::mql::QueryResult::Kind::kMolecules) {
      for (const mad::Molecule& m : result->molecules->molecules()) {
        t.result_atoms += static_cast<double>(m.atom_count());
      }
    } else if (result->kind == mad::mql::QueryResult::Kind::kRecursive) {
      t.closure_links +=
          static_cast<double>(closure_links.value() - links_before);
      for (const mad::RecursiveMolecule& m : result->recursive) {
        t.closure_parts += static_cast<double>(m.atom_count());
      }
    }
    if (result->derivation.has_value()) {
      t.threads_used.push_back(result->derivation->threads_used);
    }
    std::string body;
    {
      ScopedSpan span(t.log, "server.render", id, root.id());
      ReaderLock lock(db.mutex());
      body = mad::server::RenderQueryResult(db, *result);
    }
    {
      ScopedSpan span(t.log, "server.codec", id, root.id());
      Message reply;
      reply.type = mad::server::MessageType::kResult;
      reply.request_id = id + 1;
      reply.text = std::move(body);
      mad::server::FrameDecoder decoder;
      decoder.Feed(mad::server::FrameMessage(reply));
      Message decoded;
      MAD_ASSIGN_OR_RETURN(bool complete, decoder.Next(&decoded));
      if (!complete) return Status::Internal("codec: frame did not decode");
    }
  }

  for (int pass = 0; pass < 4; ++pass) {
    const bool traced = pass % 2 == 1;
    Client client;
    MAD_RETURN_IF_ERROR(
        client.Connect("127.0.0.1", inst.server->port(), "perfbench-trace"));
    for (const Step& step : prefix) {
      Outcome outcome;
      if (traced) {
        const uint64_t id = t.kind.size();
        t.kind.push_back(KindOf(step));
        ScopedSpan span(t.log, "server.roundtrip", id);
        outcome = Classify(client.Query(step.text));
      } else {
        const Clock::time_point t0 = Clock::now();
        outcome = Classify(client.Query(step.text));
        t.untraced_roundtrip_us.push_back(Micros(Clock::now() - t0));
      }
      if (outcome != Outcome::kOk) {
        return Status::Internal("traced replay failed on: " + step.text);
      }
    }
    (void)client.Close();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string scratch = ".bench_build/run";
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && FindWorkload(args->workload) != nullptr &&
         args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::string dir = args.scratch + "/" + spec.name + "-" +
                          std::to_string(getpid());
  std::filesystem::create_directories(args.scratch);

  const uint64_t data_seed = spec.kind == WorkloadKind::kBomTxn
                                 ? BomDataSeed(spec, args.seed)
                                 : args.seed;
  // Set-up, several times: setup_s is the median. The last instance runs.
  std::vector<double> setups;
  std::unique_ptr<Instance> inst;
  double bytes_per_atom = 0.0;
  const Clock::time_point setup_start = Clock::now();
  for (int i = 0; i < kMaxSetups; ++i) {
    if (i >= kMinSetups &&
        Seconds(Clock::now() - setup_start) >= kSetupSeconds) {
      break;
    }
    inst.reset();
    const Clock::time_point t0 = Clock::now();
    Result<std::unique_ptr<Instance>> made = SetUp(spec, data_seed, dir);
    if (!made.ok()) {
      std::cerr << "perfbench: set-up failed: " << made.status().ToString()
                << "\n";
      return 1;
    }
    setups.push_back(Seconds(Clock::now() - t0));
    inst = std::move(*made);
    if (i == 0) {
      bytes_per_atom = Ratio(inst->generate_rss_bytes,
                             static_cast<double>(inst->atoms));
    }
  }

  Checks checks;
  const unsigned threads_in_effect =
      CheckWireAgainstLocal(*inst, spec, args.seed, checks);
  std::map<std::string, int64_t> generated;
  if (spec.kind == WorkloadKind::kBomTxn) {
    generated = ReadCosts(inst->database());
  }

  Window w = RunWindow(*inst, spec, args.seed, args.seconds);
  if (spec.kind == WorkloadKind::kBomTxn) {
    std::map<std::string, int64_t> acked;
    for (const ConnLog& log : w.logs) {
      for (const auto& [part, n] : log.acked) acked[part] += n;
    }
    for (const std::string& m :
         CheckCostLedger(generated, acked, ReadCosts(inst->database()))) {
      checks.Fail("cost_ledger", m);
    }
  }

  const Tally whole = w.Whole();
  const Percentile p50 = NearestRank(whole.latency_us, 0.50);
  const Percentile p99 = NearestRank(whole.latency_us, 0.99);
  const Percentile txn99 = NearestRank(whole.txn_us, 0.99);
  if (whole.attempted == 0) checks.Fail("window", "no statement completed");
  // Sub-window medians of throughput, median latency and CPU per statement.
  std::vector<double> sub_sps, sub_p50, sub_cpu;
  for (int k = 0; k < kSubWindows; ++k) {
    const Tally sub = Count(w.logs, w.bounds[k], w.bounds[k + 1]);
    const double ok = static_cast<double>(sub.count(Outcome::kOk));
    sub_sps.push_back(ok / Seconds(w.bounds[k + 1] - w.bounds[k]));
    sub_p50.push_back(Median(sub.latency_us));
    sub_cpu.push_back(Ratio((w.cpu[k + 1] - w.cpu[k]) * 1000.0, ok));
  }
  const double ok = static_cast<double>(whole.count(Outcome::kOk));
  const double attempted =
      static_cast<double>(std::max<uint64_t>(whole.attempted, 1));
  const double error_frac = static_cast<double>(whole.failed()) / attempted;
  const double commits = static_cast<double>(whole.txn_committed);
  const double abort_frac = Ratio(static_cast<double>(whole.txn_conflicts),
                                  static_cast<double>(whole.txn_begun));

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"cpu_ms_per_stmt", Median(sub_cpu), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setups), "s"},
    };
  } else {
    std::vector<Step> prefix;
    StatementStream stream(spec, inst->shape, args.seed, 0);
    while (prefix.size() < spec.trace_statements) {
      for (Step& step : stream.Next()) prefix.push_back(std::move(step));
    }
    Traced t;
    Status traced = RunTraced(*inst, prefix, t);
    if (!traced.ok()) checks.Fail("traced_run", traced.ToString());
    t.log.Write(args.scratch + "/spans-" + spec.name + "-" +
                std::to_string(args.seed) + ".tsv");

    auto kind_is = [&](const char* k) {
      return [&t, k](uint64_t id) { return t.kind[id] == k; };
    };
    auto select_median = [&](const char* stage) {
      return Median(t.log.Durations(stage, kind_is("select")));
    };
    const double execute_select = select_median("mql.execute");
    double staged = 0.0;
    for (const char* stage :
         {"mql.parse", "mql.sema", "mql.translate", "mql.plan", "expr.compile",
          "molecule.freeze", "molecule.derive", "molecule.recursive"}) {
      staged += select_median(stage);
    }
    auto all = [](uint64_t) { return true; };
    const double roundtrip = Median(t.log.Durations("server.roundtrip", all));
    const double untraced = Median(t.untraced_roundtrip_us);
    const double exec_mean =
        Ratio(Delta(w.before, w.after, "server.statement_us"),
              Delta(w.before, w.after, "server.statement_us", true));
    const double stmts = static_cast<double>(whole.attempted);
    metrics = {
        {"mql.parse_us", select_median("mql.parse"), "us"},
        {"mql.sema_us", select_median("mql.sema"), "us"},
        {"mql.translate_us", select_median("mql.translate"), "us"},
        {"mql.plan_us", select_median("mql.plan"), "us"},
        {"mql.execute_us.select", execute_select, "us"},
        {"mql.execute_us.update",
         Median(t.log.Durations("mql.execute", kind_is("update"))), "us"},
        {"mql.execute_us.commit",
         Median(t.log.Durations("mql.execute", kind_is("commit"))), "us"},
        {"mql.unattributed_us", execute_select - staged, "us"},
        {"expr.compile_us", select_median("expr.compile"), "us"},
        {"molecule.freeze_us", select_median("molecule.freeze"), "us"},
        {"molecule.derive_us", select_median("molecule.derive"), "us"},
        {"molecule.recursive_us", select_median("molecule.recursive"), "us"},
        {"molecule.freeze_atoms_per_result_atom",
         Ratio(t.freeze_atoms, t.result_atoms), "ratio"},
        {"molecule.atoms_visited_per_stmt",
         Ratio(Delta(w.before, w.after, "derivation.atoms_visited"), stmts),
         "count"},
        {"molecule.links_scanned_per_stmt",
         Ratio(Delta(w.before, w.after, "derivation.links_scanned"), stmts),
         "count"},
        {"molecule.rejected_frac",
         Ratio(Delta(w.before, w.after, "derivation.rejected"),
               Delta(w.before, w.after, "derivation.roots")),
         "ratio"},
        {"molecule.threads_used", Median(t.threads_used), "count"},
        {"molecule.fanout_share",
         Ratio(Delta(w.before, w.after, "derivation.fanout_us"),
               Delta(w.before, w.after, "server.statement_us")),
         "ratio"},
        {"molecule.closure_links_per_result_part",
         Ratio(t.closure_links, t.closure_parts), "ratio"},
        {"storage.bytes_per_atom", bytes_per_atom, "B"},
        {"storage.wal_bytes_per_commit",
         Ratio(Delta(w.before, w.after, "wal.bytes"), commits), "B"},
        {"storage.wal_flushes_per_commit",
         Ratio(Delta(w.before, w.after, "wal.flushes"), commits), "count"},
        {"storage.reclaimed_per_commit",
         Ratio(static_cast<double>(w.epochs_after.reclaimed_versions -
                                   w.epochs_before.reclaimed_versions),
               commits),
         "count"},
        {"storage.archived_atoms_end",
         static_cast<double>(w.epochs_after.archived_atoms), "count"},
        {"server.exec_mean_us", exec_mean, "us"},
        {"server.wait_mean_us", Mean(whole.latency_us) - exec_mean, "us"},
        {"server.render_us", select_median("server.render"), "us"},
        {"server.codec_us", select_median("server.codec"), "us"},
        {"server.roundtrip_us", roundtrip, "us"},
        {"server.overhead_us",
         roundtrip - Median(t.log.Durations("mql.execute", all)), "us"},
        {"server.bytes_out_per_stmt",
         Ratio(Delta(w.before, w.after, "server.bytes_written"), stmts), "B"},
        {"util.busy_cores", Ratio(w.cpu_seconds(), w.seconds()), "count"},
        {"bench.trace_overhead_frac", Ratio(roundtrip, untraced) - 1.0,
         "ratio"},
        {"throughput_sps", Median(sub_sps), "1/s"},
        {"latency_p50_us", Median(sub_p50), "us"},
        {"latency_p99_us", p99.value, "us"},
        {"commit_tps", commits / w.seconds(), "1/s"},
        {"txn_p99_us", txn99.value, "us"},
        {"abort_frac", abort_frac, "ratio"},
        {"error_frac", error_frac, "ratio"},
    };
  }

  // Human-readable report, then metadata, then the result line.
  std::cout << "workload " << spec.name << "  seed " << args.seed
            << "  window " << w.seconds() << " s  connections "
            << spec.connections << "\n";
  std::cout << "statements: " << whole.attempted << " attempted, " << ok
            << " ok, " << whole.count(Outcome::kAbort) << " MQL0601, "
            << whole.failed() << " failed (error_frac " << error_frac << ")\n";
  // A percentile counts only with at least kMinBeyond samples beyond it;
  // the report says so rather than failing a run on a slow host.
  auto counts = [](const Percentile& p) {
    return p.supported ? "" : ", does not count";
  };
  std::cout << "latency (whole window): p50 " << p50.value << " us (n="
            << p50.samples << ", " << p50.beyond << " beyond" << counts(p50)
            << "), p99 " << p99.value << " us (n=" << p99.samples << ", "
            << p99.beyond << " beyond" << counts(p99) << ")\n";
  std::cout << "medians of " << kSubWindows << " sub-windows: throughput "
            << Median(sub_sps) << " statements/s, p50 " << Median(sub_p50)
            << " us\n";
  if (spec.kind == WorkloadKind::kBomTxn) {
    std::cout << "transactions: " << whole.txn_begun << " begun, " << commits
              << " committed (" << commits / w.seconds() << "/s), "
              << whole.txn_conflicts << " aborted by MQL0601 (abort_frac "
              << abort_frac << "), txn p99 " << txn99.value << " us (n="
              << txn99.samples << ", " << txn99.beyond << " beyond"
              << counts(txn99) << ")\n";
  }
  if (!w.FirstFailure().empty()) {
    std::cout << "first failure: " << w.FirstFailure() << "\n";
  }
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << Number(m.value) << " " << m.unit
              << "\n";
  }
  for (const std::string& f : checks.failures) {
    std::cout << "CHECK FAILED " << f << "\n";
  }

  std::cout << "meta {\"cpu_model\": " << Quote(CpuModel())
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": " << Quote(PERFBENCH_BUILD_TYPE)
            << ", \"compiler\": " << Quote(kCompiler)
            << ", \"source\": " << Quote(args.source_id)
            << ", \"seed\": " << args.seed << ", \"data_seed\": " << data_seed
            << ", \"workload\": " << Quote(spec.name)
            << ", \"atoms\": " << inst->atoms << ", \"links\": " << inst->links
            << ", \"connections\": " << spec.connections
            << ", \"session_parallelism\": 0"
            << ", \"derivation_threads_in_effect\": " << threads_in_effect
            << ", \"seconds\": " << args.seconds
            << ", \"host_steal_frac\": " << w.host_steal_frac()
            << ", \"latency_samples\": " << p99.samples
            << ", \"p99_beyond\": " << p99.beyond
            << ", \"trace\": " << args.trace << "}\n";

  std::ostringstream json;
  json << "{\"correct\": " << (checks.ok() ? "true" : "false")
       << ", \"attempted\": " << whole.attempted
       << ", \"failed\": " << whole.failed() << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json << (i ? ", " : "") << Quote(metrics[i].name) << ": {\"value\": "
         << Number(metrics[i].value) << ", \"unit\": " << Quote(metrics[i].unit)
         << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return checks.ok() ? 0 : 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <geo_point|geo_scan|bom_txn> "
                 "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>] "
                 "[--source-id <id>]\n";
    return 64;
  }
  return perfbench::Run(args);
}
