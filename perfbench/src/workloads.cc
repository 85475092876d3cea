#include "workloads.h"

#include <cstdio>

#include "storage/database.h"

namespace perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> w(3);
    w[0].name = "geo_point";
    w[0].kind = WorkloadKind::kGeoPoint;
    // One connection: with more, the statements' whole-database freezes
    // compete for the shared host's memory bandwidth, and run-to-run
    // spread grew from 1-6% to 10-23% (README.md, "Workloads").
    w[0].connections = 1;
    w[0].geo_states = 5000;
    w[0].check_statements = 8;
    w[0].trace_statements = 60;

    // Runs by name only: its fan-out made it too unsteady on a shared VM to
    // carry a bound in BENCHMARK.json (README.md, "Workloads").
    w[1].name = "geo_scan";
    w[1].kind = WorkloadKind::kGeoScan;
    w[1].connections = 2;
    w[1].geo_states = 400;
    w[1].check_statements = 6;
    w[1].trace_statements = 45;

    w[2].name = "bom_txn";
    w[2].kind = WorkloadKind::kBomTxn;
    // Two connections keep writers queueing behind a reader and the
    // occasional MQL0601 abort; four made the lock queue amplify the host's
    // noise (README.md, "Workloads").
    w[2].connections = 2;
    w[2].bom_roots = 20;
    w[2].bom_depth = 5;
    w[2].bom_fanout = 3;
    w[2].check_statements = 4;
    w[2].trace_statements = 120;
    return w;
  }();
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

mad::workload::BomScale BomScaleOf(const WorkloadSpec& spec,
                                   uint64_t data_seed) {
  mad::workload::BomScale scale;
  scale.roots = spec.bom_roots;
  scale.depth = spec.bom_depth;
  scale.fanout = spec.bom_fanout;
  scale.seed = data_seed;
  return scale;
}

uint64_t BomDataSeed(const WorkloadSpec& spec, uint64_t seed) {
  for (uint64_t attempt = 0;; ++attempt) {
    const uint64_t data_seed = MixSeed(seed, 2000 + attempt);
    mad::Database scratch("BOM");
    mad::Result<mad::workload::BomStats> stats =
        mad::workload::GenerateBom(scratch, BomScaleOf(spec, data_seed));
    if (stats.ok() && stats->parts >= kBomPartsMin &&
        stats->parts <= kBomPartsMax) {
      return data_seed;
    }
  }
}

StatementStream::StatementStream(const WorkloadSpec& spec,
                                 const BomShape& shape, uint64_t seed,
                                 uint64_t stream)
    : spec_(spec), shape_(shape), rng_(MixSeed(seed, stream)) {
  if (spec_.kind == WorkloadKind::kBomTxn) {
    // Zipf (s = 1) over the roots: root1 is requested most.
    double total = 0.0;
    for (int k = 1; k <= shape_.roots; ++k) total += 1.0 / k;
    double acc = 0.0;
    for (int k = 1; k <= shape_.roots; ++k) {
      acc += 1.0 / k / total;
      zipf_cdf_.push_back(acc);
    }
  }
}

int StatementStream::ZipfRoot() {
  double u = static_cast<double>(rng_() >> 11) * 0x1.0p-53;
  for (size_t k = 0; k < zipf_cdf_.size(); ++k) {
    if (u < zipf_cdf_[k]) return static_cast<int>(k) + 1;
  }
  return static_cast<int>(zipf_cdf_.size());
}

namespace {

/// A decimal literal with one fractional digit in [lo, lo + span).
std::string Tenths(uint64_t draw, int lo) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d.%d", lo + static_cast<int>(draw / 10),
                static_cast<int>(draw % 10));
  return buf;
}

}  // namespace

Cycle StatementStream::Next() {
  const uint64_t n = cycles_++;
  Cycle cycle;
  switch (spec_.kind) {
    case WorkloadKind::kGeoPoint: {
      std::string k = std::to_string(1 + Below(spec_.geo_states));
      cycle.push_back({StepKind::kRead,
                       "SELECT ALL FROM state-area-edge-point WHERE "
                       "state.name = 'S" + k + "'",
                       ""});
      break;
    }
    case WorkloadKind::kGeoScan: {
      // Coordinates are tenths in [0, 1000): thresholds near the top keep
      // a seed-dependent share of the 400 state molecules.
      switch (n % 3) {
        case 0:
          cycle.push_back({StepKind::kRead,
                           "SELECT state.name FROM state-area-edge-point "
                           "WHERE point.x >= " + Tenths(Below(900), 900),
                           ""});
          break;
        case 1:
          cycle.push_back({StepKind::kRead,
                           "SELECT ALL FROM river-net-edge-point WHERE "
                           "COUNT(point) > " + std::to_string(25 + Below(15)),
                           ""});
          break;
        default:
          cycle.push_back({StepKind::kRead,
                           "SELECT ALL FROM state-area-edge-point WHERE "
                           "FORALL point (point.y < " +
                               Tenths(Below(900), 900) + ")",
                           ""});
          break;
      }
      break;
    }
    case WorkloadKind::kBomTxn: {
      std::string root = "root" + std::to_string(ZipfRoot());
      std::string leaf = "p" + std::to_string(shape_.leaf_level) + "_" +
                         std::to_string(1 + Below(shape_.leaves));
      std::string mid = "p" + std::to_string(kMidLevel) + "_" +
                        std::to_string(1 + Below(shape_.mids));
      cycle.push_back({StepKind::kRead,
                       "SELECT ALL FROM part-[composition*] WHERE "
                       "root.name = '" + root + "'",
                       ""});
      cycle.push_back({StepKind::kBegin, "BEGIN", ""});
      for (const std::string& part : {leaf, mid}) {
        cycle.push_back({StepKind::kUpdate,
                         "UPDATE part SET cost = cost + 1 WHERE name = '" +
                             part + "'",
                         part});
      }
      cycle.push_back({StepKind::kCommit, "COMMIT", ""});
      cycle.push_back({StepKind::kRead,
                       "SELECT ALL FROM part-[composition*2] WHERE "
                       "root.name = '" + mid + "'",
                       ""});
      break;
    }
  }
  return cycle;
}

}  // namespace perfbench
