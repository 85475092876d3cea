#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "workload/bom.h"

namespace perfbench {

enum class WorkloadKind { kGeoPoint, kGeoScan, kBomTxn };

/// Fixed parameters of one workload. README.md says why each was chosen.
struct WorkloadSpec {
  const char* name = "";
  WorkloadKind kind = WorkloadKind::kGeoPoint;
  /// Closed-loop client connections, one thread each; never above nproc.
  size_t connections = 1;
  /// GenerateScaledGeo `states` (geo workloads).
  int geo_states = 0;
  /// GenerateBom roots/depth/fanout (bom_txn).
  int bom_roots = 0;
  int bom_depth = 0;
  int bom_fanout = 0;
  /// Statements of the check set sent before the window.
  size_t check_statements = 0;
  /// Statements the traced run replays (a prefix of stream 0, whole cycles).
  size_t trace_statements = 0;
};

/// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// What a bom_txn stream needs to know of the generated BOM: parts are
/// named root<1..roots> and p<level>_<1..n> per level.
struct BomShape {
  int roots = 0;
  int mids = 0;    // parts at kMidLevel
  int leaves = 0;  // parts at the deepest level
  int leaf_level = 0;
};
inline constexpr int kMidLevel = 2;

enum class StepKind { kRead, kBegin, kUpdate, kCommit };

struct Step {
  StepKind kind = StepKind::kRead;
  std::string text;
  /// kUpdate: the part whose cost the statement increments by one.
  std::string part;
};

/// One closed-loop unit of work: a single SELECT on the geo workloads; on
/// bom_txn a closure read, BEGIN, two UPDATEs, COMMIT and a bounded read.
using Cycle = std::vector<Step>;

/// Stream ids: connection c replays stream c; the check set is
/// kCheckStream; the traced run replays a prefix of stream 0.
inline constexpr uint64_t kCheckStream = 1000;

/// A deterministic statement stream: the same (workload, seed, stream)
/// always yields the same cycles, and every literal is drawn from it.
class StatementStream {
 public:
  StatementStream(const WorkloadSpec& spec, const BomShape& shape,
                  uint64_t seed, uint64_t stream);

  Cycle Next();

 private:
  uint64_t Below(uint64_t n) { return rng_() % n; }
  int ZipfRoot();

  const WorkloadSpec& spec_;
  BomShape shape_;
  std::mt19937_64 rng_;
  uint64_t cycles_ = 0;
  std::vector<double> zipf_cdf_;
};

/// SplitMix64 finalizer: decorrelates (seed, stream) pairs.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// bom_txn states its input size: GenerateBom's random sharing lets the
/// part count of one (roots, depth, fanout) vary by a quarter across seeds,
/// and every closure read scans them all. The data seed is the first of
/// the run seed's sub-seeds whose BOM has kBomPartsMin..kBomPartsMax parts.
inline constexpr size_t kBomPartsMin = 1500;
inline constexpr size_t kBomPartsMax = 1600;
uint64_t BomDataSeed(const WorkloadSpec& spec, uint64_t seed);

/// GenerateBom parameters of `spec` with generator seed `data_seed`.
mad::workload::BomScale BomScaleOf(const WorkloadSpec& spec,
                                   uint64_t data_seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
