// bench_perf_server: end-to-end latency of the networked front end.
//
// Not a google-benchmark binary: percentiles of a concurrent open-loop
// workload are the quantity of interest, which per-op mean timing cannot
// express. It speaks the same CLI contract as its siblings — it ignores
// --benchmark_* flags and honours `--json <path>` — and emits the shared
// bench JSON shape, so the CI bench-regression gate (tools/bench_compare.py
// against BENCH_baseline.json) treats its p50/p95/p99 rows like any other
// ns_per_op series.
//
// Two mixes run against an in-process mad_server over loopback TCP:
//   geo_mix  — read-only molecule derivation on the Figure-4 map schema
//   txn_mix  — read/write BEGIN..COMMIT molecule updates (conflicts are
//              expected and excluded from nothing: aborted statements cost
//              real latency too)

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "bench_meta.h"
#include "server/loadgen.h"
#include "server/server.h"
#include "storage/database.h"
#include "workload/geo.h"

namespace {

struct MixResult {
  std::string op;
  mad::server::LoadgenReport report;
};

constexpr size_t kConnections = 8;

const char* kGeoMix =
    "SELECT ALL FROM map(state-area-edge-point);"
    "SELECT ALL FROM map WHERE state.name = 'SP';"
    "SELECT state.name FROM map WHERE point.x >= 0;";

const char* kTxnMix =
    "SELECT ALL FROM map(state-area-edge-point);"
    "BEGIN;"
    "UPDATE state SET hectare = hectare + 1 WHERE name = 'SP';"
    "COMMIT;"
    "SELECT ALL FROM map WHERE state.hectare > 0;";

int Run(const std::string& json_path) {
  mad::Database db("GEO_DB");
  if (!mad::workload::BuildFigure4GeoDatabase(db).ok()) {
    std::cerr << "bench_perf_server: seeding failed\n";
    return 1;
  }
  mad::server::ServerOptions server_options;
  mad::server::MadServer server(&db, server_options);
  if (!server.Start().ok()) {
    std::cerr << "bench_perf_server: server start failed\n";
    return 1;
  }

  MixResult results[] = {{"geo_mix", {}}, {"txn_mix", {}}};
  const char* mixes[] = {kGeoMix, kTxnMix};
  for (int i = 0; i < 2; ++i) {
    auto script = mad::server::SplitWorkloadScript(mixes[i]);
    if (!script.ok()) {
      std::cerr << "bench_perf_server: " << script.status().ToString() << "\n";
      return 1;
    }
    mad::server::LoadgenOptions options;
    options.port = server.port();
    options.connections = kConnections;
    options.statements_per_connection = 250;
    options.client_name = results[i].op;
    auto report = mad::server::RunLoadgen(options, *script);
    if (!report.ok()) {
      std::cerr << "bench_perf_server: " << report.status().ToString() << "\n";
      return 1;
    }
    results[i].report = std::move(*report);
    std::cout << results[i].op << ":\n"
              << mad::server::FormatLoadgenReport(results[i].report,
                                                  kConnections);
  }
  server.Shutdown();

  if (!json_path.empty()) {
    // One file, both mixes: splice the per-mix JSON result rows together.
    std::ofstream out(json_path, std::ios::trunc);
    if (!out) {
      std::cerr << "bench_perf_server: cannot write " << json_path << "\n";
      return 1;
    }
    out << "{\"benchmark\": \"bench_perf_server\", "
        << mad::bench::MetaJsonMember() << ", \"results\": [";
    bool first = true;
    for (const MixResult& mix : results) {
      std::string one = mad::server::LoadgenReportToBenchJson(
          "bench_perf_server", mix.op, mix.report, kConnections);
      size_t open = one.find('[');
      size_t close = one.rfind(']');
      std::string rows = one.substr(open + 1, close - open - 1);
      if (!first && !rows.empty()) out << ", ";
      first = false;
      out << rows;
    }
    out << "]}\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
    // --benchmark_min_time etc. are accepted and ignored: the bench runner
    // passes the same flags to every binary.
  }
  return Run(json_path);
}
