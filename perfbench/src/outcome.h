#ifndef PERFBENCH_OUTCOME_H_
#define PERFBENCH_OUTCOME_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "server/protocol.h"
#include "util/result.h"

namespace perfbench {

/// How one statement sent over the wire ended.
enum class Outcome {
  kOk,         // RESULT
  kAbort,      // ERROR carrying MQL0601 (first-writer-wins conflict)
  kError,      // any other ERROR
  kBusy,       // shed by admission control
  kTransport,  // the exchange failed or the server closed the connection
};

const char* OutcomeName(Outcome outcome);

/// Classifies a Client::Query() reply. Only kOk counts towards throughput;
/// kError, kBusy and kTransport count towards error_frac; kAbort is the
/// expected price of first-writer-wins and counts towards abort_frac.
Outcome Classify(const mad::Result<mad::server::Message>& reply);

/// The bom_txn lost-update check. `generated` is each part's cost before
/// the window, `acked` the increments of transactions whose COMMIT reply
/// arrived, `final` each part's cost after the window. Returns one line per
/// part whose final cost differs from generated + acked (empty = pass).
/// Parts missing from `final` are reported too.
std::vector<std::string> CheckCostLedger(
    const std::map<std::string, int64_t>& generated,
    const std::map<std::string, int64_t>& acked,
    const std::map<std::string, int64_t>& final);

}  // namespace perfbench

#endif  // PERFBENCH_OUTCOME_H_
