#include "outcome.h"

namespace perfbench {

using mad::server::MessageType;

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kAbort:
      return "abort";
    case Outcome::kError:
      return "error";
    case Outcome::kBusy:
      return "busy";
    case Outcome::kTransport:
      return "transport";
  }
  return "?";
}

Outcome Classify(const mad::Result<mad::server::Message>& reply) {
  if (!reply.ok()) return Outcome::kTransport;
  switch (reply->type) {
    case MessageType::kResult:
      return Outcome::kOk;
    case MessageType::kError:
      return reply->text.find("MQL0601") != std::string::npos
                 ? Outcome::kAbort
                 : Outcome::kError;
    case MessageType::kBusy:
      return Outcome::kBusy;
    default:
      // BYE (the server closed the session) or a frame that is no reply.
      return Outcome::kTransport;
  }
}

std::vector<std::string> CheckCostLedger(
    const std::map<std::string, int64_t>& generated,
    const std::map<std::string, int64_t>& acked,
    const std::map<std::string, int64_t>& final) {
  std::vector<std::string> mismatches;
  for (const auto& [part, base] : generated) {
    auto inc = acked.find(part);
    int64_t expected = base + (inc == acked.end() ? 0 : inc->second);
    auto got = final.find(part);
    if (got == final.end()) {
      mismatches.push_back(part + ": missing after the window");
    } else if (got->second != expected) {
      mismatches.push_back(part + ": cost " + std::to_string(got->second) +
                           ", expected " + std::to_string(expected));
    }
  }
  for (const auto& [part, inc] : acked) {
    if (generated.count(part) == 0) {
      mismatches.push_back(part + ": incremented but never generated");
    }
  }
  return mismatches;
}

}  // namespace perfbench
