#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

// The served sessions of the net step of the per-layer pass: a
// spot_serverd child (2 reactors,
// round-robin accept) serving two sessions over two loopback connections,
// driven closed-loop by one client thread on spot_loadgen's
// feedback-heavy schedule.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/topk_outliers.h"
#include "net/spot_client.h"
#include "support.h"

namespace perfbench {

constexpr std::size_t kServedConns = 2;

/// spot_loadgen's feedback-heavy schedule: after batch b, a top-k query
/// when (b+1) % 16 == 0, and a top-k plus a feedback round when
/// (b+1) % 4 == 0.
constexpr std::uint64_t kQueryEvery = 16;
constexpr std::uint64_t kFeedbackEvery = 4;
constexpr std::uint32_t kQueryK = 8;
constexpr std::uint32_t kFeedbackK = 4;

inline bool QueryDue(std::uint64_t b) { return (b + 1) % kQueryEvery == 0; }
inline bool FeedbackDue(std::uint64_t b) {
  return (b + 1) % kFeedbackEvery == 0;
}

std::vector<std::uint64_t> IdsOf(const std::vector<spot::TopKEntry>& top);

struct ServedSessions {
  ServerChild server;
  spot::net::SpotClient clients[kServedConns];
  std::string ids[kServedConns] = {"bench-0", "bench-1"};
};

struct ServedLog {
  /// One latency sample per connection per batch (Ingest sent to Flush
  /// answered); busy time is the wall time of whole rounds.
  Phase phase;
  std::uint64_t batches = 0;  // per connection
  bool broken = false;        // an RPC failed; the run stopped there
};

/// Starts the server child and creates both sessions.
bool StartServed(const Args& args, const spot::SpotConfig& cfg,
                 const std::vector<SessionInputs>& in, Tracer* tracer,
                 ServedSessions* served, std::string* error);

/// Runs whole rounds (one batch on each connection, then the scheduled
/// requests) while `keep_going(log)` holds. Counts every RPC in
/// result->attempted and each failure in result->failed.
void DriveServed(ServedSessions* served, const std::vector<SessionInputs>& in,
                 const spot::SpotConfig& cfg,
                 const std::function<bool(const ServedLog&)>& keep_going,
                 Tracer* tracer, RunResult* result, ServedLog* log);

/// Disconnects and stops the server; `cpu_s` receives its rusage time.
bool StopServed(ServedSessions* served, double* cpu_s);

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
