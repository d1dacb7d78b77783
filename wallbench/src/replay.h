// Bench-side replay of one request's execution, layer by layer: the same
// steps the service runs beneath a ticket (planner, seal, plan build,
// coprocessor construction, every operator, decode), each wrapped in a
// span. The operator loop mirrors plan::PlanExecutor::Run (serial) and
// plan::RunShardedJoin (sharded). Every replay also runs the real engine on
// an identically prepared store and fails unless the fingerprints agree bit
// for bit — otherwise the spans would time a different program.
#ifndef WALLBENCH_REPLAY_H_
#define WALLBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/metrics.h"
#include "spans.h"
#include "workload.h"

namespace wallbench {

struct OpTime {
  std::string name;
  unsigned shard = 0;
  double ms = 0;
  std::uint64_t transfers = 0;
};

struct ReplayResult {
  std::string error;  ///< Non-empty on a fingerprint or output mismatch.
  std::uint64_t root_span = 0;
  ppj::core::Algorithm algorithm = ppj::core::Algorithm::kAlgorithm5;
  std::vector<OpTime> ops;
  ppj::sim::TransferMetrics metrics;  ///< Union over shards.
  /// Trace fingerprint of the driven run (the union rule when sharded).
  /// Definition 1: equal for every contract of one shape and algorithm.
  ppj::sim::TraceFingerprint trace;
  double planner_us = 0;
  double build_us = 0;
  std::size_t input_slot = 0;  ///< Sealed slot size of input A.
  std::size_t join_slot = 0;   ///< PlanContext::slot after InitWireShape.
  // Sharded only.
  double replicate_ms = 0;  ///< plan::ReplicateSealed of both inputs.
  double run_ms = 0;        ///< plan::RunShardedJoin, timed whole.
  std::uint64_t makespan_transfers = 0;
  double imbalance = 0;
  std::uint64_t channel_bytes = 0;
  std::uint64_t channel_rounds = 0;
};

/// Replays contract `c` of `shape` once, on in-memory host stores.
ReplayResult Replay(const Shape& shape, const ContractData& c,
                    Tracer* tracer, std::uint64_t request);

}  // namespace wallbench

#endif  // WALLBENCH_REPLAY_H_
