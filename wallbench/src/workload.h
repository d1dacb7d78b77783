// Workload shapes, set-up through the public service API, output checks and
// the closed-loop client.
#ifndef WALLBENCH_WORKLOAD_H_
#define WALLBENCH_WORKLOAD_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "relation/generator.h"
#include "service/service.h"
#include "spans.h"

namespace wallbench {

/// Everything fixed by the workload name. Content comes from the seed.
struct Shape {
  std::string name;
  /// Per-contract algorithm, cycled over the contracts. nullopt = kAuto.
  std::vector<std::optional<ppj::core::Algorithm>> algorithms;
  std::uint64_t size_a = 0;
  std::uint64_t size_b = 0;
  std::uint64_t n = 4;  ///< Max fan-out N of the equijoin.
  std::uint64_t s = 0;  ///< Result size S.
  std::uint64_t m = 0;  ///< Coprocessor memory M, in tuples.
  unsigned shards = 1;
  unsigned contracts = 4;
  unsigned tenants = 1;
  /// Service mix: aggregates, group-by counts, repeats and resubmits.
  bool mixed = false;
  /// The percentile join_ms_tail reports, fixed per workload so it means
  /// the same in every run: the highest of p75, p90, p95, p99 and p99.9
  /// that keeps at least 10 samples beyond it and whose run-to-run spread
  /// stayed within the metric's bound in the baseline runs.
  double tail_p = 0.9;
};

/// nullptr for an unknown name.
const Shape* FindShape(const std::string& name);

/// The algorithm label a contract's requests are grouped under.
std::string AlgorithmLabel(const std::optional<ppj::core::Algorithm>& alg);

/// One contract's generated data and its plaintext answers.
struct ContractData {
  std::string id;
  std::string provider_a, provider_b;
  std::optional<ppj::core::Algorithm> algorithm;
  ppj::relation::TwoTableWorkload data;
  std::unique_ptr<ppj::relation::PairAsMultiway> multiway;
  /// Sorted serialized tuples of the plaintext join (filled after set-up).
  std::vector<std::string> expected;
};

/// A service with every contract registered and ingested.
struct Deployment {
  std::unique_ptr<ppj::service::SovereignJoinService> service;
  std::vector<ContractData> contracts;
  std::vector<double> ingest_ms;  ///< One per SubmitRelation.
};

/// Builds the deployment on the in-memory host store: service
/// construction, parties, contracts, workload generation and ingest.
ppj::Result<Deployment> SetUp(const Shape& shape, std::uint64_t seed);

/// Bench-side plaintext answers for every contract (not part of set-up
/// time: the library never sees them).
void ComputeExpected(Deployment& d);

/// Sorted serialized tuples — a multiset key.
std::vector<std::string> MultisetKey(
    const std::vector<ppj::relation::Tuple>& tuples);

/// The adversary-visible surface that must be identical across every
/// executed request of one (request kind, algorithm) group: serial runs
/// compare the timing fingerprint and the trace length (absolute region ids
/// differ between requests on one shared host), sharded runs the union
/// trace fingerprint, which lives in a per-request store.
struct Surface {
  std::uint64_t transfers = 0;
  std::uint64_t events = 0;
  std::uint64_t digest = 0;
  bool operator==(const Surface&) const = default;
};

/// Checks deliveries against plaintext answers and the one-surface rule.
class Checker {
 public:
  /// "" when the pair-join delivery is right, else what is wrong.
  std::string CheckJoin(const ContractData& c, const std::string& group,
                        const ppj::service::JoinDelivery& delivery,
                        unsigned shards);
  std::string CheckAggregate(const ContractData& c,
                             const ppj::core::AggregateSpec& spec,
                             const ppj::core::AggregateResult& got) const;
  std::string CheckGroupBy(const ContractData& c,
                           const ppj::core::GroupByCountSpec& spec,
                           const ppj::core::GroupByCountResult& got) const;

 private:
  std::map<std::string, Surface> surfaces_;
};

/// What one timed phase measured.
struct LoopStats {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t reused = 0;
  std::uint64_t executed_joins = 0;  ///< Pair joins that really ran.
  double wall_s = 0;
  double cpu_s = 0;
  std::vector<double> latency_ms;
  std::vector<double> submit_us;
  std::vector<double> queue_wait_ms;  ///< Only with lifecycle capture.
  std::vector<double> exec_ms;        ///< Only with lifecycle capture.
  /// Sums over executed pair joins.
  ppj::sim::TransferMetrics join_metrics;
  std::vector<std::string> errors;  ///< First few failure descriptions.
  std::uint64_t last_request = 0;   ///< Request counter after the loop.
};

/// Closed loop: keeps `max_outstanding` requests in flight until `seconds`
/// have passed, then drains. Request choice is a function of the seed and
/// the request index. The time is cut into `slices`; between two slices the
/// loop drains, pauses its wall and CPU clocks and calls `between_slices`.
/// With a tracer, records request/submit/wait/check spans and the
/// scheduler's lifecycle attribution.
LoopStats RunLoop(const Shape& shape, Deployment& d, std::uint64_t seed,
                  double seconds, unsigned max_outstanding, Checker& checker,
                  Tracer* tracer, std::vector<std::uint64_t>* request_roots,
                  std::uint64_t first_request, int slices = 1,
                  const std::function<void()>& between_slices = [] {});

/// Execute options a contract's requests use (before per-request seeds).
ppj::service::ExecuteOptions BaseOptions(const Shape& shape,
                                         const ContractData& c);

double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

}  // namespace wallbench

#endif  // WALLBENCH_WORKLOAD_H_
