#include "workload.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "relation/schema.h"

namespace wallbench {

using ppj::Result;
using ppj::Status;
namespace core = ppj::core;
namespace relation = ppj::relation;
namespace service = ppj::service;
namespace sim = ppj::sim;

namespace {

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  // SplitMix64 finalizer over (seed, salt): decorrelates per-contract and
  // per-request streams drawn from one workload seed.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::vector<Shape> MakeShapes() {
  std::vector<Shape> shapes;
  Shape scan;
  scan.name = "scan";
  scan.algorithms = {core::Algorithm::kAlgorithm5};
  scan.size_a = scan.size_b = 512;
  scan.s = 64;
  scan.m = 64;
  scan.tail_p = 0.9;
  shapes.push_back(scan);

  Shape sort;
  sort.name = "sort";
  sort.algorithms = {core::Algorithm::kAlgorithm4};
  sort.size_a = sort.size_b = 128;
  sort.s = 32;
  sort.m = 16;
  sort.tail_p = 0.75;
  shapes.push_back(sort);

  Shape svc;
  svc.name = "service";
  // Most contracts let the planner choose; one in eight pins Algorithm 3
  // (Chapter 4, B padded) and one in eight Algorithm 6.
  svc.algorithms = {service::kAuto, service::kAuto, service::kAuto,
                    core::Algorithm::kAlgorithm3, service::kAuto,
                    service::kAuto, core::Algorithm::kAlgorithm6,
                    service::kAuto};
  svc.size_a = svc.size_b = 32;
  svc.s = 16;
  svc.m = 16;
  svc.contracts = 32;
  svc.tenants = 8;
  svc.mixed = true;
  svc.tail_p = 0.95;
  shapes.push_back(svc);

  Shape scaleout = scan;
  scaleout.name = "scaleout";
  scaleout.shards = 2;
  scaleout.tail_p = 0.75;
  shapes.push_back(scaleout);
  return shapes;
}

const std::vector<Shape>& Shapes() {
  static const std::vector<Shape> shapes = MakeShapes();
  return shapes;
}

// Request choice of the service mix.
const core::AggregateSpec kAggSpec{core::AggregateKind::kSum, 0, 0};
const core::GroupByCountSpec kGroupSpec{1, 0, 0, 63};

}  // namespace

const Shape* FindShape(const std::string& name) {
  for (const Shape& s : Shapes()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string AlgorithmLabel(const std::optional<core::Algorithm>& alg) {
  return alg ? core::ToString(*alg) : "auto";
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

Result<Deployment> SetUp(const Shape& shape, std::uint64_t seed) {
  Deployment d;
  d.service = std::make_unique<service::SovereignJoinService>();
  service::SovereignJoinService& svc = *d.service;
  for (unsigned t = 0; t < shape.tenants; ++t) {
    PPJ_RETURN_NOT_OK(
        svc.RegisterParty("tenant-" + std::to_string(t), Mix(seed, 1000 + t)));
  }
  d.contracts.resize(shape.contracts);
  for (unsigned c = 0; c < shape.contracts; ++c) {
    ContractData& cd = d.contracts[c];
    cd.provider_a = "prov-" + std::to_string(c) + "-a";
    cd.provider_b = "prov-" + std::to_string(c) + "-b";
    cd.algorithm = shape.algorithms[c % shape.algorithms.size()];
    PPJ_RETURN_NOT_OK(svc.RegisterParty(cd.provider_a, Mix(seed, 2000 + 2 * c)));
    PPJ_RETURN_NOT_OK(svc.RegisterParty(cd.provider_b, Mix(seed, 2001 + 2 * c)));
    PPJ_ASSIGN_OR_RETURN(
        cd.id, svc.CreateContract({cd.provider_a, cd.provider_b},
                                  "tenant-" + std::to_string(c % shape.tenants),
                                  "wallbench equijoin"));
    relation::EquijoinSpec spec;
    spec.size_a = shape.size_a;
    spec.size_b = shape.size_b;
    spec.n_max = shape.n;
    spec.result_size = shape.s;
    spec.seed = Mix(seed, c);
    PPJ_ASSIGN_OR_RETURN(cd.data, relation::MakeEquijoinWorkload(spec));
    cd.multiway =
        std::make_unique<relation::PairAsMultiway>(cd.data.predicate.get());
    // Both sides padded to a power of two, as ppjctl submits them:
    // Algorithm 3 needs it for B, and every shape here is already one.
    for (const auto& [party, rel] :
         {std::pair{cd.provider_a, cd.data.a.get()},
          std::pair{cd.provider_b, cd.data.b.get()}}) {
      const std::uint64_t t0 = NowNs();
      PPJ_RETURN_NOT_OK(svc.SubmitRelation(cd.id, party, *rel, true));
      d.ingest_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
  }
  return d;
}

std::vector<std::string> MultisetKey(
    const std::vector<relation::Tuple>& tuples) {
  std::vector<std::string> key;
  key.reserve(tuples.size());
  for (const relation::Tuple& t : tuples) {
    const std::vector<std::uint8_t> bytes = t.Serialize();
    key.emplace_back(bytes.begin(), bytes.end());
  }
  std::sort(key.begin(), key.end());
  return key;
}

void ComputeExpected(Deployment& d) {
  for (ContractData& c : d.contracts) {
    const relation::Schema schema =
        relation::Schema::Concat(c.data.a->schema(), c.data.b->schema());
    const relation::GroundTruth truth = relation::ComputeGroundTruth(
        *c.data.a, *c.data.b, *c.data.predicate, &schema);
    c.expected = MultisetKey(truth.expected);
  }
}

namespace {

Surface SurfaceOf(const service::JoinDelivery& delivery, unsigned shards) {
  Surface s;
  s.transfers = delivery.metrics.TupleTransfers();
  s.events = delivery.trace.count;
  s.digest = shards > 1 ? delivery.trace.digest : delivery.timing.digest;
  return s;
}

}  // namespace

std::string Checker::CheckJoin(const ContractData& c, const std::string& group,
                               const service::JoinDelivery& delivery,
                               unsigned shards) {
  if (MultisetKey(delivery.tuples) != c.expected) {
    return "contract " + c.id + ": delivered " +
           std::to_string(delivery.tuples.size()) +
           " tuples differ from the plaintext join (" +
           std::to_string(c.expected.size()) + " tuples)";
  }
  const Surface got = SurfaceOf(delivery, shards);
  const auto [it, inserted] = surfaces_.emplace(group, got);
  if (!inserted && !(it->second == got)) {
    return "group " + group + ": trace surface differs between shape-equal " +
           "requests (transfers " + std::to_string(got.transfers) + " vs " +
           std::to_string(it->second.transfers) + ", events " +
           std::to_string(got.events) + " vs " +
           std::to_string(it->second.events) + ")";
  }
  return "";
}

std::string Checker::CheckAggregate(const ContractData& c,
                                    const core::AggregateSpec& spec,
                                    const core::AggregateResult& got) const {
  std::int64_t count = 0, sum = 0;
  for (const relation::Tuple& a : c.data.a->tuples()) {
    for (const relation::Tuple& b : c.data.b->tuples()) {
      if (!c.data.predicate->Match(a, b)) continue;
      ++count;
      sum += (spec.table == 0 ? a : b).GetInt64(spec.column);
    }
  }
  if (got.count != count || got.sum != sum) {
    return "contract " + c.id + ": aggregate (count " +
           std::to_string(got.count) + ", sum " + std::to_string(got.sum) +
           ") != plaintext (" + std::to_string(count) + ", " +
           std::to_string(sum) + ")";
  }
  return "";
}

std::string Checker::CheckGroupBy(const ContractData& c,
                                  const core::GroupByCountSpec& spec,
                                  const core::GroupByCountResult& got) const {
  std::vector<std::int64_t> counts(
      static_cast<std::size_t>(spec.domain_hi - spec.domain_lo + 1), 0);
  std::int64_t overflow = 0;
  for (const relation::Tuple& a : c.data.a->tuples()) {
    for (const relation::Tuple& b : c.data.b->tuples()) {
      if (!c.data.predicate->Match(a, b)) continue;
      const std::int64_t v = (spec.table == 0 ? a : b).GetInt64(spec.column);
      if (v < spec.domain_lo || v > spec.domain_hi) {
        ++overflow;
      } else {
        ++counts[static_cast<std::size_t>(v - spec.domain_lo)];
      }
    }
  }
  if (got.domain_lo != spec.domain_lo || got.counts != counts ||
      got.overflow != overflow) {
    return "contract " + c.id + ": group-by counts differ from plaintext";
  }
  return "";
}

service::ExecuteOptions BaseOptions(const Shape& shape, const ContractData& c) {
  service::ExecuteOptions o;
  o.algorithm = c.algorithm;
  o.n = shape.n;
  o.memory_tuples = shape.m;
  o.shards = shape.shards;
  o.seed = 1;
  // Only the service mix exercises the reuse cache; elsewhere every request
  // must really execute.
  o.allow_reuse = shape.mixed;
  return o;
}

namespace {

struct Query {
  service::JoinRequest::Kind kind = service::JoinRequest::Kind::kPairJoin;
  std::uint64_t seed = 1;
};

struct Pending {
  service::Ticket ticket;
  std::size_t contract = 0;
  Query query;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t root_span = 0;
};

/// Per-contract history the mix draws repeats from.
struct History {
  std::uint64_t epoch = 0;  ///< Bumped by every resubmit.
  struct Entry {
    std::uint64_t request;
    std::uint64_t epoch;
    Query query;
  };
  std::vector<Entry> entries;
};

}  // namespace

LoopStats RunLoop(const Shape& shape, Deployment& d, std::uint64_t seed,
                  double seconds, unsigned max_outstanding, Checker& checker,
                  Tracer* tracer, std::vector<std::uint64_t>* request_roots,
                  std::uint64_t first_request, int slices,
                  const std::function<void()>& between_slices) {
  service::SovereignJoinService& svc = *d.service;
  LoopStats st;
  std::vector<History> history(d.contracts.size());
  std::deque<Pending> pending;
  std::uint64_t r = first_request;
  const std::uint64_t t_start = NowNs();
  const double cpu_start = CpuSeconds();
  const std::uint64_t slice_ns =
      static_cast<std::uint64_t>(seconds * 1e9 / std::max(slices, 1));
  std::uint64_t deadline = t_start + slice_ns;
  std::uint64_t paused_ns = 0;
  double paused_cpu = 0;

  auto fail = [&](const std::string& why) {
    ++st.failed;
    if (st.errors.size() < 5) st.errors.push_back(why);
  };

  auto submit_next = [&] {
    const std::uint64_t req = r++;
    std::uint64_t rng = Mix(seed, 0x5eed0000 + req);
    auto draw = [&rng](std::uint64_t bound) {
      rng = Mix(rng, bound);
      return rng % bound;
    };
    std::size_t c = req % d.contracts.size();
    Query q;
    if (shape.mixed) {
      // A provider resubmits once per 16 requests: a new relation version,
      // which invalidates the contract's cached intermediates.
      if (req % 16 == 15) {
        const std::size_t rc = draw(d.contracts.size());
        ContractData& cd = d.contracts[rc];
        const std::uint64_t t0 = NowNs();
        const Status s =
            svc.SubmitRelation(cd.id, cd.provider_a, *cd.data.a, true);
        d.ingest_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
        if (!s.ok()) fail("resubmit: " + s.ToString());
        ++history[rc].epoch;
      }
      // Algorithm 3 obliviously sorts the provider's sealed B region in
      // place, so two requests in flight on one Algorithm 3 contract
      // corrupt each other (a known service defect: tag mismatches, the
      // tamper response, even short deliveries). The client therefore never
      // holds two outstanding requests on such a contract; `wallbench
      // --self-test` probes whether the defect still reproduces.
      auto busy = [&](std::size_t k) {
        if (d.contracts[k].algorithm != core::Algorithm::kAlgorithm3) {
          return false;
        }
        return std::any_of(pending.begin(), pending.end(),
                           [k](const Pending& p) { return p.contract == k; });
      };
      do {
        c = draw(d.contracts.size());
      } while (busy(c));
      History& h = history[c];
      // About one request in four repeats this contract's latest query
      // that has certainly completed (the loop waits in submission order,
      // so every request max_outstanding back is done) over unchanged
      // relations: a reuse-cache hit.
      const History::Entry* repeat = nullptr;
      if (draw(4) == 0) {
        for (auto it = h.entries.rbegin(); it != h.entries.rend(); ++it) {
          if (it->request + max_outstanding <= req) {
            if (it->epoch == h.epoch) repeat = &*it;
            break;
          }
        }
      }
      if (repeat != nullptr) {
        q = repeat->query;
      } else {
        const std::uint64_t k = draw(8);
        q.kind = k == 0   ? service::JoinRequest::Kind::kAggregate
                 : k == 1 ? service::JoinRequest::Kind::kGroupByCount
                          : service::JoinRequest::Kind::kPairJoin;
        q.seed = 1000 + req;
      }
      h.entries.push_back({req, h.epoch, q});
      if (h.entries.size() > 64) h.entries.erase(h.entries.begin());
    }
    const ContractData& cd = d.contracts[c];
    service::JoinRequest request;
    switch (q.kind) {
      case service::JoinRequest::Kind::kAggregate:
        request = service::JoinRequest::Aggregate(*cd.multiway, kAggSpec);
        break;
      case service::JoinRequest::Kind::kGroupByCount:
        request = service::JoinRequest::GroupByCount(*cd.multiway, kGroupSpec);
        break;
      default:
        request = service::JoinRequest::PairJoin(*cd.data.predicate);
    }
    service::ExecuteOptions options = BaseOptions(shape, cd);
    options.seed = q.seed;

    Pending p;
    p.contract = c;
    p.query = q;
    p.request = req;
    if (tracer != nullptr) {
      p.root_span = tracer->Begin("request", "bench", 0, req);
      if (request_roots != nullptr) request_roots->push_back(p.root_span);
    }
    ++st.attempted;
    p.start_ns = NowNs();
    Result<service::Ticket> ticket = svc.Submit(cd.id, request, options);
    const std::uint64_t submitted = NowNs();
    st.submit_us.push_back(static_cast<double>(submitted - p.start_ns) / 1e3);
    if (tracer != nullptr) {
      tracer->Add("service.submit", "service", p.root_span, req, p.start_ns,
                  submitted);
    }
    if (!ticket.ok()) {
      ++st.refused;
      fail("submit refused: " + ticket.status().ToString());
      if (tracer != nullptr) tracer->End(p.root_span);
      return;
    }
    p.ticket = *ticket;
    pending.push_back(p);
  };

  // "" when the response is right. Counts executed pair joins.
  auto check_response = [&](const Pending& p,
                            const service::Response& response) -> std::string {
    const ContractData& cd = d.contracts[p.contract];
    switch (p.query.kind) {
      case service::JoinRequest::Kind::kAggregate:
        return response.aggregate
                   ? checker.CheckAggregate(cd, kAggSpec, *response.aggregate)
                   : "aggregate missing from response";
      case service::JoinRequest::Kind::kGroupByCount:
        return response.group_by
                   ? checker.CheckGroupBy(cd, kGroupSpec, *response.group_by)
                   : "group-by missing from response";
      default:
        if (!response.delivery) return "delivery missing from response";
        if (!response.reused) {
          ++st.executed_joins;
          st.join_metrics += response.delivery->metrics;
        }
        return checker.CheckJoin(cd, "pair/" + AlgorithmLabel(cd.algorithm),
                                 *response.delivery, shape.shards);
    }
  };

  auto complete_oldest = [&] {
    Pending p = pending.front();
    pending.pop_front();
    const std::uint64_t wait_start = NowNs();
    Result<service::Response> response = svc.Wait(p.ticket);
    const std::uint64_t done = NowNs();
    if (tracer != nullptr) {
      const std::uint64_t wait_span = tracer->Add(
          "service.wait", "service", p.root_span, p.request, wait_start, done);
      if (auto life = svc.lifecycle(p.ticket)) {
        st.queue_wait_ms.push_back(
            static_cast<double>(life->queue_wait_ns()) / 1e6);
        st.exec_ms.push_back(static_cast<double>(life->execution_ns()) / 1e6);
        // The worker-side execution, from the scheduler's lifecycle record.
        // It ends just before Wait returns; the replays break it down.
        const std::uint64_t exec = std::min(life->execution_ns(), done);
        tracer->Add("service.exec", "engine", wait_span, p.request,
                    done - exec, done);
      }
    }
    {
      ScopedSpan check(tracer, "bench.check", "bench", p.root_span,
                       p.request);
      svc.Release(p.ticket);
      if (!response.ok()) {
        fail("request failed: " + response.status().ToString());
      } else {
        st.latency_ms.push_back(static_cast<double>(done - p.start_ns) / 1e6);
        if (response->reused) ++st.reused;
        const std::string err = check_response(p, *response);
        if (err.empty()) {
          ++st.completed;
        } else {
          fail(err);
        }
      }
    }
    if (tracer != nullptr) tracer->End(p.root_span);
  };

  for (int slice = 0; slice < std::max(slices, 1); ++slice) {
    if (slice > 0) {
      // Between slices the loop is drained and its clocks are paused.
      const std::uint64_t p0 = NowNs();
      const double c0 = CpuSeconds();
      between_slices();
      paused_ns += NowNs() - p0;
      paused_cpu += CpuSeconds() - c0;
      deadline = NowNs() + slice_ns;
    }
    while (NowNs() < deadline) {
      while (pending.size() < max_outstanding && NowNs() < deadline) {
        submit_next();
      }
      if (!pending.empty()) complete_oldest();
    }
    while (!pending.empty()) complete_oldest();
  }
  st.wall_s = static_cast<double>(NowNs() - t_start - paused_ns) / 1e9;
  st.cpu_s = CpuSeconds() - cpu_start - paused_cpu;
  st.last_request = r;
  return st;
}

}  // namespace wallbench
