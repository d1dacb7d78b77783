// wallbench: wall-clock benchmark of ppj through the public service API.
//
//   wallbench --workload scan|sort|service|scaleout --seed N --seconds S
//             --trace 0|1 [--dump SPANS.json]
//   wallbench --self-test
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload in
// alternating untraced and traced slices, replays requests layer by layer,
// and prints the per-layer metrics and report. The last stdout line is one
// JSON object {"correct", "attempted", "failed", "metrics"}. Exit status: 0
// when every delivered output checked out, 1 when any check failed, 2 on a
// usage or set-up error (no result line).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "crypto/key.h"
#include "crypto/ocb.h"
#include "micro.h"
#include "oblivious/sort_simd.h"
#include "replay.h"
#include "spans.h"
#include "workload.h"

namespace wallbench {
namespace {

namespace core = ppj::core;
namespace service = ppj::service;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string dump;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--dump") {
      a->dump = v;
    } else {
      return false;
    }
  }
  return a->self_test || (!a->workload.empty() && a->seconds > 0);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// A latency percentile and how many samples lie beyond it.
struct Tail {
  double p = 0.5;
  double value = 0;
  std::size_t beyond = 0;
};
Tail TailAt(const std::vector<double>& v, double p) {
  Tail t;
  t.p = p;
  t.value = Percentile(v, p);
  for (double x : v) t.beyond += x > t.value;
  return t;
}
/// Highest of p50..p99.9 with at least 10 samples beyond it.
Tail TailOf(const std::vector<double>& v) {
  double best = 0.5;
  for (double p : {0.75, 0.9, 0.95, 0.99, 0.999}) {
    if ((1.0 - p) * static_cast<double>(v.size()) + 1e-9 >= 10.0) best = p;
  }
  return TailAt(v, best);
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// `ppjctl join --alg=` spelling of an algorithm.
const char* CtlAlg(core::Algorithm alg) {
  static const char* kNames[] = {"1", "1v", "2", "3", "4", "5", "6"};
  return kNames[static_cast<int>(alg)];
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") +
                  (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) +
                  ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
  std::fflush(stdout);
}

void PrintParams(const Args& a, const Shape& shape, const Deployment& d,
                 unsigned outstanding) {
  const ppj::crypto::Ocb probe(ppj::crypto::DeriveKey(1, "probe"));
  std::printf(
      "PARAMS {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"nproc\": %u, \"build_type\": \"%s\", \"simd_tier\": \"%s\", "
      "\"aes_ni\": %s, \"scheduler_workers\": %u, \"backend\": \"mem\", "
      "\"shards\": %u, \"contracts\": %u, \"tenants\": %u, \"size_a\": %llu, "
      "\"size_b\": %llu, \"n\": %llu, \"s\": %llu, \"m\": %llu, "
      "\"outstanding\": %u}\n",
      shape.name.c_str(), static_cast<unsigned long long>(a.seed),
      Num(a.seconds).c_str(), std::thread::hardware_concurrency(),
      WALLBENCH_BUILD_TYPE,
      ppj::oblivious::SimdTierName(ppj::oblivious::ActiveSimdTier()),
      probe.hardware_accelerated() ? "true" : "false",
      d.service->scheduler_stats().workers,
      shape.shards, shape.contracts, shape.tenants,
      static_cast<unsigned long long>(shape.size_a),
      static_cast<unsigned long long>(shape.size_b),
      static_cast<unsigned long long>(shape.n),
      static_cast<unsigned long long>(shape.s),
      static_cast<unsigned long long>(shape.m), outstanding);
}

/// Adds one timed phase's counts and samples to another's.
void Append(LoopStats& into, const LoopStats& from) {
  into.attempted += from.attempted;
  into.completed += from.completed;
  into.failed += from.failed;
  into.refused += from.refused;
  into.reused += from.reused;
  into.executed_joins += from.executed_joins;
  into.wall_s += from.wall_s;
  into.cpu_s += from.cpu_s;
  for (auto [to, src] : {std::pair{&into.latency_ms, &from.latency_ms},
                         std::pair{&into.submit_us, &from.submit_us},
                         std::pair{&into.queue_wait_ms, &from.queue_wait_ms},
                         std::pair{&into.exec_ms, &from.exec_ms}}) {
    to->insert(to->end(), src->begin(), src->end());
  }
  into.join_metrics += from.join_metrics;
  into.errors.insert(into.errors.end(), from.errors.begin(),
                     from.errors.end());
  into.last_request = from.last_request;
}

/// `total` per executed (not reused) pair join.
double PerJoin(std::uint64_t total, const LoopStats& st) {
  return st.executed_joins > 0 ? static_cast<double>(total) /
                                     static_cast<double>(st.executed_joins)
                               : 0;
}

/// The line run.py turns into a `ppjctl join` at the same shape: the
/// transfers per join must match exactly. Single-algorithm workloads only.
void PrintCrossCheck(const Shape& shape, const LoopStats& st) {
  if (shape.mixed || st.executed_joins == 0) return;
  std::printf(
      "CROSSCHECK {\"alg\": \"%s\", \"size_a\": %llu, \"size_b\": %llu, "
      "\"n\": %llu, \"s\": %llu, \"m\": %llu, \"shards\": %u, "
      "\"transfers\": %s}\n",
      CtlAlg(*shape.algorithms[0]),
      static_cast<unsigned long long>(shape.size_a),
      static_cast<unsigned long long>(shape.size_b),
      static_cast<unsigned long long>(shape.n),
      static_cast<unsigned long long>(shape.s),
      static_cast<unsigned long long>(shape.m), shape.shards,
      Num(PerJoin(st.join_metrics.TupleTransfers(), st)).c_str());
}

void PrintErrors(const LoopStats& st) {
  for (const std::string& e : st.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
}

// ---- End-to-end run (--trace 0) ------------------------------------------

std::vector<Metric> EndToEnd(const Shape& shape,
                             const std::vector<double>& setup_s,
                             const Deployment& d, const LoopStats& st) {
  const Tail tail = TailAt(st.latency_ms, shape.tail_p);
  const double done = static_cast<double>(std::max<std::uint64_t>(st.completed, 1));
  std::vector<Metric> m = {
      {"setup_s", "s", Median(setup_s)},
      {"join_ms_p50", "ms", Median(st.latency_ms)},
      {"join_ms_tail", "ms", tail.value},
      {"joins_per_s", "1/s", static_cast<double>(st.completed) / st.wall_s},
      {"cpu_ms_per_join", "ms", st.cpu_s * 1e3 / done},
      {"transfers_per_join", "count", PerJoin(st.join_metrics.TupleTransfers(), st)},
      {"ingest_ms_p50", "ms", Median(d.ingest_ms)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  std::printf("end-to-end metrics (%llu completed in %.2f s)\n",
              static_cast<unsigned long long>(st.completed), st.wall_s);
  for (const Metric& x : m) {
    std::printf("  %-20s %14.4f %s", x.name.c_str(), x.value, x.unit.c_str());
    if (x.name == "join_ms_tail") {
      std::printf("   (p%g over %zu samples, %zu beyond%s)", tail.p * 100,
                  st.latency_ms.size(), tail.beyond,
                  tail.beyond < 10 ? "; FEWER THAN 10" : "");
    } else if (x.name == "setup_s") {
      std::printf("   (median of %zu set-ups)", setup_s.size());
    } else if (x.name == "ingest_ms_p50") {
      std::printf("   (%zu ingests)", d.ingest_ms.size());
    }
    std::printf("\n");
  }
  std::printf("  latency percentiles  ");
  for (double p : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    std::printf(" p%g=%.4g", p * 100, Percentile(st.latency_ms, p));
  }
  std::printf(" ms\n");
  std::printf("  %-20s %14.4f ratio   (%llu failed of %llu attempted)\n",
              "failed_frac",
              st.attempted ? static_cast<double>(st.failed) /
                                 static_cast<double>(st.attempted)
                           : 0.0,
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.attempted));
  return m;
}

// ---- Traced run (--trace 1) ----------------------------------------------

/// Per-layer metric names; every traced run reports all of them (0 where a
/// layer does no work on the workload).
std::vector<std::pair<std::string, std::string>> PerLayerNames() {
  std::vector<std::pair<std::string, std::string>> n = {
      {"service.submit_us_p50", "us"},
      {"service.queue_wait_ms_p50", "ms"},
      {"service.queue_wait_ms_tail", "ms"},
      {"service.exec_ms_p50", "ms"},
      {"service.reuse_hit_frac", "ratio"},
      {"service.refused", "count"},
      {"core.planner_us", "us"},
      {"plan.build_us", "us"},
  };
  for (const char* op : {"buffered-emit", "output", "ituple-scan", "filter"}) {
    const std::string p = std::string("plan.op.") + op;
    n.push_back({p + ".ms", "ms"});
    n.push_back({p + ".transfers", "count"});
    n.push_back({p + ".ns_per_transfer", "ns"});
  }
  for (int shard = 0; shard < 2; ++shard) {
    for (const char* op : {"shard-screen", "shard-rank-emit", "exchange"}) {
      const std::string p =
          "plan.shard" + std::to_string(shard) + "." + op;
      n.push_back({p + ".ms", "ms"});
      n.push_back({p + ".transfers", "count"});
    }
  }
  const std::vector<std::pair<std::string, std::string>> rest = {
      {"shard.run_ms", "ms"},
      {"shard.replicate_ms", "ms"},
      {"shard.makespan_transfers", "count"},
      {"shard.imbalance", "ratio"},
      {"shard.channel_bytes", "bytes"},
      {"shard.channel_rounds", "count"},
      {"oblivious.sort.ns_per_transfer", "ns"},
      {"oblivious.sort.transfers", "count"},
      {"sim.get_open_ns_per_slot", "ns"},
      {"sim.put_seal_ns_per_slot", "ns"},
      {"sim.copro_init_us", "us"},
      {"sim.transfers_per_round_trip", "ratio"},
      {"sim.host_regions", "count"},
      {"storage.read_ns_per_slot", "ns"},
      {"storage.write_ns_per_slot", "ns"},
      {"crypto.open_ns_per_slot", "ns"},
      {"crypto.seal_ns_per_slot", "ns"},
      {"crypto.ocb_init_us", "us"},
      {"crypto.cipher_calls_per_join", "count"},
      {"relation.seal_us_per_tuple", "us"},
      {"relation.predicate_ns", "ns"},
      {"relation.comparisons_per_join", "count"},
      {"bench.trace_overhead_frac", "ratio"},
      {"self.service.ms", "ms"},
      {"self.core.ms", "ms"},
      {"self.plan.ms", "ms"},
      {"self.sim.ms", "ms"},
      {"self.relation.ms", "ms"},
      {"self.shard.ms", "ms"},
      {"self.bench.ms", "ms"},
  };
  n.insert(n.end(), rest.begin(), rest.end());
  return n;
}

void PrintLayerReport(const Shape& shape, const LoopStats& traced,
                      const std::vector<ReplayResult>& replays,
                      std::map<std::string, double>& v) {
  const double req_ms = Median(traced.latency_ms);
  const ReplayResult& r0 = replays.front();
  // A request is the service's own time plus the engine beneath it, which
  // the replays break down; shares are of that sum.
  double total_ms = 0;
  for (const char* layer :
       {"service", "core", "plan", "sim", "relation", "shard", "bench"}) {
    total_ms += v[std::string("self.") + layer + ".ms"];
  }
  auto share = [&](double ms) {
    return total_ms > 0 ? 100.0 * ms / total_ms : 0;
  };
  std::uint64_t plan_transfers = 0;
  for (const OpTime& op : r0.ops) plan_transfers += op.transfers;
  std::printf(
      "\nper-layer report: %s (traced request p50 %.3f ms over %zu requests; "
      "layer sum %.3f ms, engine from %zu replays)\n",
      shape.name.c_str(), req_ms, traced.latency_ms.size(), total_ms,
      replays.size());
  std::printf("  %-10s %12s %8s  %-34s %12s\n", "layer", "self ms/req",
              "share", "work per request", "ns per unit");
  auto row = [&](const char* layer, double ms, const std::string& work,
                 double units) {
    std::printf("  %-10s %12.4f %7.2f%%  %-34s %12.2f\n", layer, ms, share(ms),
                work.c_str(), units > 0 ? ms * 1e6 / units : 0.0);
  };
  row("service", v["self.service.ms"], "1 request (submit, queue, handoff)", 1);
  row("core", v["self.core.ms"],
      shape.algorithms[0] ? "0 plans (algorithm fixed)" : "1 planner call",
      shape.algorithms[0] ? 0 : 1);
  if (shape.shards > 1) {
    row("plan", v["self.plan.ms"], "plan build (ops run in shard)", 1);
  } else {
    row("plan", v["self.plan.ms"],
        std::to_string(plan_transfers) + " transfers (ops)",
        static_cast<double>(plan_transfers));
  }
  row("sim", v["self.sim.ms"], "host store + coprocessor set-up", 1);
  row("relation", v["self.relation.ms"],
      "decode of the delivered output", 1);
  // Shard threads run in parallel, so this row sums their busy time.
  const double shard_transfers =
      shape.shards > 1 ? static_cast<double>(r0.metrics.TupleTransfers()) : 0;
  row("shard", v["self.shard.ms"],
      Num(shard_transfers) + " transfers over all shards", shard_transfers);
  row("bench", v["self.bench.ms"], "replay glue + output check", 1);
  std::printf(
      "  inside plan operators (estimated: per-unit cost x count; the rows "
      "overlap)\n");
  const double gets = static_cast<double>(r0.metrics.gets);
  const double puts = static_cast<double>(r0.metrics.puts);
  auto est = [&](const char* layer, double ms, const std::string& work,
                 double units) {
    std::printf("  %-10s %12.4f %7.2f%%  %-34s %12.2f   (est.)\n", layer, ms,
                share(ms), work.c_str(), units > 0 ? ms * 1e6 / units : 0.0);
  };
  est("sim", (gets * v["sim.get_open_ns_per_slot"] +
              puts * v["sim.put_seal_ns_per_slot"]) / 1e6,
      Num(gets) + " gets + " + Num(puts) + " puts", gets + puts);
  est("crypto", (gets * v["crypto.open_ns_per_slot"] +
                 puts * v["crypto.seal_ns_per_slot"]) / 1e6,
      Num(gets) + " opens + " + Num(puts) + " seals", gets + puts);
  est("storage", (gets * v["storage.read_ns_per_slot"] +
                  puts * v["storage.write_ns_per_slot"]) / 1e6,
      Num(gets + puts) + " slots", gets + puts);
  const double sorted = v["plan.op.filter.transfers"];
  est("oblivious", sorted * v["oblivious.sort.ns_per_transfer"] / 1e6,
      Num(sorted) + " filter/sort transfers", sorted);
  const double cmp = static_cast<double>(r0.metrics.comparisons);
  est("relation", cmp * v["relation.predicate_ns"] / 1e6,
      Num(cmp) + " predicate evaluations", cmp);
}

/// --trace 1: untraced and traced halves of one request stream, then
/// layer-by-layer replays and per-slot layer costs.
int TracedRun(const Args& a, const Shape& shape, Deployment& d,
              unsigned outstanding) {
  Checker checker;
  int status = 0;
  // Untraced and traced slices alternate over one request stream, so host
  // drift and warm-up fall on both sides of bench.trace_overhead_frac.
  constexpr int kSlicePairs = 3;
  LoopStats plain, traced;
  Tracer tracer;
  std::vector<std::uint64_t> request_roots;
  std::uint64_t next_request = 0;
  for (int i = 0; i < 2 * kSlicePairs; ++i) {
    const bool trace = i % 2 == 1;
    const LoopStats slice =
        RunLoop(shape, d, a.seed, a.seconds * 0.3 / kSlicePairs, outstanding,
                checker, trace ? &tracer : nullptr,
                trace ? &request_roots : nullptr, next_request);
    next_request = slice.last_request;
    Append(trace ? traced : plain, slice);
  }
  std::map<std::string, double> v;
  v["sim.host_regions"] =
      static_cast<double>(d.service->host().region_count());

  std::vector<ReplayResult> replays;
  std::vector<std::uint64_t> replay_roots;
  const std::uint64_t replay_deadline =
      NowNs() + static_cast<std::uint64_t>(a.seconds * 0.2 * 1e9);
  std::string replay_error;
  for (std::size_t i = 0; replays.size() < 3 || NowNs() < replay_deadline;
       ++i) {
    const ContractData& c = d.contracts[i % d.contracts.size()];
    ReplayResult r = Replay(shape, c, &tracer, 1'000'000'000ULL + i);
    if (!r.error.empty()) {
      replay_error = r.error;
      break;
    }
    replay_roots.push_back(r.root_span);
    replays.push_back(std::move(r));
    if (replays.size() >= 50) break;
  }
  // Definition 1: shape-equal contracts of one algorithm, different
  // contents, one trace.
  std::map<core::Algorithm, ppj::sim::TraceFingerprint> per_algorithm;
  for (const ReplayResult& r : replays) {
    const auto [it, inserted] = per_algorithm.emplace(r.algorithm, r.trace);
    if (!inserted && !(it->second == r.trace) && replay_error.empty()) {
      replay_error = "replayed traces of " + core::ToString(r.algorithm) +
                     " differ between shape-equal contracts: " +
                     it->second.ToString() + " vs " + r.trace.ToString();
    }
  }
  if (!replay_error.empty() || replays.empty()) {
    std::fprintf(stderr, "replay check failed: %s\n", replay_error.c_str());
    status = 1;
  }

  const double untraced_p50 = Median(plain.latency_ms);
  const double traced_p50 = Median(traced.latency_ms);
  v["bench.trace_overhead_frac"] =
      untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0;
  v["service.submit_us_p50"] = Median(traced.submit_us);
  v["service.queue_wait_ms_p50"] = Median(traced.queue_wait_ms);
  v["service.queue_wait_ms_tail"] = TailOf(traced.queue_wait_ms).value;
  v["service.exec_ms_p50"] = Median(traced.exec_ms);
  v["service.reuse_hit_frac"] =
      traced.completed ? static_cast<double>(traced.reused) /
                             static_cast<double>(traced.completed)
                       : 0;
  v["service.refused"] = static_cast<double>(plain.refused + traced.refused);
  v["crypto.cipher_calls_per_join"] =
      PerJoin(traced.join_metrics.cipher_calls, traced);
  v["relation.comparisons_per_join"] =
      PerJoin(traced.join_metrics.comparisons, traced);

  if (!replays.empty()) {
    std::vector<double> planner, build, run_ms, repl_ms;
    // Per operator (per shard when sharded): time and transfers of every
    // replay that ran it. Transfers repeat exactly within one algorithm.
    std::map<std::string, std::vector<double>> op_ms, op_transfers;
    for (const ReplayResult& r : replays) {
      planner.push_back(r.planner_us);
      build.push_back(r.build_us);
      run_ms.push_back(r.run_ms);
      repl_ms.push_back(r.replicate_ms);
      std::map<std::string, std::pair<double, double>> here;
      for (const OpTime& op : r.ops) {
        const std::string key =
            shape.shards > 1
                ? "plan.shard" + std::to_string(op.shard) + "." + op.name
                : "plan.op." + op.name;
        here[key].first += op.ms;
        here[key].second += static_cast<double>(op.transfers);
      }
      for (const auto& [k, mt] : here) {
        op_ms[k].push_back(mt.first);
        op_transfers[k].push_back(mt.second);
      }
    }
    for (const auto& [k, samples] : op_ms) {
      v[k + ".ms"] = Median(samples);
      v[k + ".transfers"] = Median(op_transfers[k]);
      if (shape.shards == 1 && v[k + ".transfers"] > 0) {
        v[k + ".ns_per_transfer"] = v[k + ".ms"] * 1e6 / v[k + ".transfers"];
      }
    }
    v["core.planner_us"] = Median(planner);
    v["plan.build_us"] = Median(build);
    const ReplayResult& r0 = replays.front();
    if (shape.shards > 1) {
      v["shard.run_ms"] = Median(run_ms);
      v["shard.replicate_ms"] = Median(repl_ms);
      v["shard.makespan_transfers"] = static_cast<double>(r0.makespan_transfers);
      v["shard.imbalance"] = r0.imbalance;
      v["shard.channel_bytes"] = static_cast<double>(r0.channel_bytes);
      v["shard.channel_rounds"] = static_cast<double>(r0.channel_rounds);
    }
    const std::map<std::string, double> micro =
        MeasureLayers(shape, d.contracts[0], r0);
    v.insert(micro.begin(), micro.end());
    const std::map<std::string, double> replay_self =
        tracer.SelfNsByLayer(replay_roots);
    for (const char* layer : {"core", "plan", "sim", "relation", "shard",
                              "bench"}) {
      const auto it = replay_self.find(layer);
      v[std::string("self.") + layer + ".ms"] =
          it == replay_self.end()
              ? 0
              : it->second / 1e6 / static_cast<double>(replays.size());
    }
    const std::map<std::string, double> request_self =
        tracer.SelfNsByLayer(request_roots);
    const auto svc_it = request_self.find("service");
    v["self.service.ms"] =
        svc_it == request_self.end() || request_roots.empty()
            ? 0
            : svc_it->second / 1e6 / static_cast<double>(request_roots.size());
    PrintLayerReport(shape, traced, replays, v);
  }
  if (!a.dump.empty() && !tracer.Dump(a.dump)) {
    std::fprintf(stderr, "cannot write span dump %s\n", a.dump.c_str());
  }
  PrintCrossCheck(shape, traced);
  PrintErrors(plain);
  PrintErrors(traced);
  const std::uint64_t failed = plain.failed + traced.failed;
  if (failed > 0) status = 1;
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : PerLayerNames()) {
    const auto it = v.find(name);
    metrics.push_back({name, unit, it == v.end() ? 0.0 : it->second});
  }
  PrintResult(status == 0, std::max<std::uint64_t>(
                               plain.attempted + traced.attempted, 1),
              failed, metrics);
  return status;
}

int Run(const Args& a) {
  const Shape* shape_ptr = FindShape(a.workload);
  if (shape_ptr == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  const Shape& shape = *shape_ptr;

  // setup_s is the median of kSetups identical set-ups: the one that serves
  // the timed phase, then one between each two slices of the timed phase
  // (torn down at once), so the samples span the run instead of one moment.
  constexpr int kSetups = 10;
  std::vector<double> setup_s;
  auto set_up = [&] {
    const std::uint64_t t0 = NowNs();
    ppj::Result<Deployment> made = SetUp(shape, a.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    return made;
  };
  ppj::Result<Deployment> first = set_up();
  if (!first.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 first.status().ToString().c_str());
    return 2;
  }
  Deployment d = std::move(first).value();
  ComputeExpected(d);
  const unsigned outstanding =
      shape.mixed ? 2 * std::max(1u, std::thread::hardware_concurrency()) : 1;
  PrintParams(a, shape, d, outstanding);

  if (a.trace) return TracedRun(a, shape, d, outstanding);

  Checker checker;
  std::string setup_error;
  const LoopStats st = RunLoop(
      shape, d, a.seed, a.seconds, outstanding, checker, nullptr, nullptr, 0,
      kSetups, [&] {
        ppj::Result<Deployment> again = set_up();
        if (!again.ok()) {
          setup_error = again.status().ToString();
          return;
        }
        d.ingest_ms.insert(d.ingest_ms.end(), again->ingest_ms.begin(),
                           again->ingest_ms.end());
      });
  if (!setup_error.empty()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup_error.c_str());
    return 2;
  }
  const std::vector<Metric> m = EndToEnd(shape, setup_s, d, st);
  PrintCrossCheck(shape, st);
  PrintErrors(st);
  PrintResult(st.failed == 0, std::max<std::uint64_t>(st.attempted, 1),
              st.failed, m);
  return st.failed == 0 ? 0 : 1;
}

// ---- Self-test -------------------------------------------------------------

/// Proves the checks reject what they must: a corrupted delivery, a
/// delivery whose trace surface differs from its shape-equal siblings, and
/// a wrong aggregate; and that a replay reproduces the real engine.
int SelfTest() {
  const Shape& shape = *FindShape("service");
  ppj::Result<Deployment> made = SetUp(shape, 1);
  if (!made.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 made.status().ToString().c_str());
    return 2;
  }
  Deployment d = std::move(made).value();
  ComputeExpected(d);
  int failures = 0;
  auto expect = [&failures](bool ok, const char* what) {
    std::printf("  %-58s %s\n", what, ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  // Contract 0 runs the planner's choice; contract 3 pins Algorithm 3.
  const ContractData& c = d.contracts[0];
  ppj::Result<service::Response> r = d.service->Execute(
      c.id, service::JoinRequest::PairJoin(*c.data.predicate),
      BaseOptions(shape, c));
  if (!r.ok() || !r->delivery) {
    std::fprintf(stderr, "join failed: %s\n", r.status().ToString().c_str());
    return 2;
  }
  const service::JoinDelivery& good = *r->delivery;
  Checker checker;
  expect(checker.CheckJoin(c, "g", good, 1).empty(),
         "a correct delivery passes");
  expect(!good.tuples.empty(), "the delivery is not empty");

  auto copy_of = [](const service::JoinDelivery& from) {
    service::JoinDelivery to;
    to.tuples = from.tuples;
    to.metrics = from.metrics;
    to.trace = from.trace;
    to.timing = from.timing;
    return to;
  };
  service::JoinDelivery dropped = copy_of(good);
  dropped.tuples.pop_back();
  expect(!checker.CheckJoin(c, "g", dropped, 1).empty(),
         "a delivery missing one tuple is rejected");
  service::JoinDelivery duplicated = copy_of(good);
  duplicated.tuples.back() = duplicated.tuples.front();
  expect(duplicated.tuples.size() < 2 ||
             !checker.CheckJoin(c, "g", duplicated, 1).empty(),
         "a delivery with one tuple replaced is rejected");
  service::JoinDelivery retimed = copy_of(good);
  retimed.timing.digest ^= 1;
  expect(!checker.CheckJoin(c, "g", retimed, 1).empty(),
         "a mismatched timing fingerprint is rejected");
  service::JoinDelivery longer = copy_of(good);
  longer.trace.count += 1;
  expect(!checker.CheckJoin(c, "g", longer, 1).empty(),
         "a mismatched trace length is rejected");
  service::JoinDelivery sharded = copy_of(good);
  Checker sharded_checker;
  expect(sharded_checker.CheckJoin(c, "s", sharded, 2).empty(),
         "a sharded delivery passes");
  sharded.trace.digest ^= 1;
  expect(!sharded_checker.CheckJoin(c, "s", sharded, 2).empty(),
         "a mismatched union fingerprint is rejected");

  const core::AggregateSpec agg{core::AggregateKind::kSum, 0, 0};
  ppj::Result<service::Response> ar = d.service->Execute(
      c.id, service::JoinRequest::Aggregate(*c.multiway, agg),
      BaseOptions(shape, c));
  expect(ar.ok() && ar->aggregate &&
             checker.CheckAggregate(c, agg, *ar->aggregate).empty(),
         "a correct aggregate passes");
  if (ar.ok() && ar->aggregate) {
    core::AggregateResult wrong = *ar->aggregate;
    wrong.sum += 1;
    expect(!checker.CheckAggregate(c, agg, wrong).empty(),
           "a wrong aggregate is rejected");
  }
  for (std::size_t i : {0, 3, 6}) {
    const ReplayResult rr =
        Replay(shape, d.contracts[i], nullptr, 0);
    expect(rr.error.empty(),
           ("replay reproduces PlanExecutor::Run for " +
            AlgorithmLabel(d.contracts[i].algorithm))
               .c_str());
    if (!rr.error.empty()) std::printf("    %s\n", rr.error.c_str());
  }
  Shape two = shape;
  two.shards = 2;
  two.algorithms = {core::Algorithm::kAlgorithm5};
  ContractData& c5 = d.contracts[1];
  c5.algorithm = core::Algorithm::kAlgorithm5;
  const ReplayResult rs = Replay(two, c5, nullptr, 0);
  expect(rs.error.empty(), "sharded replay reproduces RunShardedJoin");
  if (!rs.error.empty()) std::printf("    %s\n", rs.error.c_str());

  // Not a pass/fail check: reports whether the known Algorithm 3 race
  // (requests in flight together on one contract sort the same sealed input
  // region in place) still reproduces. The service workload avoids it.
  const ContractData& c3 = d.contracts[3];
  Checker race_checker;
  int bad = 0, rounds = 0;
  for (; rounds < 50 && bad == 0; ++rounds) {
    std::vector<service::Ticket> tickets;
    for (int i = 0; i < 8; ++i) {
      service::ExecuteOptions o = BaseOptions(shape, c3);
      o.allow_reuse = false;
      ppj::Result<service::Ticket> t = d.service->Submit(
          c3.id, service::JoinRequest::PairJoin(*c3.data.predicate), o);
      if (t.ok()) {
        tickets.push_back(*t);
      } else {
        ++bad;
      }
    }
    for (const service::Ticket& t : tickets) {
      ppj::Result<service::Response> resp = d.service->Wait(t);
      d.service->Release(t);
      if (!resp.ok() || !resp->delivery ||
          !race_checker.CheckJoin(c3, "race", *resp->delivery, 1).empty()) {
        ++bad;
      }
    }
  }
  std::printf("  known-defect probe, concurrent Algorithm 3 requests on one "
              "contract: %s after %d rounds of 8\n",
              bad > 0 ? "REPRODUCED" : "not reproduced", rounds);
  std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wallbench

int main(int argc, char** argv) {
  wallbench::Args args;
  if (!wallbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wallbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--dump FILE]\n"
                 "       wallbench --self-test\n");
    return 2;
  }
  return args.self_test ? wallbench::SelfTest() : wallbench::Run(args);
}
