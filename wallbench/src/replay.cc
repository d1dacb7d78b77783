#include "replay.h"

#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/math.h"
#include "core/join_result.h"
#include "core/planner.h"
#include "crypto/key.h"
#include "plan/builder.h"
#include "plan/executor.h"
#include "plan/sharded.h"
#include "relation/encrypted_relation.h"
#include "sim/shard_channel.h"
#include "sim/sharded_store.h"

namespace wallbench {

using ppj::Result;
using ppj::Status;
namespace core = ppj::core;
namespace crypto = ppj::crypto;
namespace plan = ppj::plan;
namespace relation = ppj::relation;
namespace service = ppj::service;
namespace sim = ppj::sim;

namespace {

double Us(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e3;
}

/// The operator loop of plan::PlanExecutor::Run, with a span and a transfer
/// delta per operator. Everything the executor does that touches the
/// adversary surface (wire shape, arena pool wiring, ShouldRun, the
/// `finished` early exit, checkpoints) is reproduced; its telemetry spans
/// and retry-metric publication are read-only and left out.
Status DriveOps(sim::Coprocessor& copro, plan::PhysicalPlan& physical,
                plan::PlanContext& ctx, unsigned shard,
                const std::string& span_prefix, const std::string& layer,
                Tracer* tracer, std::uint64_t parent, std::uint64_t request,
                std::vector<OpTime>* ops) {
  PPJ_RETURN_NOT_OK(ctx.InitWireShape());
  copro.set_arena_pool(&ctx.arena_pool);
  struct PoolGuard {
    sim::Coprocessor* copro;
    ~PoolGuard() { copro->set_arena_pool(nullptr); }
  } pool_guard{&copro};
  for (const std::unique_ptr<plan::ObliviousOp>& op : physical.ops) {
    if (ctx.finished) break;
    if (!op->ShouldRun(ctx)) continue;
    const std::string name(op->name());
    const std::uint64_t before = copro.metrics().TupleTransfers();
    const std::uint64_t t0 = NowNs();
    const Status status = op->Run(copro, ctx);
    const std::uint64_t t1 = NowNs();
    if (tracer != nullptr) {
      tracer->Add(span_prefix + name, layer, parent, request, t0, t1);
    }
    PPJ_RETURN_NOT_OK(status);
    ctx.checkpoints.push_back(
        core::OpCheckpoint{name, copro.trace().fingerprint()});
    ops->push_back(OpTime{name, shard, static_cast<double>(t1 - t0) / 1e6,
                          copro.metrics().TupleTransfers() - before});
  }
  return Status::OK();
}

/// plan/sharded.cc's union rule: every shard's fingerprint in shard order,
/// then the channel's.
sim::TraceFingerprint UnionFingerprint(
    const std::vector<sim::TraceFingerprint>& shards,
    const sim::TraceFingerprint& channel) {
  ppj::RunningHash hash;
  std::uint64_t count = 0;
  for (const sim::TraceFingerprint& fp : shards) {
    hash.UpdateU64(fp.digest);
    hash.UpdateU64(fp.count);
    count += fp.count;
  }
  hash.UpdateU64(channel.digest);
  hash.UpdateU64(channel.count);
  count += channel.count;
  return sim::TraceFingerprint{hash.digest(), count};
}

bool SameCheckpoints(const std::vector<core::OpCheckpoint>& a,
                     const std::vector<core::OpCheckpoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].op != b[i].op || !(a[i].trace == b[i].trace)) {
      return false;
    }
  }
  return true;
}

struct Keys {
  crypto::Ocb a{crypto::DeriveKey(1, "wallbench-provider-a")};
  crypto::Ocb b{crypto::DeriveKey(1, "wallbench-provider-b")};
  crypto::Ocb out{crypto::DeriveKey(1, "wallbench-recipient")};
};

std::string CheckOutput(const ContractData& c, const sim::HostStore& host,
                        sim::RegionId region, std::uint64_t slots,
                        const crypto::Ocb& key, Tracer* tracer,
                        std::uint64_t parent, std::uint64_t request) {
  const relation::Schema schema =
      relation::Schema::Concat(c.data.a->schema(), c.data.b->schema());
  Result<std::vector<relation::Tuple>> decoded =
      Status::Internal("not decoded");
  {
    ScopedSpan span(tracer, "relation.decode", "relation", parent, request);
    decoded = core::DecodeJoinOutput(host, region, slots, key, &schema);
  }
  ScopedSpan span(tracer, "bench.check", "bench", parent, request);
  if (!decoded.ok()) return "replay decode: " + decoded.status().ToString();
  if (MultisetKey(*decoded) != c.expected) {
    return "replayed join output differs from the plaintext join";
  }
  return "";
}

/// The serial engine beneath one service ticket.
void ReplaySerial(const ContractData& c,
                  const service::ExecuteOptions& options,
                  core::Algorithm algorithm, Tracer* tracer,
                  std::uint64_t root, std::uint64_t request,
                  ReplayResult& out) {
  static const Keys keys;  // Party keys exist before any request.
  const bool ch4 = core::IsChapter4(algorithm);
  const std::uint64_t pad_a = ppj::NextPowerOfTwo(c.data.a->size());
  const std::uint64_t pad_b = ppj::NextPowerOfTwo(c.data.b->size());
  plan::JoinPlanOptions popts;
  popts.n = options.n;
  popts.epsilon = options.epsilon;
  popts.order_seed = options.seed;
  sim::CoprocessorOptions copts;
  copts.memory_tuples = options.memory_tuples;
  copts.seed = options.seed;
  copts.batch_slots = options.batch_slots;

  // One prepared store per engine: the driven loop and the reference
  // executor must see identical region-creation histories.
  struct Prepared {
    std::unique_ptr<sim::HostStore> host;
    std::optional<relation::EncryptedRelation> a, b;
    std::optional<core::TwoWayJoin> two_way;
    std::optional<core::MultiwayJoin> multiway;
    std::optional<plan::PhysicalPlan> physical;
  };
  auto prepare = [&](bool traced, Prepared& p) -> Status {
    Tracer* t = traced ? tracer : nullptr;
    {
      ScopedSpan span(t, "sim.host_init", "sim", root, request);
      p.host = std::make_unique<sim::HostStore>();
    }
    {
      // Provider-side ingest: the service seals at SubmitRelation, not per
      // request, so its time is charged to no request layer.
      ScopedSpan span(t, "relation.seal", "ingest", root, request);
      PPJ_ASSIGN_OR_RETURN(p.a, relation::EncryptedRelation::Seal(
                                    p.host.get(), *c.data.a, &keys.a, pad_a));
      PPJ_ASSIGN_OR_RETURN(p.b, relation::EncryptedRelation::Seal(
                                    p.host.get(), *c.data.b, &keys.b, pad_b));
      if (traced) out.input_slot = p.host->RegionSlotSize(p.a->region());
    }
    if (ch4) {
      p.two_way = core::TwoWayJoin{&*p.a, &*p.b, c.data.predicate.get(),
                                   &keys.out};
    } else {
      p.multiway = core::MultiwayJoin{{&*p.a, &*p.b}, c.multiway.get(),
                                      &keys.out};
    }
    ScopedSpan span(t, "plan.build", "plan", root, request);
    const std::uint64_t t0 = NowNs();
    PPJ_ASSIGN_OR_RETURN(
        p.physical,
        plan::BuildJoinPlan(algorithm, p.two_way ? &*p.two_way : nullptr,
                            p.multiway ? &*p.multiway : nullptr, popts));
    if (traced) out.build_us = Us(t0, NowNs());
    return Status::OK();
  };

  Prepared driven, reference;
  if (Status s = prepare(true, driven); !s.ok()) {
    out.error = "replay set-up: " + s.ToString();
    return;
  }
  std::optional<sim::Coprocessor> copro;
  {
    ScopedSpan span(tracer, "sim.copro_init", "sim", root, request);
    copro.emplace(driven.host.get(), copts);
  }
  plan::PlanContext ctx(driven.two_way ? &*driven.two_way : nullptr,
                        driven.multiway ? &*driven.multiway : nullptr);
  if (Status s = DriveOps(*copro, *driven.physical, ctx, 0, "plan.op.", "plan",
                          tracer, root, request, &out.ops);
      !s.ok()) {
    out.error = "driven plan: " + s.ToString();
    return;
  }
  out.join_slot = ctx.slot;
  out.metrics = copro->metrics();
  out.trace = copro->trace().fingerprint();
  const std::uint64_t slots = ch4 ? plan::TakeCh4Outcome(ctx).output_slots
                                  : plan::TakeCh5Outcome(ctx).result_size;
  out.error = CheckOutput(c, *driven.host, ctx.output_region, slots, keys.out,
                          tracer, root, request);
  if (!out.error.empty()) return;

  // Verification, not part of the replayed request: the real executor on an
  // identically prepared store.
  if (tracer != nullptr) tracer->End(root);
  ScopedSpan verify(tracer, "bench.verify", "verify", 0, request);
  if (Status s = prepare(false, reference); !s.ok()) {
    out.error = "reference set-up: " + s.ToString();
    return;
  }
  sim::Coprocessor ref_copro(reference.host.get(), copts);
  plan::PlanContext ref_ctx(
      reference.two_way ? &*reference.two_way : nullptr,
      reference.multiway ? &*reference.multiway : nullptr);
  if (Status s = plan::PlanExecutor().Run(ref_copro, *reference.physical,
                                          ref_ctx);
      !s.ok()) {
    out.error = "reference executor: " + s.ToString();
    return;
  }
  if (!(copro->trace().fingerprint() == ref_copro.trace().fingerprint()) ||
      !(copro->timing_fingerprint() == ref_copro.timing_fingerprint()) ||
      !(copro->metrics() == ref_copro.metrics()) ||
      !SameCheckpoints(ctx.checkpoints, ref_ctx.checkpoints)) {
    out.error = "driven plan fingerprint " +
                copro->trace().fingerprint().ToString() +
                " != PlanExecutor::Run " +
                ref_copro.trace().fingerprint().ToString();
  }
}

/// The sharded engine beneath one service ticket (plan::RunShardedJoin).
void ReplaySharded(const Shape& shape, const ContractData& c,
                   const service::ExecuteOptions& options,
                   core::Algorithm algorithm, Tracer* tracer,
                   std::uint64_t root, std::uint64_t request,
                   ReplayResult& out) {
  static const Keys keys;  // Party keys exist before any request.
  const unsigned shards = shape.shards;
  const std::uint64_t pad_a = ppj::NextPowerOfTwo(c.data.a->size());
  const std::uint64_t pad_b = ppj::NextPowerOfTwo(c.data.b->size());
  sim::CoprocessorOptions base;
  base.memory_tuples = options.memory_tuples;
  base.seed = options.seed;
  base.batch_slots = options.batch_slots;
  plan::ShardedRunOptions ropts;
  ropts.shards = shards;
  ropts.epsilon = options.epsilon;
  ropts.order_seed = options.seed;

  struct Prepared {
    std::unique_ptr<sim::ShardedStore> store;
    std::vector<relation::EncryptedRelation> a, b;
    std::vector<core::MultiwayJoin> joins;
    std::vector<const core::MultiwayJoin*> ptrs;
  };
  auto prepare = [&](bool traced, Prepared& p) -> Status {
    Tracer* t = traced ? tracer : nullptr;
    {
      ScopedSpan span(t, "sim.host_init", "sim", root, request);
      p.store = std::make_unique<sim::ShardedStore>(shards);
    }
    {
      ScopedSpan span(t, "shard.replicate", "shard", root, request);
      const std::uint64_t t0 = NowNs();
      PPJ_ASSIGN_OR_RETURN(
          p.a, plan::ReplicateSealed(*p.store, *c.data.a, &keys.a, pad_a));
      PPJ_ASSIGN_OR_RETURN(
          p.b, plan::ReplicateSealed(*p.store, *c.data.b, &keys.b, pad_b));
      if (traced) {
        out.replicate_ms = Us(t0, NowNs()) / 1e3;
        out.input_slot = p.store->shard(0).RegionSlotSize(p.a[0].region());
      }
    }
    p.joins.resize(shards);
    for (unsigned i = 0; i < shards; ++i) {
      p.joins[i] = core::MultiwayJoin{{&p.a[i], &p.b[i]}, c.multiway.get(),
                                      &keys.out};
      p.ptrs.push_back(&p.joins[i]);
    }
    return Status::OK();
  };

  Prepared driven;
  if (Status s = prepare(true, driven); !s.ok()) {
    out.error = "replay set-up: " + s.ToString();
    return;
  }
  sim::ShardChannel channel(shards);
  std::vector<plan::ShardEnv> envs(shards);
  std::vector<std::unique_ptr<sim::Coprocessor>> copros;
  std::vector<std::unique_ptr<plan::PlanContext>> ctxs;
  std::vector<plan::PhysicalPlan> plans;
  {
    ScopedSpan span(tracer, "plan.build", "plan", root, request);
    const std::uint64_t t0 = NowNs();
    for (unsigned p = 0; p < shards; ++p) {
      Result<plan::PhysicalPlan> built =
          plan::BuildShardedPlan(algorithm, ropts);
      if (!built.ok()) {
        out.error = "sharded plan: " + built.status().ToString();
        return;
      }
      plans.push_back(std::move(built).value());
    }
    out.build_us = Us(t0, NowNs());
  }
  {
    ScopedSpan span(tracer, "sim.copro_init", "sim", root, request);
    for (unsigned p = 0; p < shards; ++p) {
      sim::CoprocessorOptions opt = base;
      if (p > 0) opt.seed = base.seed + 5000 + p;
      copros.push_back(
          std::make_unique<sim::Coprocessor>(&driven.store->shard(p), opt));
      envs[p] = plan::ShardEnv{p, shards, &channel, driven.store.get()};
      ctxs.push_back(
          std::make_unique<plan::PlanContext>(nullptr, driven.ptrs[p]));
      ctxs[p]->shard = &envs[p];
    }
  }
  std::vector<Status> statuses(shards);
  std::vector<std::vector<OpTime>> shard_ops(shards);
  {
    ScopedSpan run(tracer, "shard.run", "shard", root, request);
    std::vector<std::thread> threads;
    for (unsigned p = 0; p < shards; ++p) {
      threads.emplace_back([&, p] {
        const std::string name = "shard" + std::to_string(p);
        ScopedSpan span(tracer, name, "shard", run.id(), request);
        statuses[p] = DriveOps(*copros[p], plans[p], *ctxs[p], p,
                               "plan." + name + ".", "shard", tracer,
                               span.id(), request, &shard_ops[p]);
        if (!statuses[p].ok()) channel.Abort(statuses[p]);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (unsigned p = 0; p < shards; ++p) {
    if (!statuses[p].ok()) {
      out.error = "driven shard " + std::to_string(p) + ": " +
                  statuses[p].ToString();
      return;
    }
    out.ops.insert(out.ops.end(), shard_ops[p].begin(), shard_ops[p].end());
  }
  std::vector<sim::TraceFingerprint> fps;
  std::vector<sim::TransferMetrics> per_shard;
  std::uint64_t total = 0;
  for (unsigned p = 0; p < shards; ++p) {
    per_shard.push_back(copros[p]->metrics());
    fps.push_back(copros[p]->trace().fingerprint());
    out.metrics += copros[p]->metrics();
    out.makespan_transfers = std::max(out.makespan_transfers,
                                      copros[p]->metrics().TupleTransfers());
    total += copros[p]->metrics().TupleTransfers();
  }
  out.imbalance = total > 0 ? static_cast<double>(out.makespan_transfers) *
                                  shards / static_cast<double>(total)
                            : 0;
  out.channel_bytes = channel.stats().bytes;
  out.channel_rounds = channel.stats().rounds;
  out.join_slot = ctxs[0]->slot;
  const sim::TraceFingerprint driven_union =
      UnionFingerprint(fps, channel.fingerprint());
  out.trace = driven_union;
  out.error = CheckOutput(c, driven.store->shard(0), ctxs[0]->output_region,
                          ctxs[0]->output_slots, keys.out, tracer, root,
                          request);
  if (!out.error.empty()) return;

  // Verification, not part of the replayed request: the real engine, timed
  // whole, on an identically prepared store.
  if (tracer != nullptr) tracer->End(root);
  ScopedSpan verify(tracer, "bench.verify", "verify", 0, request);
  Prepared reference;
  if (Status s = prepare(false, reference); !s.ok()) {
    out.error = "reference set-up: " + s.ToString();
    return;
  }
  const std::uint64_t t0 = NowNs();
  Result<plan::ShardedOutcome> ref = plan::RunShardedJoin(
      *reference.store, algorithm, reference.ptrs, base, ropts);
  out.run_ms = Us(t0, NowNs()) / 1e3;
  if (!ref.ok()) {
    out.error = "RunShardedJoin: " + ref.status().ToString();
    return;
  }
  if (!(driven_union == ref->union_fingerprint) ||
      per_shard != ref->per_shard ||
      !SameCheckpoints(ctxs[0]->checkpoints, ref->lead_checkpoints)) {
    out.error = "driven sharded union fingerprint " + driven_union.ToString() +
                " != RunShardedJoin " + ref->union_fingerprint.ToString();
  }
}

}  // namespace

ReplayResult Replay(const Shape& shape, const ContractData& c,
                    Tracer* tracer, std::uint64_t request) {
  ReplayResult out;
  const service::ExecuteOptions options = BaseOptions(shape, c);
  // The service consults the planner only for kAuto contracts; its input
  // here mirrors SovereignJoinService::Submit for a pair join. For pinned
  // algorithms the call is timed outside the replayed request.
  core::PlannerInput input;
  input.size_a = c.data.a->size();
  input.size_b = c.data.b->size();
  input.equality_predicate =
      c.data.predicate->is_equality() &&
      ppj::IsPowerOfTwo(ppj::NextPowerOfTwo(c.data.b->size()));
  input.n = options.n;
  input.exact_output_required = options.shards > 1;
  input.m = options.memory_tuples;
  input.epsilon = options.epsilon;
  input.shards = options.shards;
  auto plan_join = [&](std::uint64_t root) {
    ScopedSpan span(root != 0 ? tracer : nullptr, "core.planner", "core",
                    root, request);
    const std::uint64_t t0 = NowNs();
    out.algorithm = core::PlanJoin(input).algorithm;
    out.planner_us = Us(t0, NowNs());
  };
  if (c.algorithm) plan_join(0);
  const std::uint64_t root =
      tracer != nullptr ? tracer->Begin("replay", "bench", 0, request) : 0;
  out.root_span = root;
  if (!c.algorithm) plan_join(root);
  if (c.algorithm) out.algorithm = *c.algorithm;
  if (shape.shards > 1) {
    ReplaySharded(shape, c, options, out.algorithm, tracer, root, request,
                  out);
  } else {
    ReplaySerial(c, options, out.algorithm, tracer, root, request, out);
  }
  if (tracer != nullptr) tracer->End(root);
  return out;
}

}  // namespace wallbench
