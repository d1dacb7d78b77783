#include "micro.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/optimizer.h"
#include "common/math.h"
#include "crypto/key.h"
#include "crypto/ocb.h"
#include "oblivious/bitonic_sort.h"
#include "relation/encrypted_relation.h"
#include "sim/coprocessor.h"
#include "sim/host_store.h"

namespace wallbench {

using ppj::Result;
using ppj::Status;
namespace crypto = ppj::crypto;
namespace relation = ppj::relation;
namespace sim = ppj::sim;

namespace {

constexpr int kReps = 5;

/// Median over kReps of (time of one call of `fn`) / `units`, in ns.
template <typename Fn>
double NsPerUnit(double units, Fn&& fn) {
  std::vector<double> samples;
  for (int i = 0; i < kReps; ++i) {
    const std::uint64_t t0 = NowNs();
    fn();
    samples.push_back(static_cast<double>(NowNs() - t0) / units);
  }
  return Median(std::move(samples));
}

crypto::Block NonceOf(std::uint64_t i) {
  crypto::Block nonce{};
  std::memcpy(nonce.data(), &i, sizeof(i));
  return nonce;
}

}  // namespace

std::map<std::string, double> MeasureLayers(const Shape& shape,
                                            const ContractData& c,
                                            const ReplayResult& replay) {
  std::map<std::string, double> m;
  const crypto::Block key_bytes = crypto::DeriveKey(7, "wallbench-micro");
  const crypto::Ocb key(key_bytes);
  // Reads are dominated by input slots (iTuple scans), writes by joined
  // slots (staging, filter buffers, output).
  const std::size_t in_slot = replay.input_slot;
  const std::size_t out_slot = replay.join_slot;
  const std::size_t overhead = crypto::Ocb::kBlockSize + crypto::Ocb::kTagSize;
  const std::uint64_t batch = std::max<std::uint64_t>(shape.m, 1);
  volatile std::uint64_t sink = 0;

  // --- crypto: OCB open / seal of one slot, key schedule + prefix table.
  {
    const std::size_t plain = in_slot - overhead;
    const std::size_t msgs = 64;
    std::vector<std::uint8_t> pt(plain, 0x5a), sealed(msgs * (plain + 16)),
        out(plain);
    for (std::size_t i = 0; i < msgs; ++i) {
      key.EncryptInto(NonceOf(i), pt.data(), plain,
                      sealed.data() + i * (plain + 16));
    }
    const int iters = 4096;
    m["crypto.open_ns_per_slot"] = NsPerUnit(iters, [&] {
      for (int i = 0; i < iters; ++i) {
        const std::size_t k = static_cast<std::size_t>(i) % msgs;
        sink = sink + key.DecryptInto(NonceOf(k),
                                      sealed.data() + k * (plain + 16),
                                      plain + 16, out.data())
                          .ok();
      }
    });
    const std::size_t oplain = out_slot - overhead;
    std::vector<std::uint8_t> opt(oplain, 0xa5), osealed(oplain + 16);
    m["crypto.seal_ns_per_slot"] = NsPerUnit(iters, [&] {
      for (int i = 0; i < iters; ++i) {
        key.EncryptInto(NonceOf(static_cast<std::uint64_t>(i)), opt.data(),
                        oplain, osealed.data());
        sink = sink + osealed[0];
      }
    });
    const int inits = 100;
    m["crypto.ocb_init_us"] = NsPerUnit(inits, [&] {
      for (int i = 0; i < inits; ++i) {
        const crypto::Ocb fresh(key_bytes);
        sink = sink + fresh.hardware_accelerated();
      }
    }) / 1e3;
  }

  auto host = std::make_unique<sim::HostStore>();
  Result<relation::EncryptedRelation> sealed_a =
      relation::EncryptedRelation::Seal(
          host.get(), *c.data.a, &key, ppj::NextPowerOfTwo(c.data.a->size()));
  if (!sealed_a.ok()) return m;
  const std::uint64_t in_slots = sealed_a->padded_size();
  sim::CoprocessorOptions copts;
  copts.memory_tuples = shape.m;
  sim::Coprocessor copro(host.get(), copts);

  // --- sim: keyed range transfers, the paths plan operators use.
  const std::uint64_t passes =
      std::max<std::uint64_t>(1, 65536 / std::max<std::uint64_t>(in_slots, 1));
  m["sim.get_open_ns_per_slot"] =
      NsPerUnit(static_cast<double>(passes * in_slots), [&] {
        for (std::uint64_t p = 0; p < passes; ++p) {
          for (std::uint64_t first = 0; first < in_slots; first += batch) {
            const std::uint64_t n = std::min(batch, in_slots - first);
            Result<sim::ReadRun> run =
                copro.GetOpenRange(sealed_a->region(), first, n, &key);
            if (!run.ok() || !run->PrefetchOpen().ok()) return;
            for (std::uint64_t i = 0; i < n; ++i) {
              Result<std::span<const std::uint8_t>> slot = run->NextOpen();
              if (slot.ok()) sink = sink + (*slot)[0];
            }
          }
        }
      });
  const std::uint64_t out_slots = 4096;
  const sim::RegionId out_region =
      host->CreateRegion("wallbench-out", out_slot, out_slots);
  const std::vector<std::uint8_t> out_plain(out_slot - overhead, 0x11);
  m["sim.put_seal_ns_per_slot"] =
      NsPerUnit(static_cast<double>(out_slots), [&] {
        for (std::uint64_t first = 0; first < out_slots; first += batch) {
          const std::uint64_t n = std::min(batch, out_slots - first);
          Result<sim::WriteRun> run =
              copro.PutSealedRange(out_region, first, n, &key);
          if (!run.ok()) return;
          for (std::uint64_t i = 0; i < n; ++i) {
            if (!run->Append(out_plain).ok()) return;
          }
          if (!run->Flush().ok()) return;
        }
      });
  const int inits = 100;
  m["sim.copro_init_us"] = NsPerUnit(inits, [&] {
    for (int i = 0; i < inits; ++i) {
      const sim::Coprocessor fresh(host.get(), copts);
      sink = sink + fresh.memory_tuples();
    }
  }) / 1e3;
  const std::uint64_t round_trips =
      replay.metrics.batch_gets + replay.metrics.batch_puts;
  m["sim.transfers_per_round_trip"] =
      round_trips > 0 ? static_cast<double>(replay.metrics.TupleTransfers()) /
                            static_cast<double>(round_trips)
                      : 0;

  // --- storage: the backend under HostStore, at operator batch sizes.
  {
    std::vector<std::uint8_t> buf(batch * out_slot, 0x22);
    m["storage.read_ns_per_slot"] =
        NsPerUnit(static_cast<double>(passes * in_slots), [&] {
          const std::size_t slot = in_slot;
          std::vector<std::uint8_t> copy(batch * slot);
          for (std::uint64_t p = 0; p < passes; ++p) {
            for (std::uint64_t first = 0; first < in_slots; first += batch) {
              const std::uint64_t n = std::min(batch, in_slots - first);
              Result<std::span<const std::uint8_t>> view =
                  host->ReadView(sealed_a->region(), first, n);
              if (view.ok()) {
                sink = sink + (*view)[0];
              } else if (host->ReadRange(sealed_a->region(), first, n,
                                         copy.data(), n * slot)
                             .ok()) {
                sink = sink + copy[0];
              }
            }
          }
        });
    m["storage.write_ns_per_slot"] =
        NsPerUnit(static_cast<double>(out_slots), [&] {
          for (std::uint64_t first = 0; first < out_slots; first += batch) {
            const std::uint64_t n = std::min(batch, out_slots - first);
            if (!host->WriteRange(out_region, first, n, buf.data(),
                                  n * out_slot)
                     .ok()) {
              return;
            }
          }
        });
  }

  // --- oblivious: one bitonic sort at the windowed filter's buffer size
  // for this shape (omega = L staging slots, mu = S results).
  {
    const std::uint64_t omega = shape.size_a * shape.size_b;
    const std::uint64_t mu = shape.s;
    const std::uint64_t delta = ppj::analysis::OptimalSwapInteger(omega, mu);
    const std::uint64_t n = ppj::NextPowerOfTwo(std::min(mu + delta, omega));
    const sim::RegionId region = host->CreateRegion("wallbench-sort", out_slot, n);
    Result<sim::WriteRun> fill = copro.PutSealedRange(region, 0, n, &key);
    std::vector<std::uint8_t> plain(out_slot - overhead);
    bool ok = fill.ok();
    for (std::uint64_t i = 0; ok && i < n; ++i) {
      plain[0] = (i * 0x9e3779b97f4a7c15ULL >> 63) ? relation::wire::kReal
                                                   : relation::wire::kDecoy;
      std::memcpy(plain.data() + 1, &i, std::min(sizeof(i), plain.size() - 1));
      ok = fill->Append(plain).ok();
    }
    if (ok && fill->Flush().ok()) {
      const ppj::oblivious::SortKey less = ppj::oblivious::RealFirstLess();
      std::uint64_t transfers = 0;
      const double ns = NsPerUnit(1, [&] {
        const std::uint64_t before = copro.metrics().TupleTransfers();
        ok = ok && ppj::oblivious::ObliviousSort(copro, region, n, key, less).ok();
        transfers = copro.metrics().TupleTransfers() - before;
      });
      if (ok && transfers > 0) {
        m["oblivious.sort.transfers"] = static_cast<double>(transfers);
        m["oblivious.sort.ns_per_transfer"] =
            ns / static_cast<double>(transfers);
      }
    }
  }

  // --- relation: provider-side sealing and the plaintext predicate.
  {
    const double tuples = static_cast<double>(c.data.a->size());
    m["relation.seal_us_per_tuple"] = NsPerUnit(tuples, [&] {
      sim::HostStore scratch;
      sink = sink + relation::EncryptedRelation::Seal(&scratch, *c.data.a, &key,
                                                      in_slots)
                        .ok();
    }) / 1e3;
    const auto& as = c.data.a->tuples();
    const auto& bs = c.data.b->tuples();
    const std::uint64_t pairs = as.size() * bs.size();
    const std::uint64_t rounds =
        std::max<std::uint64_t>(1, 262144 / std::max<std::uint64_t>(pairs, 1));
    m["relation.predicate_ns"] =
        NsPerUnit(static_cast<double>(rounds * pairs), [&] {
          std::uint64_t hits = 0;
          for (std::uint64_t r = 0; r < rounds; ++r) {
            for (const relation::Tuple& a : as) {
              for (const relation::Tuple& b : bs) {
                hits += c.data.predicate->Match(a, b);
              }
            }
          }
          sink = sink + hits;
        });
  }
  return m;
}

}  // namespace wallbench
