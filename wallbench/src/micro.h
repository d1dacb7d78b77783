// Per-slot and per-call costs of the layers that run inside plan operators
// (crypto, sim transfers, storage, oblivious sort, relation sealing and
// predicates), each measured from outside by timing calls into the layer's
// public functions at the workload's slot sizes, on the in-memory store.
#ifndef WALLBENCH_MICRO_H_
#define WALLBENCH_MICRO_H_

#include <map>
#include <string>

#include "replay.h"
#include "workload.h"

namespace wallbench {

/// Metric name -> value. `replay` supplies the slot sizes and metrics.
std::map<std::string, double> MeasureLayers(const Shape& shape,
                                            const ContractData& c,
                                            const ReplayResult& replay);

}  // namespace wallbench

#endif  // WALLBENCH_MICRO_H_
