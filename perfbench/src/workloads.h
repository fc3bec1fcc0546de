#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// hot-sf4: one client, one warm session per engine (seq, ocelot:gpu,
/// ocelot:multi) taking turns, the 14 paper queries in seeded rotation at
/// paper SF 4. The traced run reports the per-layer metrics instead.
Outcome RunHotSf4(const Args& args);

/// serve-sf1 (and, with `gpu_lost`, serve-sf1-gpu-lost): 4 blocking clients
/// against a 4-session mal::QueryService per engine at paper SF 1; with
/// `gpu_lost` the ocelot:multi service runs with its GPU failing every kernel.
Outcome RunServeSf1(const Args& args, bool gpu_lost);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
