// The three workloads.  Each sets itself up several times (setup_s is
// the median), measures for RunArgs::seconds, checks every output, and
// in a traced run also runs the per-layer probes.
#pragma once

#include "common.h"

namespace perfbench {

/// archive-smooth (sparse = false) and archive-sparse (sparse = true).
Outcome run_archive(const RunArgs& args, bool sparse);

/// service-mix.
Outcome run_service(const RunArgs& args);

/// The service.* per-layer metrics for a workload that does not run the
/// daemon itself: starts one, sends job-sized frames built from `slab`,
/// and measures ping, framing, queue wait and admission on it.
void service_layer_probe(std::span<const float> slab, const Dims& dims,
                         const RunArgs& args, Tracer& tr, Metrics& out,
                         Ops& ops);

}  // namespace perfbench
