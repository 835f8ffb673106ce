// Reads the counters the layers already expose on a live board —
// hostrt's OffloadQueue totals and task records, the simulated devices'
// stats and launch logs — into a pass's deterministic metric map.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Per-offload observations taken from the task records, in modeled time.
struct OffloadSamples {
  std::vector<double> latency_ms;  // enqueue to completion
  /// Offload span (first engine op to completion) over the kernel's own
  /// time on the SM engine: the runtime's overhead around the kernel.
  std::vector<double> over_kernel;
};

/// Adds every device's hostrt, cudadrv and sim counters into `m` (keys
/// as in BENCHMARK.json). Floating sums run over the task records in a
/// canonical order, so they do not depend on which client thread's stats
/// shard a task landed in.
void add_board_counters(std::map<std::string, double>& m,
                        OffloadSamples* samples = nullptr);

/// Derives the ratio metrics (alloc hit ratio) from the summed counters.
void finish_board_counters(std::map<std::string, double>& m);

}  // namespace perfbench
