#include "board.h"

#include <algorithm>
#include <tuple>

#include "cudadrv/cuda.h"
#include "hostrt/runtime.h"

namespace perfbench {

void add_board_counters(std::map<std::string, double>& m,
                        OffloadSamples* samples) {
  const int devices = cudadrv::cuSimDeviceCount();
  hostrt::Runtime& rt = hostrt::Runtime::instance();
  for (int d = 0; d < devices; ++d) {
    if (hostrt::OffloadQueue* q = rt.queue(d)) {
      const hostrt::OffloadStats t = q->totals();
      m["hostrt.alloc_hits"] += static_cast<double>(t.alloc_cache_hits);
      m["hostrt.alloc_lookups"] +=
          static_cast<double>(t.alloc_cache_hits + t.alloc_cache_misses);
      m["hostrt.coalesced_transfers"] +=
          static_cast<double>(t.coalesced_transfers);
      m["hostrt.bytes_staged"] += static_cast<double>(t.bytes_staged);
      m["hostrt.maps_downgraded"] += static_cast<double>(t.maps_downgraded);
      m["hostrt.maps_elided"] += static_cast<double>(t.maps_elided);

      std::vector<const hostrt::TaskRecord*> recs;
      for (const hostrt::TaskRecord& r : q->records()) recs.push_back(&r);
      std::sort(recs.begin(), recs.end(), [](const auto* a, const auto* b) {
        return std::tie(a->start_s, a->end_s, a->queued_at, a->kernel) <
               std::tie(b->start_s, b->end_s, b->queued_at, b->kernel);
      });
      for (const hostrt::TaskRecord* r : recs) {
        const hostrt::OffloadStats& s = r->stats;
        m["hostrt.offloads"] += 1;
        m["hostrt.load_s"] += s.load_s;
        m["hostrt.prepare_s"] += s.prepare_s;
        m["hostrt.exec_s"] += s.exec_s;
        m["hostrt.queued_s"] += s.queued_s;
        m["hostrt.h2d_s"] += s.h2d_s;
        m["hostrt.d2h_s"] += s.d2h_s;
        if (samples) {
          samples->latency_ms.push_back((r->end_s - r->queued_at) * 1e3);
          double kernel = r->exec_end_s - r->exec_start_s;
          if (kernel > 0)
            samples->over_kernel.push_back((r->end_s - r->start_s) / kernel);
        }
      }
    }
    const jetsim::Device& dev = cudadrv::cuSimDevice(d);
    const jetsim::DeviceStats& st = dev.stats();
    m["cudadrv.launches"] += static_cast<double>(st.launches);
    m["cudadrv.mallocs"] += static_cast<double>(st.mallocs);
    m["cudadrv.frees"] += static_cast<double>(st.frees);
    m["sim.blocks_run"] += static_cast<double>(st.blocks_run);
    m["sim.threads_run"] += static_cast<double>(st.threads_run);
    for (const jetsim::LaunchAccount& a : dev.launch_log()) {
      m["sim.kernel_s"] += a.time_s;
      m["sim.compute_s"] += a.compute_s;
      m["sim.memory_s"] += a.memory_s;
      m["sim.issue_cycles"] += a.total_issue_cycles;
      m["sim.dram_bytes"] += a.total_dram_bytes;
      m["sim.atomic_serial_cycles"] += a.atomic_serial_cycles;
    }
  }
}

void finish_board_counters(std::map<std::string, double>& m) {
  double lookups = m["hostrt.alloc_lookups"];
  m["hostrt.alloc_hit_ratio"] = lookups > 0 ? m["hostrt.alloc_hits"] / lookups : 0;
  m.erase("hostrt.alloc_hits");
}

}  // namespace perfbench
