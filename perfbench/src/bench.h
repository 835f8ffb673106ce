// The workload interface the benchmark driver (main.cpp) runs. A
// workload boots its board, checks its outputs, and runs timed passes;
// every pass reports its deterministic observations (modeled metrics and
// counters) so the driver can require them bit-identical pass to pass.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "stats.h"

namespace perfbench {

/// Checked operations: every output check is one attempt.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  Ops& operator+=(const Ops& o) {
    attempted += o.attempted;
    failed += o.failed;
    return *this;
  }
};

struct Pass {
  /// Deterministic observations: the end-to-end modeled metrics
  /// (modeled_s, ompi_over_cuda, p50_ms, p99_ms, max_rps_at_slo) and the
  /// per-layer counters and modeled times, keyed by metric name.
  std::map<std::string, double> modeled;
  /// Host-time per-layer metrics of a traced pass, keyed by metric name.
  std::map<std::string, double> host;
  Ops ops;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One cold boot: board reset, lazy device initialization, binary
  /// install and (server) tenant registration. Timed for setup_s.
  virtual void boot() = 0;
  /// One-off output checks before timing.
  virtual Ops verify() = 0;
  /// One pass of the timed section. `tracer` is null in untraced passes;
  /// when set, the workload records a span around each call into a layer.
  virtual Pass run_pass(Tracer* tracer) = 0;
  /// Prints the workload's shape (sizes, order, ladder) for the record.
  virtual void describe(std::FILE* out) const = 0;
};

std::unique_ptr<Workload> make_fig4(std::uint32_t seed);
std::unique_ptr<Workload> make_compiled(std::uint32_t seed);
std::unique_ptr<Workload> make_server(std::uint32_t seed);

}  // namespace perfbench
