// Workload `compiled`: the Fig. 2 chain end to end. Each pass compiles
// the seeded OpenMP C programs with ompi::compile, runs main() in the
// kernelvm interpreter on a board the benchmark resets itself, and
// checks each printed checksum against the C++ reference (programs.h).
// kernelvm charges no compute cost, so the modeled time here is launch,
// transfer and device-runtime time only: it is reported as the
// per-layer kernelvm.modeled_s, and as modeled_s with that caveat.
#include <exception>
#include <string>
#include <vector>

#include "board.h"
#include "bench.h"
#include "compiler/compiler.h"
#include "devrt/devrt.h"
#include "hostrt/runtime.h"
#include "kernelvm/interp.h"
#include "programs.h"

namespace perfbench {
namespace {

void fresh_board() {
  hostrt::Runtime::reset();
  cudadrv::BinaryRegistry::instance().clear();
}

ompi::CompileOptions options_for(const CProgram& prog) {
  ompi::CompileOptions opts;
  opts.unit_name = prog.name;
  return opts;
}

class Compiled : public Workload {
 public:
  explicit Compiled(std::uint32_t seed) : programs_(make_programs(seed)) {
    for (const CProgram& prog : programs_)
      boot_units_.push_back(
          ompi::compile(prog.source, options_for(prog), boot_arena_));
  }

  void boot() override {
    fresh_board();
    for (const ompi::CompileOutput& unit : boot_units_)
      if (unit.ok) kernelvm::Interp(unit).install_binaries();
    hostrt::Runtime::instance().prepare_device(0);
  }

  Ops verify() override {
    Ops ops;
    for (const ompi::CompileOutput& unit : boot_units_) ops.check(unit.ok);
    return ops;
  }

  Pass run_pass(Tracer* tracer) override {
    Pass p;
    OffloadSamples offloads;
    double modeled = 0, kernels = 0;
    for (const CProgram& prog : programs_) {
      ompi::Arena arena;
      ompi::CompileOutput out;
      {
        Scope span(tracer, "compiler");
        out = ompi::compile(prog.source, options_for(prog), arena);
      }
      p.ops.check(out.ok);
      if (!out.ok) continue;
      kernels += static_cast<double>(out.kernels.size());

      fresh_board();
      const devrt::RedCounters red0 = devrt::red_counters();
      long long checksum = -1;
      bool returned_zero = false;
      try {
        kernelvm::Interp vm(out);
        vm.install_binaries();
        Scope span(tracer, "kernelvm");
        returned_zero = vm.call_host("main").as_int() == 0;
        checksum = parse_checksum(vm.stdout_text());
      } catch (const std::exception&) {
        returned_zero = false;
      }
      p.ops.check(returned_zero && checksum == prog.expected);

      modeled += cudadrv::cuSimDevice(0).now();
      add_board_counters(p.modeled, &offloads);
      const devrt::RedCounters& red = devrt::red_counters();
      p.modeled["devrt.red_warp_combines"] +=
          static_cast<double>(red.warp_combines - red0.warp_combines);
      p.modeled["devrt.red_smem_combines"] +=
          static_cast<double>(red.smem_combines - red0.smem_combines);
      p.modeled["devrt.red_global_atomics"] +=
          static_cast<double>(red.global_atomics - red0.global_atomics);
      p.modeled["devrt.red_ticket_atomics"] +=
          static_cast<double>(red.ticket_atomics - red0.ticket_atomics);
      p.modeled["devrt.red_grid_combines"] +=
          static_cast<double>(red.grid_combines - red0.grid_combines);
    }
    fresh_board();
    finish_board_counters(p.modeled);
    p.modeled["compiler.kernels"] = kernels;
    p.modeled["kernelvm.modeled_s"] = modeled;
    p.modeled["modeled_s"] = modeled;
    p.modeled["ompi_over_cuda"] = geomean(offloads.over_kernel);
    p.modeled["p50_ms"] = percentile(offloads.latency_ms, 50);
    p.modeled["p99_ms"] = percentile(offloads.latency_ms, 99);
    // Closed loop, one program after another: offloads per modeled second.
    p.modeled["max_rps_at_slo"] = p.modeled["hostrt.offloads"] / modeled;

    if (tracer) {
      auto incl = inclusive_by_name(tracer->spans());
      double threads = p.modeled["sim.threads_run"];
      p.host["compiler.host_s"] = incl["compiler"];
      p.host["kernelvm.host_s"] = incl["kernelvm"];
      // From outside, the interpreter and the simulator it runs in share
      // one span: both per-thread figures divide the same time.
      p.host["kernelvm.host_ns_per_thread"] = incl["kernelvm"] * 1e9 / threads;
      p.host["sim.host_ns_per_thread"] = incl["kernelvm"] * 1e9 / threads;
    }
    return p;
  }

  void describe(std::FILE* out) const override {
    std::fprintf(out, "# compiled: programs (expected checksum):");
    for (const CProgram& prog : programs_)
      std::fprintf(out, " %s(%lld)", prog.name.c_str(), prog.expected);
    std::fprintf(out, "\n");
  }

 private:
  std::vector<CProgram> programs_;
  ompi::Arena boot_arena_;
  std::vector<ompi::CompileOutput> boot_units_;
};

}  // namespace

std::unique_ptr<Workload> make_compiled(std::uint32_t seed) {
  return std::make_unique<Compiled>(seed);
}

}  // namespace perfbench
