// Workload `fig4`: the paper's own experiment. The six Polybench apps of
// Fig. 4 plus spmv, each in the CUDA and the OMPi variant, hand-lowered
// (apps/), in model-only mode at mid-sweep sizes. The seed sets the app
// order. apps::AppHarness resets the runtime and the driver when a run
// ends, so the hostrt/sim counters are gone before the benchmark could
// read them: per-layer data here is the apps.* spans and results only.
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "apps/irregular.h"
#include "apps/polybench.h"
#include "bench.h"

namespace perfbench {
namespace {

struct App {
  const char* name;
  apps::AppFn fn;
  int size;         // timed, model-only
  int verify_size;  // real math checked against the sequential reference
};

const std::vector<App>& fig4_apps() {
  static const std::vector<App> apps = {
      {"gramschmidt", &apps::run_gramschmidt, 512, 16},
      {"gemm", &apps::run_gemm, 512, 32},
      {"3dconv", &apps::run_3dconv, 128, 16},
      {"bicg", &apps::run_bicg, 2048, 64},
      {"atax", &apps::run_atax, 2048, 64},
      {"mvt", &apps::run_mvt, 2048, 64},
      {"spmv", &apps::run_spmv, 4096, 256},
  };
  return apps;
}

const char* variant_key(apps::Variant v) {
  return v == apps::Variant::Cuda ? "cuda" : "ompi";
}

class Fig4 : public Workload {
 public:
  explicit Fig4(std::uint32_t seed) : order_(fig4_apps()) {
    // Fisher-Yates with an explicit generator: the order depends on the
    // seed only, not on the standard library's shuffle.
    std::mt19937 rng(seed);
    for (std::size_t i = order_.size() - 1; i > 0; --i)
      std::swap(order_[i], order_[rng() % (i + 1)]);
  }

  void boot() override {
    apps::RunOptions opt;
    apps::AppHarness h(apps::Variant::Ompi, opt);
    h.add_kernel("_bootKernel_", 0,
                 [](jetsim::KernelCtx&, const cudadrv::ArgPack&) {});
    h.install();
    hostrt::Runtime::instance().prepare_device(0);
  }

  Ops verify() override {
    Ops ops;
    for (const App& a : order_)
      for (apps::Variant v : {apps::Variant::Cuda, apps::Variant::Ompi}) {
        apps::RunOptions opt;
        opt.model_only = false;
        opt.verify = true;
        apps::RunResult r = a.fn(v, a.verify_size, opt);
        ops.check(r.verified && r.seconds > 0);
      }
    return ops;
  }

  Pass run_pass(Tracer* tracer) override {
    Pass p;
    std::vector<double> ratios, run_ms;
    double ompi_sum = 0, all_sum = 0, launches = 0;
    for (const App& a : order_) {
      double seconds[2] = {0, 0};
      for (apps::Variant v : {apps::Variant::Cuda, apps::Variant::Ompi}) {
        const std::string key =
            std::string("apps.") + a.name + "." + variant_key(v);
        apps::RunResult r;
        {
          Scope span(tracer, key.c_str());
          r = a.fn(v, a.size, apps::RunOptions{});
        }
        p.ops.check(std::isfinite(r.seconds) && r.seconds > 0 &&
                    r.launches > 0);
        p.modeled[key + ".modeled_s"] = r.seconds;
        seconds[v == apps::Variant::Ompi] = r.seconds;
        if (v == apps::Variant::Ompi)
          p.modeled[std::string("apps.") + a.name + ".launches"] =
              static_cast<double>(r.launches);
        run_ms.push_back(r.seconds * 1e3);
        all_sum += r.seconds;
        launches += static_cast<double>(r.launches);
      }
      ompi_sum += seconds[1];
      ratios.push_back(seconds[1] / seconds[0]);
    }
    p.modeled["modeled_s"] = ompi_sum;
    p.modeled["ompi_over_cuda"] = geomean(ratios);
    p.modeled["p50_ms"] = percentile(run_ms, 50);
    p.modeled["p99_ms"] = percentile(run_ms, 99);
    // Closed loop, one run after another: offloads per modeled second.
    p.modeled["max_rps_at_slo"] = launches / all_sum;
    if (tracer)
      for (const auto& [name, s] : inclusive_by_name(tracer->spans()))
        if (name.rfind("apps.", 0) == 0) p.host[name + ".host_s"] = s;
    return p;
  }

  void describe(std::FILE* out) const override {
    std::fprintf(out, "# fig4: model-only, both variants, order:");
    for (const App& a : order_) std::fprintf(out, " %s@%d", a.name, a.size);
    std::fprintf(out, "\n# fig4: verification sizes:");
    for (const App& a : order_)
      std::fprintf(out, " %s@%d", a.name, a.verify_size);
    std::fprintf(out, "\n");
  }

 private:
  std::vector<App> order_;
};

}  // namespace

std::unique_ptr<Workload> make_fig4(std::uint32_t seed) {
  return std::make_unique<Fig4>(seed);
}

}  // namespace perfbench
