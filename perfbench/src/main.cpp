// perfbench: the repository benchmark driver.
//
//   perfbench --workload <fig4|compiled|server> --seed <n> --seconds <s>
//             --trace <0|1>
//
// Runs one workload: times cold boots (setup_s), checks outputs, then
// runs timed passes for --seconds. --trace 0 reports the end-to-end
// metrics of untraced passes; --trace 1 alternates untraced and traced
// passes and reports the per-layer metrics plus the tracing overhead.
// Every modeled metric and counter must be bit-identical across all
// passes; a mismatch is a failed operation. The last stdout line is the
// result JSON; lines before it starting with '#' are the human report.
#include <sys/resource.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "cudadrv/cuda.h"
#include "devrt/devrt.h"
#include "hostrt/offload_server.h"
#include "hostrt/runtime.h"

extern char** environ;

namespace perfbench {
namespace {

struct Metric {
  std::string name;
  const char* unit;
};

// The end-to-end metrics, in BENCHMARK.json order.
const std::vector<Metric> kEndToEnd = {
    {"host_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"modeled_s", "modeled_s"},
    {"ompi_over_cuda", "ratio"},
    {"p50_ms", "modeled_ms"},
    {"p99_ms", "modeled_ms"},
    {"max_rps_at_slo", "modeled_req/s"},
};

std::vector<Metric> per_layer_metrics() {
  std::vector<Metric> m = {
      {"compiler.host_s", "s"},
      {"compiler.kernels", "count"},
      {"kernelvm.host_s", "s"},
      {"kernelvm.host_ns_per_thread", "ns"},
      {"kernelvm.modeled_s", "modeled_s"},
      {"hostrt.offloads", "count"},
      {"hostrt.load_s", "modeled_s"},
      {"hostrt.prepare_s", "modeled_s"},
      {"hostrt.exec_s", "modeled_s"},
      {"hostrt.queued_s", "modeled_s"},
      {"hostrt.h2d_s", "modeled_s"},
      {"hostrt.d2h_s", "modeled_s"},
      {"hostrt.alloc_hit_ratio", "ratio"},
      {"hostrt.alloc_lookups", "count"},
      {"hostrt.coalesced_transfers", "count"},
      {"hostrt.bytes_staged", "bytes"},
      {"hostrt.maps_downgraded", "count"},
      {"hostrt.maps_elided", "count"},
      {"hostrt.server.submit_host_s", "s"},
      {"hostrt.server.wait_host_s", "s"},
      {"devrt.red_warp_combines", "count"},
      {"devrt.red_smem_combines", "count"},
      {"devrt.red_global_atomics", "count"},
      {"devrt.red_ticket_atomics", "count"},
      {"devrt.red_grid_combines", "count"},
      {"cudadrv.launches", "count"},
      {"cudadrv.mallocs", "count"},
      {"cudadrv.frees", "count"},
      {"sim.threads_run", "count"},
      {"sim.blocks_run", "count"},
      {"sim.host_ns_per_thread", "ns"},
      {"sim.kernel_s", "modeled_s"},
      {"sim.compute_s", "modeled_s"},
      {"sim.memory_s", "modeled_s"},
      {"sim.issue_cycles", "cycles"},
      {"sim.dram_bytes", "bytes"},
      {"sim.atomic_serial_cycles", "cycles"},
  };
  for (const char* app :
       {"gramschmidt", "gemm", "3dconv", "bicg", "atax", "mvt", "spmv"}) {
    const std::string base = std::string("apps.") + app;
    m.push_back({base + ".ompi.host_s", "s"});
    m.push_back({base + ".cuda.host_s", "s"});
    m.push_back({base + ".ompi.modeled_s", "modeled_s"});
    m.push_back({base + ".cuda.modeled_s", "modeled_s"});
    m.push_back({base + ".launches", "count"});
  }
  m.push_back({"bench.self_s", "s"});
  m.push_back({"trace.untraced_host_s", "s"});
  m.push_back({"trace.traced_host_s", "s"});
  m.push_back({"trace.overhead", "ratio"});
  return m;
}

struct Args {
  std::string workload;
  std::uint32_t seed = 0;
  double seconds = 10;
  int trace = 0;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

long parse_int(const char* flag, const char* text, long lo, long hi) {
  errno = 0;
  char* end = nullptr;
  long v = std::strtol(text, &end, 10);
  if (errno || end == text || *end || v < lo || v > hi)
    die(std::string("bad value for ") + flag + ": " + text);
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + flag);
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = static_cast<std::uint32_t>(parse_int("--seed", v, 0, 4294967295L));
    else if (flag == "--seconds") a.seconds = static_cast<double>(parse_int("--seconds", v, 1, 600));
    else if (flag == "--trace") a.trace = static_cast<int>(parse_int("--trace", v, 0, 1));
    else die("unknown flag " + flag);
  }
  return a;
}

// The benchmark measures the default configuration of an optimized,
// uninstrumented build; anything else is refused, not reported.
void refuse_nondefault_config() {
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "OMPI_", 5) == 0)
      die(std::string("refusing to run with ") + *e +
          " set: the benchmark measures the default OMPI_* configuration");
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
  die("refusing to run a Debug (unoptimized or assert-enabled) build");
#endif
  if (std::strstr(PERFBENCH_FLAGS, "-fsanitize") ||
      std::strstr(PERFBENCH_FLAGS, "-O0"))
    die(std::string("refusing to run a sanitized build: ") + PERFBENCH_FLAGS);
}

void echo_config(const Args& a, const Workload& w) {
  std::printf("# perfbench workload=%s seed=%u seconds=%g trace=%d\n",
              a.workload.c_str(), a.seed, a.seconds, a.trace);
  std::printf("# host: nproc=%u build=%s flags='%s' sanitizer=none\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_FLAGS);
  w.describe(stdout);
  hostrt::Runtime& rt = hostrt::Runtime::instance();
  std::printf("# board: devices=%d profiles=", cudadrv::cuSimDeviceCount());
  for (int d = 0; d < cudadrv::cuSimDeviceCount(); ++d)
    std::printf("%s%s", d ? "," : "", cudadrv::cuSimDeviceProfile(d).name.c_str());
  static const char* const kZc[] = {"auto", "on", "off"};
  const hostrt::ServerOptions so = hostrt::ServerOptions::from_env();
  std::printf(
      "\n# modes: graph=%s zerocopy=%s mapinfer=%s redtree=%s streams=%d "
      "server_fairness=%s server_max_inflight(default)=%d\n",
      rt.graph_mode() == hostrt::Runtime::GraphMode::Capture ? "capture" : "off",
      kZc[static_cast<int>(rt.zerocopy_mode())], rt.map_infer() ? "auto" : "off",
      devrt::red_finish() == devrt::RedFinish::Tree ? "tree" : "atomic",
      rt.num_streams(),
      so.fairness == hostrt::ServerOptions::Fairness::Drr ? "drr" : "fifo",
      so.max_inflight);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Setup time: cold boots, timed in samples of kBootsPerSample boots back
// to back, since one boot takes microseconds, near the timer and
// scheduler noise. Batches are drawn before the first pass and after
// every pass, so setup_s samples the same machine state as host_s.
void sample_setup(Workload& w, std::vector<double>& samples, int count) {
  constexpr int kBootsPerSample = 100;
  for (int n = 0; n < count; ++n) {
    double t0 = host_now();
    for (int i = 0; i < kBootsPerSample; ++i) w.boot();
    samples.push_back((host_now() - t0) / kBootsPerSample);
  }
  hostrt::Runtime::reset();
}

std::uint64_t fingerprint(const std::map<std::string, double>& m) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto eat = [&h](const void* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<const unsigned char*>(p)[i];
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [k, v] : m) {
    eat(k.data(), k.size());
    eat(&v, sizeof v);
  }
  return h;
}

// Names every observation that differs from the reference pass.
void report_mismatches(const std::map<std::string, double>& ref,
                       const std::map<std::string, double>& got) {
  for (const auto& [name, v] : got) {
    auto it = ref.find(name);
    if (it == ref.end())
      std::printf("# determinism: %s appeared (%.17g)\n", name.c_str(), v);
    else if (it->second != v)
      std::printf("# determinism: %s %.17g != reference %.17g\n", name.c_str(),
                  v, it->second);
  }
  for (const auto& [name, v] : ref)
    if (!got.count(name))
      std::printf("# determinism: %s vanished (reference %.17g)\n",
                  name.c_str(), v);
}

void print_result(const Ops& ops, const std::vector<Metric>& metrics,
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              ops.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    auto it = values.find(metrics[i].name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& a) {
  std::unique_ptr<Workload> w;
  if (a.workload == "fig4") w = make_fig4(a.seed);
  else if (a.workload == "compiled") w = make_compiled(a.seed);
  else if (a.workload == "server") w = make_server(a.seed);
  else die("unknown workload '" + a.workload + "' (fig4, compiled, server)");

  std::vector<double> setup_samples;
  sample_setup(*w, setup_samples, 10);
  w->boot();
  echo_config(a, *w);
  hostrt::Runtime::reset();

  Ops ops = w->verify();
  // Warm-up pass: fills lazy state and sets the reference observations
  // every later pass must reproduce bit for bit.
  Pass ref = w->run_pass(nullptr);
  ops += ref.ops;

  std::vector<double> untraced_s, traced_s;
  std::map<std::string, std::vector<double>> host_layers;
  const double start = host_now();
  for (int i = 0;; ++i) {
    const bool traced = a.trace == 1 && i % 2 == 1;
    const std::size_t done = untraced_s.size() + traced_s.size();
    if (host_now() - start >= a.seconds && done >= (a.trace ? 4u : 3u)) break;
    Tracer tracer;
    Pass p;
    double t0 = host_now();
    {
      Scope span(traced ? &tracer : nullptr, "bench.pass");
      p = w->run_pass(traced ? &tracer : nullptr);
    }
    double dt = host_now() - t0;
    (traced ? traced_s : untraced_s).push_back(dt);
    sample_setup(*w, setup_samples, 5);
    ops += p.ops;
    ops.check(p.modeled == ref.modeled);  // determinism self-check
    report_mismatches(ref.modeled, p.modeled);
    if (traced) {
      double bench_self = 0;
      for (const auto& [name, s] : self_by_name(tracer.spans()))
        if (name.rfind("bench.", 0) == 0) bench_self += s;
      p.host["bench.self_s"] = bench_self;
      for (const auto& [name, v] : p.host) host_layers[name].push_back(v);
    }
  }

  const double host_s = median(untraced_s);
  const double setup_s = median(setup_samples);
  const Tail tail = tail_percentile(untraced_s);
  std::printf("# host_s: median %.6f s over %zu passes; ", host_s,
              untraced_s.size());
  if (tail.pct > 0)
    std::printf("p%g %.6f s (%zu samples beyond)\n", tail.pct, tail.value,
                tail.beyond);
  else
    std::printf("no tail percentile (needs >= 10 samples beyond it)\n");
  std::printf("# host_s passes:");
  for (double t : untraced_s) std::printf(" %.4f", t);
  std::printf("\n# setup_s: median %.9f s over %zu samples of 100 boots "
              "(p10 %.9f, p90 %.9f)\n",
              setup_s, setup_samples.size(), percentile(setup_samples, 10),
              percentile(setup_samples, 90));
  std::printf("# determinism: %zu passes, fingerprint %016llx\n",
              untraced_s.size() + traced_s.size() + 1,
              static_cast<unsigned long long>(fingerprint(ref.modeled)));
  for (const auto& [name, v] : ref.modeled)
    if (name.rfind("server.", 0) == 0)
      std::printf("# %s = %.9g\n", name.c_str(), v);
  std::printf("# ops: attempted %llu failed %llu\n",
              static_cast<unsigned long long>(ops.attempted),
              static_cast<unsigned long long>(ops.failed));

  std::map<std::string, double> out = ref.modeled;
  if (a.trace == 0) {
    out["host_s"] = host_s;
    out["setup_s"] = setup_s;
    out["peak_rss_mb"] = peak_rss_mb();
    print_result(ops, kEndToEnd, out);
  } else {
    for (const auto& [name, v] : host_layers) out[name] = median(v);
    const double untraced = median(untraced_s), traced = median(traced_s);
    out["trace.untraced_host_s"] = untraced;
    out["trace.traced_host_s"] = traced;
    out["trace.overhead"] = traced / untraced;
    std::printf("# tracing overhead: traced %.6f s / untraced %.6f s = %.4f "
                "(%zu traced, %zu untraced passes)\n",
                traced, untraced, traced / untraced, traced_s.size(),
                untraced_s.size());
    print_result(ops, per_layer_metrics(), out);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a = parse_args(argc, argv);
  refuse_nondefault_config();
  try {
    return run(a);
  } catch (const std::exception& e) {
    die(std::string("workload failed: ") + e.what());
  }
}
