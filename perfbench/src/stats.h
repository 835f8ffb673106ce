// Measurement primitives of the benchmark: order statistics, the
// percentile-with-enough-samples rule, host-time spans with self-time
// arithmetic, and backlog detection for the server's rate ladder.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);

/// Nearest-rank percentile, p in (0, 100]: the smallest sample with at
/// least p% of the samples at or below it. 0 when empty.
double percentile(std::vector<double> v, double p);

/// Number of samples strictly beyond the nearest-rank p-th percentile.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of the candidate percentiles (99.9, 99, 95, 90, 75, 50)
/// that still has at least `min_beyond` samples beyond it. `pct` is 0
/// when even the median has fewer (too few samples for a tail figure).
struct Tail {
  double pct = 0;
  double value = 0;
  std::size_t count = 0;   // total samples
  std::size_t beyond = 0;  // samples beyond `pct`
};
Tail tail_percentile(const std::vector<double>& v, std::size_t min_beyond = 10);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double>& v);

/// Seconds on the host's steady clock since a process-wide epoch, so
/// spans recorded on different threads share one time base.
double host_now();

/// One host-time interval at a layer boundary. `id` ties the spans of
/// one request together; `parent` indexes the enclosing span (-1: root).
struct Span {
  std::string name;
  std::uint64_t id = 0;
  int parent = -1;
  double start = 0;
  double end = 0;
};

/// Records spans in memory for one thread (merge per-thread tracers with
/// append()). Spans nest by call order: a span begun while another is
/// open becomes its child.
class Tracer {
 public:
  int begin(const std::string& name, std::uint64_t id = 0);
  void end(int span);
  /// Appends another tracer's finished spans under this tracer's
  /// currently open span (or as roots when none is open).
  void append(const Tracer& other);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing (the untraced run).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t id = 0)
      : tracer_(tracer), span_(tracer ? tracer->begin(name, id) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover (overlapping children count once).
double self_time(const std::vector<Span>& spans, std::size_t index);
/// Summed inclusive duration per span name.
std::map<std::string, double> inclusive_by_name(const std::vector<Span>& spans);
/// Summed self time per span name.
std::map<std::string, double> self_by_name(const std::vector<Span>& spans);

/// How much the latency of one client's requests (in arrival order)
/// rose across the trace: the mean of the last quarter minus the mean of
/// the second quarter (the first quarter is warm-up from an empty
/// system). A server that keeps up shows no trend however busy it is;
/// one that falls behind adds its growing queue to every later request.
/// Means, not medians: with a mix of request shapes a quarter's median
/// can jump between the shapes' service times. 0 when too short to judge.
double backlog_rise(const std::vector<double>& latency_in_arrival_order);

}  // namespace perfbench
