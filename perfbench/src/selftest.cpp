// Tests of the benchmark's own logic: the percentile rule and its sample
// counts, span self-time arithmetic, backlog detection on the rate
// ladder, and the reference-checksum generator of the compiled programs.
// Exits nonzero on the first report of any failure.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "programs.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(x) check((x), #x, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using namespace perfbench;

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_percentiles() {
  CHECK(median({}) == 0);
  CHECK(median({3, 1, 2}) == 2);
  CHECK(median({4, 1, 3, 2}) == 2.5);
  // Nearest rank on 1..100: p50 is the 50th value, p99 the 99th.
  std::vector<double> v = iota(100);
  CHECK(percentile(v, 50) == 50);
  CHECK(percentile(v, 99) == 99);
  CHECK(percentile(v, 100) == 100);
  CHECK(percentile({7}, 99) == 7);
  // 0.99 * 1000 must land on rank 990 exactly, not 991.
  CHECK(percentile(iota(1000), 99) == 990);
  CHECK(samples_beyond(1000, 99) == 10);
  CHECK(samples_beyond(100, 99) == 1);
  CHECK(samples_beyond(0, 50) == 0);

  // The tail rule picks the highest percentile with >= 10 samples beyond.
  Tail t = tail_percentile(iota(1000));
  CHECK(t.pct == 99 && t.value == 990 && t.beyond == 10 && t.count == 1000);
  t = tail_percentile(iota(999));  // p99 leaves only 9 beyond
  CHECK(t.pct == 95 && t.beyond >= 10);
  t = tail_percentile(iota(10000));
  CHECK(t.pct == 99.9 && t.beyond == 10);
  t = tail_percentile(iota(40));
  CHECK(t.pct == 75 && t.beyond == 10 && t.value == 30);
  t = tail_percentile(iota(12));  // even the median has only 6 beyond
  CHECK(t.pct == 0 && t.count == 12);

  CHECK(near(geomean({2, 8}), 4));
  CHECK(geomean({}) == 0);
}

Span span(const char* name, int parent, double start, double end) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.start = start;
  s.end = end;
  return s;
}

void test_self_time() {
  // root [0,10] with children [1,3] and [2,5] (overlapping: union [1,5])
  // and [7,8]; grandchild [1.5,2.5] belongs to child 1, not to root.
  std::vector<Span> s = {span("root", -1, 0, 10), span("a", 0, 1, 3),
                         span("b", 0, 2, 5), span("c", 0, 7, 8),
                         span("g", 1, 1.5, 2.5)};
  CHECK(near(self_time(s, 0), 10 - 4 - 1));
  CHECK(near(self_time(s, 1), 2 - 1));
  CHECK(near(self_time(s, 4), 1));
  // A child that outlives its parent is clipped to the parent's interval.
  std::vector<Span> clip = {span("p", -1, 0, 4), span("k", 0, 3, 9)};
  CHECK(near(self_time(clip, 0), 3));

  auto incl = inclusive_by_name(s);
  CHECK(near(incl["root"], 10) && near(incl["a"], 2));
  auto self = self_by_name(s);
  CHECK(near(self["root"], 5) && near(self["g"], 1));

  // Tracer nesting and append(): appended roots hang under the open span.
  Tracer outer, inner;
  int r = outer.begin("outer");
  int c = inner.begin("req", 7);
  inner.end(c);
  outer.append(inner);
  outer.end(r);
  CHECK(outer.spans().size() == 2);
  CHECK(outer.spans()[1].parent == 0 && outer.spans()[1].id == 7);
  CHECK(self_time(outer.spans(), 0) <= outer.spans()[0].end - outer.spans()[0].start);
}

void test_backlog() {
  std::vector<double> flat(400, 1.0);
  CHECK(backlog_rise(flat) == 0);
  // Noisy but stationary (a busy server that keeps up).
  std::vector<double> busy;
  for (int i = 0; i < 400; ++i) busy.push_back(1.0 + (i * 37 % 11) * 0.1);
  CHECK(std::fabs(backlog_rise(busy)) < 0.05);
  // Linear growth: every request waits behind the ones before it. The
  // quarters [100,200) and [300,400) have means 1 + 0.01 * 149.5 and
  // 1 + 0.01 * 349.5.
  std::vector<double> ramp;
  for (int i = 0; i < 400; ++i) ramp.push_back(1.0 + 0.01 * i);
  CHECK(near(backlog_rise(ramp), 2.0));
  // A late step that stays.
  std::vector<double> step(400, 1.0);
  for (int i = 250; i < 400; ++i) step[i] = 3.0;
  CHECK(near(backlog_rise(step), 2.0));
  // Two request shapes whose shares drift between quarters (40% long
  // early, 60% long late): a median would jump from 1 to 2.5, the mean
  // rises by only 0.2 * 1.5.
  std::vector<double> mix_shift;
  for (int i = 0; i < 400; ++i)
    mix_shift.push_back((i % 10) < (i >= 300 ? 6 : 4) ? 2.5 : 1.0);
  CHECK(near(backlog_rise(mix_shift), 0.3));
  // The warm-up quarter is ignored: a low start is not a trend.
  std::vector<double> warm(400, 2.0);
  for (int i = 0; i < 100; ++i) warm[i] = 0.1;
  CHECK(backlog_rise(warm) == 0);
  CHECK(backlog_rise({1, 2, 3}) == 0);  // too short to judge
}

void test_checksum_generator() {
  // Hand-computed: state 0 -> 12345 (draw 1) -> 62928 (0) -> 19305 (1).
  Lcg g(0);
  CHECK(g.next() == 1);
  CHECK(g.next() == 0);
  CHECK(g.next() == 1);
  CHECK(fold(0, 5) == 5 && fold(5, 7) == 162);
  CHECK(fold(1000002, 1000002) == (1000002LL * 31 + 1000002) % 1000003);

  for (std::uint32_t seed : {0u, 1u, 42u, 4294967295u}) {
    int st = lcg_start(seed);
    CHECK(st >= 0 && st < 65536);
    std::vector<CProgram> progs = make_programs(seed);
    CHECK(progs.size() == 5);
    for (const CProgram& p : progs) {
      CHECK(p.source.find("int state = " + std::to_string(st) + ";") !=
            std::string::npos);
      CHECK(p.source.find("checksum=%d") != std::string::npos);
      CHECK(p.source.find('@') == std::string::npos);  // all filled in
      CHECK(p.expected >= 0 && p.expected < 1000003);
    }
    // Regenerating gives the same programs and references.
    std::vector<CProgram> again = make_programs(seed);
    for (std::size_t i = 0; i < progs.size(); ++i)
      CHECK(progs[i].source == again[i].source &&
            progs[i].expected == again[i].expected);
  }
  // The seed reaches the references (different inputs, different sums).
  std::vector<CProgram> a = make_programs(1), b = make_programs(2);
  int differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i) differ += a[i].expected != b[i].expected;
  CHECK(differ >= 4);

  CHECK(parse_checksum("x\nchecksum=123\n") == 123);
  CHECK(parse_checksum("no sum") == -1);
  CHECK(parse_checksum("checksum=") == -1);
}

}  // namespace

int main() {
  test_percentiles();
  test_self_time();
  test_backlog();
  test_checksum_generator();
  std::printf("perfbench_selftest: %s\n", failures ? "FAILED" : "ok");
  return failures ? 1 : 0;
}
