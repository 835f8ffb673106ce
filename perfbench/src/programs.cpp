#include "programs.h"

#include <cstdlib>
#include <map>

namespace perfbench {

namespace {

// Problem sizes. One pass over all five programs takes about 0.35 s of
// host time in the interpreter, most of it the 64x64 gemm.
constexpr int kGemmN = 64;
constexpr int kJacobiN = 1024;
constexpr int kJacobiIters = 4;
constexpr int kReduceN = 4096;
constexpr int kBins = 8;
constexpr int kMwThreads = 64;
constexpr int kChainN = 2048;

// Shared prologue: the seeded generator and the checksum fold.
constexpr const char* kPrologue = R"(int state = @STATE@;
int rnd(void)
{
  state = (state * 1103 + 12345) % 65536;
  return state % 8;
}
int fold(int cs, int v)
{
  return (cs * 31 + v) % 1000003;
}
)";

constexpr const char* kGemm = R"(float A[@NN@];
float B[@NN@];
float C[@NN@];
int main(void)
{
  int n = @N@;
  for (int i = 0; i < n * n; i++) { A[i] = rnd(); B[i] = rnd(); }
  #pragma omp target teams distribute parallel for collapse(2) \
          map(to: A[0:n*n], B[0:n*n]) map(from: C[0:n*n])
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++) {
      float acc = 0.0f;
      for (int k = 0; k < n; k++)
        acc += A[i * n + k] * B[k * n + j];
      C[i * n + j] = acc;
    }
  int cs = 0;
  for (int i = 0; i < n * n; i++) cs = fold(cs, (int)C[i]);
  printf("checksum=%d\n", cs);
  return 0;
}
)";

constexpr const char* kJacobi = R"(int u[@N@];
int v[@N@];
int main(void)
{
  int n = @N@;
  for (int i = 0; i < n; i++) { u[i] = rnd() * 100; v[i] = 0; }
  #pragma omp target data map(tofrom: u[0:n]) map(alloc: v[0:n])
  {
    for (int t = 0; t < @ITERS@; t++) {
      #pragma omp target teams distribute parallel for \
              map(tofrom: u[0:n], v[0:n])
      for (int i = 1; i < n - 1; i++)
        v[i] = (u[i - 1] + u[i] + u[i + 1]) / 3;
      #pragma omp target teams distribute parallel for \
              map(tofrom: u[0:n], v[0:n])
      for (int i = 1; i < n - 1; i++)
        u[i] = v[i];
    }
  }
  int cs = 0;
  for (int i = 0; i < n; i++) cs = fold(cs, u[i]);
  printf("checksum=%d\n", cs);
  return 0;
}
)";

constexpr const char* kReduce = R"(int x[@N@];
int hist[@BINS@];
int main(void)
{
  int n = @N@;
  for (int i = 0; i < n; i++) x[i] = rnd();
  int s = 0;
  #pragma omp target teams distribute parallel for \
          map(to: x[0:n]) map(tofrom: s, hist[0:@BINS@]) \
          reduction(+: s, hist[0:@BINS@]) num_teams(8) num_threads(128)
  for (int i = 0; i < n; i++) {
    s += x[i] * x[i];
    hist[x[i]] += 1;
  }
  int cs = fold(0, s);
  for (int k = 0; k < @BINS@; k++) cs = fold(cs, hist[k]);
  printf("checksum=%d\n", cs);
  return 0;
}
)";

constexpr const char* kMasterWorker = R"(int data[@N2@];
int stage[@N@];
int part[4];
int total = 0;
int main(void)
{
  for (int i = 0; i < @N2@; i++) data[i] = rnd();
  #pragma omp target map(to: data[0:@N2@]) \
          map(tofrom: stage[0:@N@], part[0:4], total)
  {
    #pragma omp parallel num_threads(@N@)
    {
      int me = omp_get_thread_num();
      stage[me] = data[me] + 2 * data[me + @N@];
      #pragma omp barrier
      #pragma omp sections
      {
        #pragma omp section
        {
          int a = 0;
          for (int i = 0; i < @N@; i++) a += stage[i];
          part[0] = a;
        }
        #pragma omp section
        {
          int a = 0;
          for (int i = 0; i < @N@; i += 2) a += stage[i];
          part[1] = a;
        }
        #pragma omp section
        {
          int a = 0;
          for (int i = 0; i < @N@; i++) a = (a * 3 + stage[i]) % 10007;
          part[2] = a;
        }
      }
      #pragma omp single
      { part[3] = stage[0] * stage[@N@ - 1]; }
      #pragma omp critical
      { total = total + stage[me]; }
    }
  }
  int cs = 0;
  for (int k = 0; k < 4; k++) cs = fold(cs, part[k]);
  cs = fold(cs, total);
  printf("checksum=%d\n", cs);
  return 0;
}
)";

constexpr const char* kChain = R"(int a[@N@];
int b[@N@];
int c[@N@];
int d[@N@];
int main(void)
{
  int n = @N@;
  for (int i = 0; i < n; i++) a[i] = rnd();
  #pragma omp target teams distribute parallel for nowait \
          map(to: a[0:n]) map(from: b[0:n]) depend(in: a) depend(out: b)
  for (int i = 0; i < n; i++) b[i] = a[i] * 2 + 1;
  #pragma omp target teams distribute parallel for nowait \
          map(to: b[0:n]) map(from: c[0:n]) depend(in: b) depend(out: c)
  for (int i = 0; i < n; i++) c[i] = b[i] * 3;
  #pragma omp target teams distribute parallel for nowait \
          map(to: a[0:n]) map(from: d[0:n]) depend(in: a) depend(out: d)
  for (int i = 0; i < n; i++) d[i] = a[i] + 5;
  #pragma omp target teams distribute parallel for nowait \
          map(tofrom: c[0:n]) map(to: d[0:n]) depend(inout: c) depend(in: d)
  for (int i = 0; i < n; i++) c[i] = c[i] + d[i];
  #pragma omp taskwait
  int cs = 0;
  for (int i = 0; i < n; i++) cs = fold(cs, c[i]);
  printf("checksum=%d\n", cs);
  return 0;
}
)";

std::string render(const char* body, int state,
                   const std::map<std::string, int>& vars) {
  std::string text = std::string(kPrologue) + body;
  std::map<std::string, int> all = vars;
  all["STATE"] = state;
  for (const auto& [key, value] : all) {
    const std::string token = "@" + key + "@";
    for (std::size_t pos = text.find(token); pos != std::string::npos;
         pos = text.find(token, pos))
      text.replace(pos, token.size(), std::to_string(value));
  }
  return text;
}

long long ref_gemm(int state) {
  const int n = kGemmN;
  Lcg rng(state);
  std::vector<long long> A(n * n), B(n * n);
  for (int i = 0; i < n * n; ++i) {
    A[i] = rng.next();
    B[i] = rng.next();
  }
  long long cs = 0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      long long acc = 0;
      for (int k = 0; k < n; ++k) acc += A[i * n + k] * B[k * n + j];
      cs = fold(cs, acc);
    }
  return cs;
}

long long ref_jacobi(int state) {
  const int n = kJacobiN;
  Lcg rng(state);
  std::vector<long long> u(n), v(n, 0);
  for (int i = 0; i < n; ++i) u[i] = rng.next() * 100;
  for (int t = 0; t < kJacobiIters; ++t) {
    for (int i = 1; i < n - 1; ++i) v[i] = (u[i - 1] + u[i] + u[i + 1]) / 3;
    for (int i = 1; i < n - 1; ++i) u[i] = v[i];
  }
  long long cs = 0;
  for (long long x : u) cs = fold(cs, x);
  return cs;
}

long long ref_reduce(int state) {
  Lcg rng(state);
  long long s = 0;
  std::vector<long long> hist(kBins, 0);
  for (int i = 0; i < kReduceN; ++i) {
    int x = rng.next();
    s += x * x;
    hist[x] += 1;
  }
  long long cs = fold(0, s);
  for (long long h : hist) cs = fold(cs, h);
  return cs;
}

long long ref_master_worker(int state) {
  const int n = kMwThreads;
  Lcg rng(state);
  std::vector<long long> data(2 * n), stage(n);
  for (long long& x : data) x = rng.next();
  for (int me = 0; me < n; ++me) stage[me] = data[me] + 2 * data[me + n];
  long long part[4] = {0, 0, 0, 0};
  long long total = 0;
  for (int i = 0; i < n; ++i) part[0] += stage[i];
  for (int i = 0; i < n; i += 2) part[1] += stage[i];
  for (int i = 0; i < n; ++i) part[2] = (part[2] * 3 + stage[i]) % 10007;
  part[3] = stage[0] * stage[n - 1];
  for (long long x : stage) total += x;
  long long cs = 0;
  for (long long p : part) cs = fold(cs, p);
  return fold(cs, total);
}

long long ref_chain(int state) {
  Lcg rng(state);
  long long cs = 0;
  for (int i = 0; i < kChainN; ++i) {
    long long a = rng.next();
    long long c = (a * 2 + 1) * 3 + (a + 5);
    cs = fold(cs, c);
  }
  return cs;
}

}  // namespace

int lcg_start(std::uint32_t seed) {
  return static_cast<int>((seed * 2654435761u) >> 16);  // [0, 65536)
}

std::vector<CProgram> make_programs(std::uint32_t seed) {
  const int st = lcg_start(seed);
  return {
      {"gemm", render(kGemm, st, {{"N", kGemmN}, {"NN", kGemmN * kGemmN}}),
       ref_gemm(st)},
      {"jacobi", render(kJacobi, st, {{"N", kJacobiN}, {"ITERS", kJacobiIters}}),
       ref_jacobi(st)},
      {"reduce", render(kReduce, st, {{"N", kReduceN}, {"BINS", kBins}}),
       ref_reduce(st)},
      {"mw", render(kMasterWorker, st, {{"N", kMwThreads}, {"N2", 2 * kMwThreads}}),
       ref_master_worker(st)},
      {"chain", render(kChain, st, {{"N", kChainN}}), ref_chain(st)},
  };
}

long long parse_checksum(const std::string& text) {
  const std::string key = "checksum=";
  std::size_t pos = text.find(key);
  if (pos == std::string::npos) return -1;
  const char* begin = text.c_str() + pos + key.size();
  char* end = nullptr;
  long long v = std::strtoll(begin, &end, 10);
  return end == begin ? -1 : v;
}

}  // namespace perfbench
