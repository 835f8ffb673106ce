// The `compiled` workload's OpenMP C programs. Each is generated from the
// workload seed — the seed only sets the input values, drawn in the
// program by a small LCG — and prints one `checksum=<n>` line. The
// expected checksum is computed here, in C++, from the same seeded
// inputs; it never comes from the interpreter. All arithmetic is on
// small integers (floats hold exact integers), so the comparison is
// exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct CProgram {
  std::string name;    // short id: gemm, jacobi, reduce, mw, chain
  std::string source;  // OpenMP C translation unit
  long long expected;  // reference checksum
};

/// The five programs for `seed`, in a fixed order.
std::vector<CProgram> make_programs(std::uint32_t seed);

/// The generator the programs embed: `state = (state * 1103 + 12345) %
/// 65536`, returning `state % 8`. Signed 32-bit arithmetic never
/// overflows on this range, so C and C++ agree.
class Lcg {
 public:
  explicit Lcg(int state) : state_(state) {}
  int next() {
    state_ = (state_ * 1103 + 12345) % 65536;
    return state_ % 8;
  }

 private:
  int state_;
};

/// Initial generator state the programs start from for `seed`.
int lcg_start(std::uint32_t seed);

/// The running checksum the programs fold their outputs into.
inline long long fold(long long cs, long long v) {
  return (cs * 31 + v) % 1000003;
}

/// The value printed as `checksum=<n>`, or -1 when absent.
long long parse_checksum(const std::string& stdout_text);

}  // namespace perfbench
