#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
std::size_t rank_index(std::size_t n, double p) {
  // Nearest rank: ceil(p/100 * n), 1-based. The epsilon keeps exact
  // products such as 0.99 * 1000 from rounding up past their rank.
  double r = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  std::size_t rank = static_cast<std::size_t>(std::max(1.0, r));
  return std::min(rank, n) - 1;
}
}  // namespace

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[rank_index(v.size(), p)];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - 1 - rank_index(n, p);
}

Tail tail_percentile(const std::vector<double>& v, std::size_t min_beyond) {
  Tail t;
  t.count = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    std::size_t beyond = samples_beyond(v.size(), p);
    if (beyond >= min_beyond) {
      t.pct = p;
      t.value = percentile(v, p);
      t.beyond = beyond;
      return t;
    }
  }
  return t;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double host_now() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

int Tracer::begin(const std::string& name, std::uint64_t id) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = host_now();
  spans_.push_back(std::move(s));
  int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void Tracer::end(int span) {
  if (open_.empty() || open_.back() != span)
    throw std::logic_error("perfbench: spans must close innermost first");
  spans_[static_cast<std::size_t>(span)].end = host_now();
  open_.pop_back();
}

void Tracer::append(const Tracer& other) {
  if (!other.open_.empty())
    throw std::logic_error("perfbench: appending a tracer with open spans");
  int offset = static_cast<int>(spans_.size());
  int root = open_.empty() ? -1 : open_.back();
  for (Span s : other.spans_) {
    s.parent = s.parent < 0 ? root : s.parent + offset;
    spans_.push_back(std::move(s));
  }
}

double self_time(const std::vector<Span>& spans, std::size_t index) {
  const Span& me = spans.at(index);
  std::vector<std::pair<double, double>> cover;
  for (const Span& s : spans)
    if (s.parent == static_cast<int>(index))
      cover.emplace_back(std::max(s.start, me.start), std::min(s.end, me.end));
  std::sort(cover.begin(), cover.end());
  double covered = 0;
  double reach = me.start;
  for (auto [a, b] : cover) {
    a = std::max(a, reach);
    if (b > a) {
      covered += b - a;
      reach = b;
    }
  }
  return (me.end - me.start) - covered;
}

std::map<std::string, double> inclusive_by_name(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += s.end - s.start;
  return out;
}

std::map<std::string, double> self_by_name(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i)
    out[spans[i].name] += self_time(spans, i);
  return out;
}

double backlog_rise(const std::vector<double>& latency) {
  std::size_t q = latency.size() / 4;
  if (q < 2) return 0;
  auto mean = [](auto first, auto last) {
    double sum = 0;
    for (auto it = first; it != last; ++it) sum += *it;
    return sum / static_cast<double>(last - first);
  };
  const auto begin = latency.begin();
  return mean(latency.end() - q, latency.end()) - mean(begin + q, begin + 2 * q);
}

}  // namespace perfbench
