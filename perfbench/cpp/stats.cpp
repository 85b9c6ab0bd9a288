#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  if (!(q > 0.5 && q < 1.0)) throw std::invalid_argument("tail percentile needs 0.5 < q < 1");
  const std::size_t n = samples.size();
  // Nearest rank: the ceil(q n)-th smallest sample; n - rank samples lie above.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  if (rank == 0 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double max_of(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("max of an empty sample");
  return *std::max_element(samples.begin(), samples.end());
}

double now_ms() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - origin)
      .count();
}

int SpanLog::begin(std::string name, std::uint64_t trace_id, int parent) {
  Span s;
  s.name = std::move(name);
  s.trace_id = trace_id;
  s.parent = parent;
  s.start_ms = now_ms();
  s.end_ms = s.start_ms;
  return add(std::move(s));
}

void SpanLog::end(int index) {
  const double t = now_ms();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<std::size_t>(index)).end_ms = t;
}

int SpanLog::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

std::vector<Span> SpanLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= spans.size()) throw std::invalid_argument("span parent out of range");
    children[p].emplace_back(s.start_ms, s.end_ms);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = 0.0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_hi) {
        run_hi = std::max(run_hi, b);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = a;
      run_hi = b;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

perfbg::obs::JsonValue spans_to_json(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times_ms(spans);
  perfbg::obs::JsonValue list = perfbg::obs::JsonValue::array();
  std::map<std::string, std::vector<double>> total, self_by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    perfbg::obs::JsonValue v = perfbg::obs::JsonValue::object();
    v.set("id", static_cast<std::int64_t>(i));
    v.set("name", s.name);
    v.set("trace_id", static_cast<std::int64_t>(s.trace_id));
    v.set("parent", s.parent);
    v.set("start_ms", s.start_ms);
    v.set("end_ms", s.end_ms);
    v.set("self_ms", self[i]);
    list.push_back(std::move(v));
    total[s.name].push_back(s.end_ms - s.start_ms);
    self_by_name[s.name].push_back(self[i]);
  }
  perfbg::obs::JsonValue summary = perfbg::obs::JsonValue::object();
  for (const auto& [name, durations] : total) {
    double sum = 0.0, self_sum = 0.0;
    for (double d : durations) sum += d;
    for (double d : self_by_name[name]) self_sum += d;
    perfbg::obs::JsonValue v = perfbg::obs::JsonValue::object();
    v.set("count", static_cast<std::int64_t>(durations.size()));
    v.set("total_ms", sum);
    v.set("self_ms", self_sum);
    v.set("p50_ms", median(durations));
    summary.set(name, std::move(v));
  }
  perfbg::obs::JsonValue out = perfbg::obs::JsonValue::object();
  out.set("summary", std::move(summary));
  out.set("spans", std::move(list));
  return out;
}

std::uint64_t SplitMix::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double SplitMix::symmetric() {
  return 2.0 * (static_cast<double>(next() >> 11) / static_cast<double>(1ull << 53)) - 1.0;
}

}  // namespace perfbench
