// Tests of the benchmark's own logic: the percentile rule, span self time,
// failure accounting and the seeded inputs. Exit code 0 when all pass.
//
//   ctest --test-dir .bench_build/perfbench     (after python3 perfbench/run.py --selftest)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "checks.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> ramp(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // order must not matter
  return v;
}

void test_percentile_rule() {
  using perfbench::tail_percentile;
  EXPECT(near(perfbench::median(ramp(5)), 3.0));
  EXPECT(near(perfbench::median(ramp(4)), 2.5));
  // p90 needs 100 samples (10 beyond), p95 200, p99 1000.
  EXPECT(!tail_percentile(ramp(99), 0.90));
  EXPECT(tail_percentile(ramp(100), 0.90) && near(*tail_percentile(ramp(100), 0.90), 90.0));
  EXPECT(!tail_percentile(ramp(199), 0.95));
  EXPECT(tail_percentile(ramp(200), 0.95) && near(*tail_percentile(ramp(200), 0.95), 190.0));
  EXPECT(!tail_percentile(ramp(999), 0.99));
  EXPECT(tail_percentile(ramp(1000), 0.99) && near(*tail_percentile(ramp(1000), 0.99), 990.0));
  EXPECT(!tail_percentile({}, 0.99));
}

void test_self_time() {
  using perfbench::Span;
  // root [0,100] with children A [10,30] (which has child [12,18]),
  // B [20,50] overlapping A, and C [90,120] running past the root's end.
  const std::vector<Span> spans = {
      {"root", 1, -1, 0.0, 100.0}, {"A", 1, 0, 10.0, 30.0}, {"B", 1, 0, 20.0, 50.0},
      {"C", 1, 0, 90.0, 120.0},    {"A.1", 1, 1, 12.0, 18.0},
  };
  const std::vector<double> self = perfbench::self_times_ms(spans);
  EXPECT(near(self[0], 100.0 - 40.0 - 10.0));
  EXPECT(near(self[1], 20.0 - 6.0));
  EXPECT(near(self[2], 30.0));
  EXPECT(near(self[3], 30.0));
  EXPECT(near(self[4], 6.0));
  const perfbg::obs::JsonValue doc = perfbench::spans_to_json(spans);
  EXPECT(near(doc.at("summary").at("root").at("self_ms").as_double(), 50.0));
}

perfbench::SolveFacts good_facts() {
  perfbench::SolveFacts f;
  f.arrival_rate = 0.025;
  f.metrics.fg_throughput = 0.025;
  f.metrics.bg_accept_rate = 0.004;
  f.metrics.bg_throughput = 0.004;
  f.total_mass = 1.0 - 1e-13;
  f.r_residual = 2e-13;
  f.tolerance_used = 1e-13;
  return f;
}

void test_failures_are_counted() {
  perfbench::Tally tally;
  tally.record(perfbench::check_solve(good_facts()));
  EXPECT(tally.attempted == 1 && tally.failed == 0);

  perfbench::SolveFacts wrong_throughput = good_facts();
  wrong_throughput.metrics.fg_throughput *= 1.0 + 1e-6;
  tally.record(perfbench::check_solve(wrong_throughput));
  perfbench::SolveFacts wrong_mass = good_facts();
  wrong_mass.total_mass = 1.0 + 1e-7;
  tally.record(perfbench::check_solve(wrong_mass));
  perfbench::SolveFacts wrong_residual = good_facts();
  wrong_residual.r_residual = 1e-11;
  tally.record(perfbench::check_solve(wrong_residual));
  EXPECT(tally.attempted == 4 && tally.failed == 3);

  const perfbench::PaperMetrics want{1.5, 0.2, 0.9, 0.1};
  perfbench::PaperMetrics got = want;
  EXPECT(perfbench::check_reference(got, want).empty());
  got.bg_completion *= 1.0 + 1e-8;
  tally.record(perfbench::check_reference(got, want));
  EXPECT(tally.failed == 4);

  perfbg::obs::JsonValue error = perfbg::obs::JsonValue::object();
  error.set("code", "kOverloaded");
  perfbg::obs::JsonValue response = perfbg::obs::JsonValue::object();
  response.set("ok", false);
  response.set("error", error);
  const std::string why = perfbench::check_response(response);
  EXPECT(why.find("kOverloaded") != std::string::npos);
  tally.record(why);
  EXPECT(tally.attempted == 6 && tally.failed == 5);

  perfbg::obs::JsonValue ok = perfbg::obs::JsonValue::object();
  ok.set("ok", true);
  ok.set("result", perfbg::obs::JsonValue::object());
  EXPECT(perfbench::check_response(ok).empty());
}

void test_seeded_inputs() {
  const perfbench::Inputs def = perfbench::make_inputs("daemon_mix", 0);
  EXPECT(def.points.size() == 200 && def.buffer == 20 && def.service == "expo");
  EXPECT(near(def.points[0].util, 0.001) && near(def.points[199].util, 0.2));
  EXPECT(near(def.points[7].p, 0.3) && def.order[5] == 5);

  const perfbench::Inputs a = perfbench::make_inputs("daemon_mix", 7);
  const perfbench::Inputs b = perfbench::make_inputs("daemon_mix", 7);
  EXPECT(a.order == b.order && near(a.points[3].util, b.points[3].util));
  EXPECT(a.order != def.order);
  std::vector<std::size_t> sorted = a.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT(sorted == def.order);
  EXPECT(std::fabs(a.points[99].util / def.points[99].util - 1.0) <= 0.01);
  EXPECT(std::fabs(a.points[0].p - 0.3) <= 0.005);

  const perfbench::Inputs sweep = perfbench::make_inputs("sweep_x20", 7);
  EXPECT(sweep.points.size() == 100 && sweep.order[42] == 42);  // sweeps stay ascending
  EXPECT(near(perfbench::make_inputs("erlang4_x20", 0).points[0].util, 0.15));
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_failures_are_counted();
  test_seeded_inputs();
  if (g_failures == 0) std::printf("perfbench selftest: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
