// Per-layer numbers of a traced run: the solver layers sampled by the
// workloads, the linalg kernels on fixed operands, and the server protocol on
// the workload's own frames.
#include <algorithm>
#include <cmath>

#include "harness.hpp"
#include "linalg/gemm.hpp"
#include "linalg/lu.hpp"
#include "server/protocol.hpp"

namespace perfbench {

namespace {

// Level sizes n_r of the workloads: X=20 and X=50 with exponential service,
// X=20 with erlang4 service.
constexpr std::size_t kKernelSizes[] = {82, 202, 328};
constexpr double kKernelBudgetMs = 100.0;
constexpr int kKernelMinReps = 5;
// Protocol timings per run, spread over the workload's frames.
constexpr std::size_t kProtocolTimings = 4000;

perfbg::linalg::Matrix fixed_matrix(std::size_t n, std::uint64_t seed) {
  perfbg::linalg::Matrix m(n, n);
  SplitMix rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) m(i, j) = 0.5 * rng.symmetric();
  return m;
}

/// Median milliseconds of `fn(operand)` over repetitions filling the time
/// budget; each repetition gets a fresh copy of `operand`, made untimed.
template <class Fn>
double median_ms(SpanLog& log, const char* name, const perfbg::linalg::Matrix& operand,
                 Fn&& fn) {
  std::vector<double> ms;
  const double start = now_ms();
  while (ms.size() < static_cast<std::size_t>(kKernelMinReps) ||
         now_ms() - start < kKernelBudgetMs) {
    perfbg::linalg::Matrix copy = operand;
    ms.push_back(timed(&log, name, 0, -1, [&] { fn(std::move(copy)); }));
  }
  return median(ms);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace

void emit_layer_metrics(Report& r) {
  const LayerSamples& l = r.layers;
  if (l.chain_build_ms.empty() || l.preflight_ms.empty() || r.traced_op_ms.empty() ||
      r.untraced_op_ms.empty())
    throw std::runtime_error("the traced run sampled no operation");
  r.metric("core.chain_build_ms.p50", median(l.chain_build_ms), "ms");
  r.metric("core.solve_ms.p50", median(l.solve_ms), "ms");
  r.metric("core.metrics_ms.p50", median(l.metrics_ms), "ms");
  r.metric("core.qbd_bytes", l.qbd_bytes, "B");
  r.metric("qbd.preflight_ms.p50", median(l.preflight_ms), "ms");
  r.metric("qbd.solve_r_ms.p50", median(l.solve_r_ms), "ms");
  r.metric("qbd.solve_r_iters", mean(l.solve_r_iters), "count");
  r.metric("qbd.warm_start_hit_ratio",
           static_cast<double>(l.warm_start_hits) / static_cast<double>(l.solves), "ratio");
  // Derived, not measured: core.solve minus the three probed phases.
  r.metric("qbd.boundary_tail_ms.p50", median(l.boundary_tail_ms), "ms");
  r.metric("qbd.r_residual.max", max_of(l.r_residual), "inf-norm");
  r.metric("qbd.mass_defect.max", max_of(l.mass_defect), "prob");
  r.metric("trace.overhead_ms", median(r.traced_op_ms) - median(r.untraced_op_ms), "ms");
  r.info("trace.traced_ops", static_cast<double>(r.traced_op_ms.size()), "count");
  r.info("trace.untraced_ops", static_cast<double>(r.untraced_op_ms.size()), "count");
}

void run_kernel_probes(Report& r) {
  for (const std::size_t n : kKernelSizes) {
    const std::string tag = ".n" + std::to_string(n);
    const double dn = static_cast<double>(n);
    const perfbg::linalg::Matrix a = fixed_matrix(n, 4);
    const perfbg::linalg::Matrix b = fixed_matrix(n, 5);
    const double gemm_ms = median_ms(r.spans, "linalg.gemm", a, [&](perfbg::linalg::Matrix x) {
      (void)perfbg::linalg::multiply(x, b);
    });
    const double gemm_flops = 2.0 * dn * dn * dn;
    r.metric("linalg.gemm_gflops" + tag, gemm_flops / (gemm_ms * 1e6), "GFLOP/s");
    r.info("linalg.gemm_ms" + tag, gemm_ms, "ms");
    r.info("linalg.gemm_flops" + tag, gemm_flops, "flop");
    r.info("linalg.gemm_bytes" + tag, 3.0 * dn * dn * sizeof(double), "B");

    // Diagonally dominant, so partial pivoting stays tame.
    perfbg::linalg::Matrix m = fixed_matrix(n, 6);
    for (std::size_t i = 0; i < n; ++i) m(i, i) += dn;
    const double lu_ms = median_ms(r.spans, "linalg.lu_factor", m, [](perfbg::linalg::Matrix x) {
      const perfbg::linalg::LuDecomposition lu(std::move(x));
    });
    r.metric("linalg.lu_factor_ms" + tag, lu_ms, "ms");
    r.info("linalg.lu_flops" + tag, 2.0 * dn * dn * dn / 3.0, "flop");
    r.info("linalg.lu_bytes" + tag, 2.0 * dn * dn * sizeof(double), "B");
  }
}

void run_protocol_probe(Report& r) {
  if (r.frames.empty()) throw std::runtime_error("no frames for the protocol probe");
  const std::size_t reps = std::max<std::size_t>(1, kProtocolTimings / r.frames.size());
  std::vector<double> us;
  for (std::size_t k = 0; k < reps; ++k) {
    for (const auto& [frame, result] : r.frames) {
      perfbg::obs::JsonValue payload = result;
      const double t0 = now_ms();
      const perfbg::server::Request request = perfbg::server::parse_request(frame, false);
      const std::string key = perfbg::server::canonical_key(request);
      const std::string wire =
          perfbg::server::make_result_response(request.id, std::move(payload),
                                               perfbg::obs::JsonValue(), false, false, 1.0)
              .dump();
      us.push_back(1000.0 * (now_ms() - t0));
      if (key.empty() || wire.empty()) throw std::runtime_error("protocol probe produced nothing");
    }
  }
  r.metric("server.protocol_us.p50", median(us), "us");
}

}  // namespace perfbench
