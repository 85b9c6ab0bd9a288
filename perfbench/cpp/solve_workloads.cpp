// The in-process workloads: repeated cold solves (large_buffer_x50,
// erlang4_x20) and the warm-started 100-point sweep (sweep_x20).
#include <cmath>
#include <memory>

#include "harness.hpp"
#include "qbd/preflight.hpp"
#include "qbd/warm_start.hpp"
#include "runner/sweep_runner.hpp"
#include "server/protocol.hpp"
#include "util/table.hpp"
#include "workloads/presets.hpp"

namespace perfbench {

namespace {

using perfbg::core::FgBgModel;
using perfbg::core::FgBgSolution;

// Set-up is repeated and its median reported, so one slow start-up does not
// read as a regression.
constexpr int kSetups = 3;

double process_bytes(const perfbg::qbd::QbdProcess& p) {
  double elems = 0.0;
  for (const perfbg::linalg::Matrix* m : {&p.b00, &p.b01, &p.b10, &p.a0, &p.a1, &p.a2})
    elems += static_cast<double>(m->rows()) * static_cast<double>(m->cols());
  return elems * sizeof(double);
}

/// The end-to-end metrics common to every workload, from the operation
/// latencies and the answers delivered per second.
void emit_end_to_end(Report& r, double setup_s,
                     const std::vector<double>& op_ms, double answers_per_s) {
  r.metric("setup_s", setup_s, "s");
  r.metric("solve_ms.p50", median(op_ms), "ms");
  r.metric("answers_per_s", answers_per_s, "1/s");
}

}  // namespace

SolveOp run_solve_op(SpanLog* log, std::uint64_t trace_id, const perfbg::core::FgBgParams& params,
                     const perfbg::qbd::RSolverOptions& opts) {
  SolveOp op;
  ScopedSpan span(log, "op", trace_id);
  op.chain_build_ms = timed(log, "core.chain_build", trace_id, span.index(),
                            [&] { op.model.emplace(params); });
  op.solve_ms = timed(log, "core.solve", trace_id, span.index(),
                      [&] { op.solution.emplace(op.model->solve(opts)); });
  return op;
}

void probe_layers(SpanLog& log, std::uint64_t trace_id, const FgBgModel& model,
                  const FgBgSolution& solution, const perfbg::qbd::RSolverOptions& opts,
                  double core_solve_ms, LayerSamples& out) {
  ScopedSpan probe(&log, "probe", trace_id);
  const perfbg::qbd::QbdProcess& p = model.process();
  const double preflight = timed(&log, "qbd.preflight", trace_id, probe.index(),
                                 [&] { (void)perfbg::qbd::preflight(p); });
  perfbg::qbd::RSolverStats stats;
  const double solve_r = timed(&log, "qbd.solve_r", trace_id, probe.index(), [&] {
    (void)perfbg::qbd::solve_r(p.a0, p.a1, p.a2, opts, &stats);
  });
  perfbg::qbd::QbdSolution copy = solution.qbd();
  const double metrics = timed(&log, "core.metrics", trace_id, probe.index(), [&] {
    const FgBgSolution evaluated(model.params(), model.layout(), std::move(copy));
    (void)evaluated;
  });
  out.preflight_ms.push_back(preflight);
  out.solve_r_ms.push_back(solve_r);
  out.metrics_ms.push_back(metrics);
  out.boundary_tail_ms.push_back(core_solve_ms - preflight - solve_r - metrics);
  out.qbd_bytes = process_bytes(p);
}

std::string check_solve_op(const FgBgSolution& solution, const perfbg::qbd::QbdProcess& process,
                           const PaperMetrics* want, LayerSamples& layers) {
  const SolveFacts facts = solve_facts(solution, process);
  const perfbg::qbd::RSolverStats& stats = solution.qbd().solver_stats();
  layers.r_residual.push_back(facts.r_residual);
  layers.mass_defect.push_back(std::fabs(facts.total_mass - 1.0));
  layers.solve_r_iters.push_back(stats.iterations);
  layers.warm_start_hits += stats.warm_start_used ? 1 : 0;
  layers.solves += 1;
  std::string why = check_solve(facts);
  if (why.empty() && want) why = check_reference(paper_metrics(facts.metrics), *want);
  return why;
}

std::vector<PaperMetrics> reference_for(const Options& o, std::size_t points) {
  if (o.seed != 0 || o.reference_path.empty()) return {};
  std::vector<PaperMetrics> ref = load_reference(o.reference_path, o.workload);
  if (ref.size() != points) throw std::runtime_error("reference has the wrong point count");
  return ref;
}

void run_repeated_solves(const Options& o, Report& r) {
  const Inputs in = make_inputs(o.workload, o.seed);
  r.observed.assign(in.points.size(), std::nullopt);

  const double setup_s =
      median_setup_s(kSetups, [&] { (void)run_solve_op(nullptr, 0, in.params(0)); });
  const std::vector<PaperMetrics> ref = reference_for(o, in.points.size());
  const perfbg::core::FgBgParams params = in.params(0);

  std::vector<double> traced_ms, plain_ms;
  const double deadline = now_ms() + 1000.0 * o.seconds;
  std::uint64_t id = 0;
  do {
    ++id;
    // In a traced run every other operation is traced, so the untraced
    // ones measure the tracing overhead under the same conditions.
    const bool traced = o.trace && id % 2 == 1;
    SpanLog* log = traced ? &r.spans : nullptr;
    try {
      const SolveOp op = run_solve_op(log, id, params);
      (traced ? traced_ms : plain_ms).push_back(op.total_ms());
      r.tally.record(check_solve_op(*op.solution, op.model->process(),
                                    ref.empty() ? nullptr : &ref[0], r.layers));
      if (!r.observed[0]) r.observed[0] = paper_metrics(op.solution->metrics());
      if (traced) {
        r.layers.chain_build_ms.push_back(op.chain_build_ms);
        r.layers.solve_ms.push_back(op.solve_ms);
        probe_layers(r.spans, id, *op.model, *op.solution, {}, op.solve_ms, r.layers);
      }
      if (r.frames.empty())
        r.frames.emplace_back(in.frame(0, "op-1"),
                              perfbg::server::metrics_payload(op.solution->metrics()));
    } catch (const std::exception& e) {
      r.tally.record(e.what());
    }
  } while (now_ms() < deadline || (o.trace && plain_ms.empty()));

  if (o.trace) {
    r.traced_op_ms = std::move(traced_ms);
    r.untraced_op_ms = std::move(plain_ms);
    return;
  }
  if (plain_ms.empty()) throw std::runtime_error("no operation completed");
  double busy_ms = 0.0;
  for (double v : plain_ms) busy_ms += v;
  emit_end_to_end(r, setup_s, plain_ms,
                  1000.0 * static_cast<double>(plain_ms.size()) / busy_ms);
}

namespace {

/// One sweep point as the sweep keeps it for checking after the timed run.
struct SweepPoint {
  std::optional<FgBgSolution> solution;
  perfbg::linalg::Matrix a0, a1, a2;
  std::shared_ptr<const perfbg::qbd::RWarmStart> seed;
  double chain_build_ms = 0.0;
  double solve_ms = 0.0;
};

}  // namespace

void run_sweep(const Options& o, Report& r) {
  const Inputs in = make_inputs(o.workload, o.seed);
  const std::size_t n = in.points.size();
  r.observed.assign(n, std::nullopt);

  const double setup_s =
      median_setup_s(kSetups, [&] { (void)run_solve_op(nullptr, 0, in.params(0)); });
  const std::vector<PaperMetrics> ref = reference_for(o, n);

  // perfbg_cli --sweep-util: one base parameter set, the arrivals rescaled
  // inside each point, and one seed-cache class for the whole sweep (its
  // coordinates minus the stepped utilization axis).
  const perfbg::core::FgBgParams base = in.params(0);
  const perfbg::traffic::MarkovianArrivalProcess email = perfbg::workloads::email();
  const std::string seed_class = email.name() +
                                 "|p=" + perfbg::format_number(base.bg_probability, 6) +
                                 "|idle=" + perfbg::format_number(base.idle_wait_intensity, 6) +
                                 "|X=" + std::to_string(base.bg_buffer);

  std::vector<double> sweep_ms, overhead_ms;
  std::vector<double> traced_points, untraced_points;
  const double deadline = now_ms() + 1000.0 * o.seconds;
  std::uint64_t next_id = 0;
  int sweeps = 0;
  do {
    const bool traced = o.trace && sweeps % 2 == 0;
    SpanLog* log = traced ? &r.spans : nullptr;
    const std::uint64_t first_id = next_id + 1;
    next_id += n;
    std::vector<SweepPoint> points(n);

    const double t0 = now_ms();
    perfbg::runner::RunnerOptions ro;
    ro.jobs = 1;
    ro.warm_start = true;
    perfbg::runner::SweepRunner sweep(ro);
    const auto seeds = std::make_shared<perfbg::qbd::RSeedCache>();
    for (const std::size_t i : in.order) {
      const std::string key = email.name() +
                              "|u=" + perfbg::format_number(in.points[i].util, 6) +
                              "|p=" + perfbg::format_number(base.bg_probability, 6) +
                              "|X=" + std::to_string(base.bg_buffer) +
                              "|iw=" + perfbg::format_number(base.idle_wait_intensity, 6);
      sweep.add(key, [&, i](perfbg::runner::PointContext& ctx) {
        perfbg::core::FgBgParams params = base;
        params.arrivals = email.scaled_to_utilization(in.points[i].util, base.mean_service());
        perfbg::qbd::RSolverOptions opts;
        opts.cancel = &ctx.token();
        opts.start_rung = ctx.attempt() - 1;
        const bool warm = opts.start_rung == 0;
        if (warm) opts.warm_start = seeds->get(seed_class);
        SolveOp op = run_solve_op(log, first_id + i, params, opts);
        const FgBgSolution& solution = *op.solution;
        if (warm)
          seeds->put(seed_class, solution.qbd().r_matrix(),
                     solution.qbd().solver_stats().iterations);
        SweepPoint& kept = points[i];
        kept.a0 = op.model->process().a0;
        kept.a1 = op.model->process().a1;
        kept.a2 = op.model->process().a2;
        kept.seed = opts.warm_start;
        kept.chain_build_ms = op.chain_build_ms;
        kept.solve_ms = op.solve_ms;
        perfbg::obs::JsonValue payload = perfbg::server::metrics_payload(solution.metrics());
        kept.solution = std::move(op.solution);
        return payload;
      });
    }
    const perfbg::runner::SweepResult result = sweep.run();
    const double elapsed = now_ms() - t0;
    ++sweeps;

    double compute_ms = 0.0;
    for (const perfbg::runner::PointOutcome& out : result.outcomes) {
      const std::size_t i = in.order[out.index];
      if (!out.ok()) {
        r.tally.record(out.error_code + ": " + out.error_message);
        continue;
      }
      compute_ms += out.wall_ms;
      (traced ? traced_points : untraced_points).push_back(out.wall_ms);
      SweepPoint& kept = points[i];
      perfbg::qbd::QbdProcess blocks;
      blocks.a0 = kept.a0;
      blocks.a1 = kept.a1;
      blocks.a2 = kept.a2;
      r.tally.record(check_solve_op(*kept.solution, blocks, ref.empty() ? nullptr : &ref[i],
                                    r.layers));
      if (!r.observed[i]) r.observed[i] = paper_metrics(kept.solution->metrics());
      if (r.frames.size() < n)
        r.frames.emplace_back(in.frame(i, "point-" + std::to_string(i)),
                              perfbg::server::metrics_payload(kept.solution->metrics()));
      if (traced) {
        r.layers.chain_build_ms.push_back(kept.chain_build_ms);
        r.layers.solve_ms.push_back(kept.solve_ms);
        const FgBgModel model(in.params(i));
        perfbg::qbd::RSolverOptions opts;
        opts.warm_start = kept.seed;
        probe_layers(r.spans, first_id + i, model, *kept.solution, opts, kept.solve_ms,
                     r.layers);
      }
    }
    if (!traced) {
      sweep_ms.push_back(elapsed);
      overhead_ms.push_back(elapsed - compute_ms);
    }
  } while (now_ms() < deadline || (o.trace && sweeps < 2));

  if (!overhead_ms.empty())
    r.info("runner.overhead_ms", median(overhead_ms), "ms", overhead_ms.size());
  if (o.trace) {
    r.traced_op_ms = std::move(traced_points);
    r.untraced_op_ms = std::move(untraced_points);
    return;
  }
  const std::vector<double>& point_ms = untraced_points;
  if (point_ms.empty()) throw std::runtime_error("no sweep point completed");
  double total_ms = 0.0;
  for (double v : sweep_ms) total_ms += v;
  emit_end_to_end(r, setup_s, point_ms,
                  1000.0 * static_cast<double>(point_ms.size()) / total_ms);
  if (const auto p90 = tail_percentile(point_ms, 0.9))
    r.info("solve_ms.p90", *p90, "ms", point_ms.size());
  r.info("sweep_s", median(sweep_ms) / 1000.0, "s", sweep_ms.size());
}

}  // namespace perfbench
