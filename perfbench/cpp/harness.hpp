// Shared plumbing of the benchmark executable: run options, the report each
// workload fills, and the layer probes that traced runs add.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/model.hpp"
#include "obs/json.hpp"
#include "qbd/rmatrix.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< empty: no reference comparison
  std::string work_dir;        ///< scratch files (daemon socket, logs), cwd-relative
};

/// Per-layer samples collected from traced operations and their probes.
struct LayerSamples {
  std::vector<double> chain_build_ms, solve_ms, preflight_ms, solve_r_ms, metrics_ms,
      boundary_tail_ms;
  std::vector<double> solve_r_iters;
  std::vector<double> r_residual, mass_defect;
  std::size_t warm_start_hits = 0;
  std::size_t solves = 0;
  double qbd_bytes = 0.0;
};

/// What a workload run produces.
struct Report {
  Tally tally;
  /// The metrics of the final JSON line: name -> {"value", "unit"}.
  perfbg::obs::JsonValue metrics = perfbg::obs::JsonValue::object();
  /// Numbers for the log and the span file only, same shape as `metrics`.
  perfbg::obs::JsonValue info_values = perfbg::obs::JsonValue::object();
  /// Paper metrics of each point as first observed, by point index.
  std::vector<std::optional<PaperMetrics>> observed;
  SpanLog spans;
  LayerSamples layers;
  /// Request frames paired with their result payloads, for the protocol probe.
  std::vector<std::pair<perfbg::obs::JsonValue, perfbg::obs::JsonValue>> frames;
  /// Operation latencies of traced and untraced operations in a traced run.
  std::vector<double> traced_op_ms, untraced_op_ms;

  /// A metric of the final JSON line, also printed as a log line.
  void metric(const std::string& name, double value, const std::string& unit);
  /// A number printed to the log only: it does not apply to every workload.
  void info(const std::string& name, double value, const std::string& unit,
            std::size_t samples = 0);
};

/// Times `fn`, recording a span under `parent` when `log` is non-null.
template <class Fn>
double timed(SpanLog* log, const char* name, std::uint64_t trace_id, int parent, Fn&& fn) {
  const double t0 = now_ms();
  fn();
  const double t1 = now_ms();
  if (log) log->add(Span{name, trace_id, parent, t0, t1});
  return t1 - t0;
}

/// Set-up time: runs `setup` at least `min_reps` times and for at least half
/// a second, and returns the median seconds of one set-up.
template <class Fn>
double median_setup_s(int min_reps, Fn&& setup) {
  std::vector<double> s;
  const double start = now_ms();
  while (s.size() < static_cast<std::size_t>(min_reps) || now_ms() - start < 500.0) {
    const double t0 = now_ms();
    setup();
    s.push_back((now_ms() - t0) / 1000.0);
  }
  return median(s);
}

/// One solve as a user runs it: FgBgModel construction (span core.chain_build)
/// then FgBgModel::solve (span core.solve), under one `op` span.
struct SolveOp {
  std::optional<perfbg::core::FgBgModel> model;
  std::optional<perfbg::core::FgBgSolution> solution;
  double chain_build_ms = 0.0;
  double solve_ms = 0.0;
  double total_ms() const { return chain_build_ms + solve_ms; }
};
SolveOp run_solve_op(SpanLog* log, std::uint64_t trace_id, const perfbg::core::FgBgParams& params,
                     const perfbg::qbd::RSolverOptions& opts = {});

/// Outside the operation: re-runs qbd::preflight, qbd::solve_r and the
/// FgBgSolution metric evaluation on the operation's inputs under a `probe`
/// span, and derives boundary + tail = core.solve - the three.
void probe_layers(SpanLog& log, std::uint64_t trace_id, const perfbg::core::FgBgModel& model,
                  const perfbg::core::FgBgSolution& solution,
                  const perfbg::qbd::RSolverOptions& opts, double core_solve_ms,
                  LayerSamples& out);

/// Checks a finished solve (and, when `want` is given, its paper metrics
/// against the reference) and adds its accuracy to `layers`. Returns the
/// failure reason or "".
std::string check_solve_op(const perfbg::core::FgBgSolution& solution,
                           const perfbg::qbd::QbdProcess& process, const PaperMetrics* want,
                           LayerSamples& layers);

/// Reference rows for the workload when the run uses the default seed and a
/// reference file was given; empty otherwise.
std::vector<PaperMetrics> reference_for(const Options& o, std::size_t points);

// Workloads.
void run_repeated_solves(const Options& o, Report& r);  // large_buffer_x50, erlang4_x20
void run_sweep(const Options& o, Report& r);            // sweep_x20
void run_daemon_mix(const Options& o, Report& r);       // daemon_mix

// Traced-run probes shared by every workload.
void emit_layer_metrics(Report& r);
void run_kernel_probes(Report& r);
void run_protocol_probe(Report& r);

}  // namespace perfbench
