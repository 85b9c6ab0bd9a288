// Workload inputs and the correctness checks every measured operation passes
// through. Checks run outside the timed regions; a failed check is counted,
// never fatal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "obs/json.hpp"
#include "server/protocol.hpp"

namespace perfbench {

/// Operations attempted and failed. A thrown perfbg::Error, an error
/// response, or an output that fails a check counts as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;  ///< first few reasons, for the log

  /// Counts one operation; an empty `failure` means it passed.
  void record(const std::string& failure);
};

/// The solver facts a solve is checked on.
struct SolveFacts {
  perfbg::core::FgBgMetrics metrics;
  double arrival_rate = 0.0;     ///< lambda of the arrival process
  double total_mass = 0.0;       ///< boundary plus repeating mass
  double r_residual = 0.0;       ///< ||A0 + R A1 + R^2 A2||_inf
  double tolerance_used = 0.0;   ///< the winning rung's tolerance
};

SolveFacts solve_facts(const perfbg::core::FgBgSolution& solution,
                       const perfbg::qbd::QbdProcess& process);

/// Mass, flow conservation and the R-equation residual bound; returns the
/// failure reason or "".
std::string check_solve(const SolveFacts& facts);

/// The four quantities the paper plots: QLEN_FG, QLEN_BG, Comp_BG, WaitP_FG.
struct PaperMetrics {
  double fg_queue_length = 0.0;
  double bg_queue_length = 0.0;
  double bg_completion = 0.0;
  double fg_delayed = 0.0;
};

PaperMetrics paper_metrics(const perfbg::core::FgBgMetrics& m);
/// From a daemon `result` object; throws when a field is missing.
PaperMetrics paper_metrics(const perfbg::obs::JsonValue& result);

/// Each metric equal to the reference within a relative 1e-9.
std::string check_reference(const PaperMetrics& got, const PaperMetrics& want);

/// A daemon response to a solve request: ok, and a result object present.
std::string check_response(const perfbg::obs::JsonValue& response);

/// Reference values of one workload's points on the default seed, in point
/// order, read from the benchmark's reference file.
std::vector<PaperMetrics> load_reference(const std::string& path, const std::string& workload);
perfbg::obs::JsonValue reference_json(const std::vector<PaperMetrics>& points);

/// One model point of a workload.
struct Point {
  double util = 0.0;
  double p = 0.0;
};

/// The fixed model coordinates of a workload plus its points. Seed 0 gives
/// the points as documented; any other seed scales every utilization by one
/// factor in [0.99, 1.01), shifts p by one offset in [-0.005, 0.005) and,
/// for daemon_mix, shuffles the request order.
struct Inputs {
  std::string service;  ///< expo | erlang4
  int buffer = 0;
  std::vector<Point> points;      ///< in documented order
  std::vector<std::size_t> order; ///< the seed's operation order over points

  /// The solve request frame a planner would send for point `i`.
  perfbg::obs::JsonValue frame(std::size_t i, const std::string& id) const;
  /// The model parameters of point `i`.
  perfbg::core::FgBgParams params(std::size_t i) const;
};

/// Inputs of a named workload; throws std::invalid_argument for an unknown one.
Inputs make_inputs(const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
