#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "qbd/rmatrix.hpp"
#include "server/client.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr double kRelTol = 1e-9;
constexpr double kMassTol = 1e-9;
// QbdSolution's own debug check holds the residual to this multiple of the
// winning rung's tolerance.
constexpr double kResidualFactor = 10.0;
constexpr std::size_t kKeptFailures = 5;

bool rel_close(double a, double b, double tol) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= tol * scale;
}

std::string mismatch(const char* what, double got, double want) {
  std::ostringstream os;
  os.precision(17);
  os << what << " " << got << " != " << want;
  return os.str();
}

}  // namespace

void Tally::record(const std::string& failure) {
  ++attempted;
  if (failure.empty()) return;
  ++failed;
  if (first_failures.size() < kKeptFailures) first_failures.push_back(failure);
}

SolveFacts solve_facts(const perfbg::core::FgBgSolution& solution,
                       const perfbg::qbd::QbdProcess& process) {
  SolveFacts f;
  f.metrics = solution.metrics();
  f.arrival_rate = solution.params().arrivals.mean_rate();
  f.total_mass = solution.qbd().total_mass();
  f.r_residual = perfbg::qbd::r_equation_residual(solution.qbd().r_matrix(), process.a0,
                                                  process.a1, process.a2);
  f.tolerance_used = solution.qbd().solver_stats().tolerance_used;
  return f;
}

std::string check_solve(const SolveFacts& f) {
  if (!(std::fabs(f.total_mass - 1.0) <= kMassTol))
    return mismatch("total mass", f.total_mass, 1.0);
  if (!rel_close(f.metrics.fg_throughput, f.arrival_rate, kRelTol))
    return mismatch("fg throughput vs lambda", f.metrics.fg_throughput, f.arrival_rate);
  if (!rel_close(f.metrics.bg_accept_rate, f.metrics.bg_throughput, kRelTol))
    return mismatch("bg accept rate vs bg throughput", f.metrics.bg_accept_rate,
                    f.metrics.bg_throughput);
  if (!(f.r_residual <= kResidualFactor * f.tolerance_used))
    return mismatch("R residual vs 10x tolerance", f.r_residual,
                    kResidualFactor * f.tolerance_used);
  return "";
}

PaperMetrics paper_metrics(const perfbg::core::FgBgMetrics& m) {
  return {m.fg_queue_length, m.bg_queue_length, m.bg_completion, m.fg_delayed};
}

PaperMetrics paper_metrics(const perfbg::obs::JsonValue& result) {
  return {result.at("fg_queue_length").as_double(), result.at("bg_queue_length").as_double(),
          result.at("bg_completion").as_double(), result.at("fg_delayed").as_double()};
}

std::string check_reference(const PaperMetrics& got, const PaperMetrics& want) {
  if (!rel_close(got.fg_queue_length, want.fg_queue_length, kRelTol))
    return mismatch("reference fg_queue_length", got.fg_queue_length, want.fg_queue_length);
  if (!rel_close(got.bg_queue_length, want.bg_queue_length, kRelTol))
    return mismatch("reference bg_queue_length", got.bg_queue_length, want.bg_queue_length);
  if (!rel_close(got.bg_completion, want.bg_completion, kRelTol))
    return mismatch("reference bg_completion", got.bg_completion, want.bg_completion);
  if (!rel_close(got.fg_delayed, want.fg_delayed, kRelTol))
    return mismatch("reference fg_delayed", got.fg_delayed, want.fg_delayed);
  return "";
}

std::string check_response(const perfbg::obs::JsonValue& response) {
  const perfbg::obs::JsonValue* ok = response.find("ok");
  if (!ok || !ok->is_bool()) return "response without an ok field";
  if (!ok->as_bool()) {
    const perfbg::obs::JsonValue* error = response.find("error");
    const perfbg::obs::JsonValue* code = error ? error->find("code") : nullptr;
    return "error response " + (code && code->is_string() ? code->as_string() : "?");
  }
  const perfbg::obs::JsonValue* result = response.find("result");
  if (!result || !result->is_object()) return "response without a result";
  return "";
}

std::vector<PaperMetrics> load_reference(const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const perfbg::obs::JsonValue doc = perfbg::obs::parse_json(text.str());
  std::vector<PaperMetrics> out;
  for (const perfbg::obs::JsonValue& row : doc.at(workload).as_array()) {
    const auto& v = row.as_array();
    if (v.size() != 4) throw std::runtime_error("reference rows hold four metrics");
    out.push_back({v[0].as_double(), v[1].as_double(), v[2].as_double(), v[3].as_double()});
  }
  return out;
}

perfbg::obs::JsonValue reference_json(const std::vector<PaperMetrics>& points) {
  perfbg::obs::JsonValue rows = perfbg::obs::JsonValue::array();
  for (const PaperMetrics& m : points) {
    perfbg::obs::JsonValue row = perfbg::obs::JsonValue::array();
    for (double v : {m.fg_queue_length, m.bg_queue_length, m.bg_completion, m.fg_delayed})
      row.push_back(v);
    rows.push_back(std::move(row));
  }
  return rows;
}


perfbg::obs::JsonValue Inputs::frame(std::size_t i, const std::string& id) const {
  perfbg::obs::JsonValue f =
      perfbg::server::solve_request(id, "email", points.at(i).util, points.at(i).p, buffer);
  f.set("service", service);
  return f;
}

perfbg::core::FgBgParams Inputs::params(std::size_t i) const {
  // The daemon's own request-to-model mapping, so every workload solves
  // exactly what a perfbgd request for the point would.
  perfbg::server::Request r;
  r.service = service;
  r.p = points.at(i).p;
  r.buffer = buffer;
  return perfbg::server::build_params(r, points.at(i).util);
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed) {
  Inputs in;
  std::vector<double> utils;
  bool shuffle = false;
  if (workload == "large_buffer_x50") {
    in.service = "expo";
    in.buffer = 50;
    utils = {0.15};
  } else if (workload == "erlang4_x20") {
    in.service = "erlang4";
    in.buffer = 20;
    utils = {0.15};
  } else if (workload == "sweep_x20") {
    in.service = "expo";
    in.buffer = 20;
    for (int k = 1; k <= 100; ++k) utils.push_back(0.002 * k);
  } else if (workload == "daemon_mix") {
    in.service = "expo";
    in.buffer = 20;
    for (int k = 1; k <= 200; ++k) utils.push_back(0.001 * k);
    shuffle = true;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  double scale = 1.0, shift = 0.0;
  SplitMix rng(seed);
  if (seed != 0) {
    scale = 1.0 + 0.01 * rng.symmetric();
    shift = 0.005 * rng.symmetric();
  }
  for (double u : utils) in.points.push_back({u * scale, 0.3 + shift});
  for (std::size_t i = 0; i < in.points.size(); ++i) in.order.push_back(i);
  if (shuffle && seed != 0) {
    for (std::size_t i = in.order.size() - 1; i > 0; --i)
      std::swap(in.order[i], in.order[rng.next() % (i + 1)]);
  }
  return in;
}

}  // namespace perfbench
