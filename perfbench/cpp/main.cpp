// perfbench: runs one workload of the perfbg benchmark and prints its
// metrics. Normally started by run.py, which builds it first:
//
//   perfbench --workload sweep_x20 --seed 3 --seconds 10 --trace 0
//       --reference perfbench/reference.json --work-dir .bench_build/perfbench/run
//   perfbench --write-reference perfbench/reference.json --work-dir <dir>
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the lines before it name every number with its unit.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "harness.hpp"

namespace perfbench {

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "GCC " __VERSION__;
#endif

const char* const kWorkloads[] = {"large_buffer_x50", "erlang4_x20", "sweep_x20", "daemon_mix"};

void run_workload(const Options& o, Report& r) {
  if (o.workload == "large_buffer_x50" || o.workload == "erlang4_x20")
    run_repeated_solves(o, r);
  else if (o.workload == "sweep_x20")
    run_sweep(o, r);
  else if (o.workload == "daemon_mix")
    run_daemon_mix(o, r);
  else
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
}

/// Log form of a value: integers in full, anything else at round-trip precision.
std::string loggable(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) return std::to_string(static_cast<long long>(v));
  return perfbg::obs::JsonValue(v).dump();
}

perfbg::obs::JsonValue valued(double value, const std::string& unit) {
  perfbg::obs::JsonValue v = perfbg::obs::JsonValue::object();
  v.set("value", value);
  v.set("unit", unit);
  return v;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

/// Runs every workload once on the default seed and stores the paper
/// metrics of each point.
int write_reference(const std::string& path, const std::string& work_dir) {
  perfbg::obs::JsonValue doc = perfbg::obs::JsonValue::object();
  for (const char* name : kWorkloads) {
    Options o;
    o.workload = name;
    o.seconds = 0.0;
    o.work_dir = work_dir;
    Report r;
    run_workload(o, r);
    if (r.tally.failed != 0) throw std::runtime_error(std::string(name) + ": a check failed");
    std::vector<PaperMetrics> rows;
    for (const auto& m : r.observed) {
      if (!m) throw std::runtime_error(std::string(name) + ": a point was not observed");
      rows.push_back(*m);
    }
    doc.set(name, reference_json(rows));
  }
  write_file(path, doc.dump(1));
  std::cout << "wrote " << path << "\n";
  return 0;
}

struct Args {
  Options options;
  std::string spans_path;
  std::string write_reference;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag " + flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") a.options.workload = value;
    else if (flag == "--seed") a.options.seed = std::stoull(value);
    else if (flag == "--seconds") a.options.seconds = std::stod(value);
    else if (flag == "--trace") a.options.trace = std::stoi(value) != 0;
    else if (flag == "--reference") a.options.reference_path = value;
    else if (flag == "--work-dir") a.options.work_dir = value;
    else if (flag == "--spans") a.spans_path = value;
    else if (flag == "--write-reference") a.write_reference = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.options.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (a.write_reference.empty() && a.options.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(a.options.seconds >= 0.0)) throw std::invalid_argument("--seconds must be >= 0");
  return a;
}

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics.set(name, valued(value, unit));
  std::cout << "metric " << name << " " << loggable(value) << " " << unit << "\n";
}

void Report::info(const std::string& name, double value, const std::string& unit,
                  std::size_t samples) {
  perfbg::obs::JsonValue v = valued(value, unit);
  if (samples > 0) v.set("samples", static_cast<std::int64_t>(samples));
  info_values.set(name, std::move(v));
  std::cout << "info " << name << " " << loggable(value) << " " << unit;
  if (samples > 0) std::cout << " n=" << samples;
  std::cout << "\n";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    if (!args.write_reference.empty())
      return write_reference(args.write_reference, args.options.work_dir);
    const Options& o = args.options;

    std::cout << "perfbench workload=" << o.workload << " seed=" << o.seed
              << " seconds=" << o.seconds << " trace=" << (o.trace ? 1 : 0) << "\n";
    std::cout << "machine nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN) << " compiler=\""
              << kCompiler << "\" build_type=" << PERFBENCH_BUILD_TYPE << " cxx_flags=\""
              << PERFBENCH_CXX_FLAGS << "\"\n";

    Report r;
    run_workload(o, r);
    if (o.trace) {
      emit_layer_metrics(r);
      run_kernel_probes(r);
      run_protocol_probe(r);
      if (!args.spans_path.empty()) {
        perfbg::obs::JsonValue doc = spans_to_json(r.spans.snapshot());
        doc.set("workload", o.workload);
        doc.set("seed", static_cast<std::int64_t>(o.seed));
        doc.set("metrics", r.metrics);
        doc.set("info", r.info_values);
        write_file(args.spans_path, doc.dump());
        std::cout << "spans " << args.spans_path << "\n";
      }
    }

    for (const std::string& f : r.tally.first_failures) std::cout << "failure " << f << "\n";
    const double fail_ratio = r.tally.attempted == 0
                                  ? 1.0
                                  : static_cast<double>(r.tally.failed) /
                                        static_cast<double>(r.tally.attempted);
    std::cout << "fail_ratio " << perfbg::obs::JsonValue(fail_ratio).dump() << " failed/attempted ("
              << r.tally.failed << "/" << r.tally.attempted << ")\n";

    perfbg::obs::JsonValue result = perfbg::obs::JsonValue::object();
    result.set("correct", r.tally.failed == 0 && r.tally.attempted > 0);
    result.set("attempted", static_cast<std::int64_t>(r.tally.attempted));
    result.set("failed", static_cast<std::int64_t>(r.tally.failed));
    result.set("metrics", r.metrics);
    std::cout << result.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
