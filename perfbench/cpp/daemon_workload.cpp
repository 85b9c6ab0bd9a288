// daemon_mix: a fresh perfbgd --workers 2 driven in a closed loop over two
// lock-step client connections, first with 200 distinct cold keys, then with
// cached repeats of those keys.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "server/client.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kWorkers = 2;
// Two connections, used in turn by one thread, so one request is in flight at
// a time: with two concurrent cold solves the cold latency swung ~20 % run to
// run on a shared 4-vCPU host.
constexpr int kClients = 2;
// Spawn -> READY is a few milliseconds, so it is repeated more often than the
// solve workloads' set-up.
constexpr int kSpawns = 5;
constexpr double kReadyTimeoutMs = 20000.0;
constexpr double kDrainTimeoutMs = 20000.0;
// A client call that takes longer than this is a wedge: its connection is
// shut down and the call counts as failed.
constexpr double kCallDeadlineMs = 10000.0;
// p99 of the cached round trips needs ten samples beyond it.
constexpr std::size_t kMinCached = 1000;
// Every tenth cold key is re-solved in-process for the per-layer probes.
constexpr std::size_t kProbeStride = 10;
// Length of one cold-then-cached round, and the relative utilization step
// that makes each round's keys new to the daemon's cache (canonical keys
// keep six significant digits).
constexpr double kRoundSeconds = 10.0;
constexpr double kRoundStep = 2e-4;

/// Restricts the calling thread, and so every thread and process it starts
/// afterwards, to the highest-numbered CPU it may run on.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0)
      throw std::runtime_error("sched_setaffinity failed");
    return;
  }
}

/// A perfbgd child process; the destructor kills and reaps it if it still runs.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& binary, const std::string& socket_path,
                const std::string& log_path) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    const std::string socket_arg = "--socket=" + socket_path;
    const std::string workers_arg = "--workers=" + std::to_string(kWorkers);
    std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                               const_cast<char*>(socket_arg.c_str()),
                               const_cast<char*>(workers_arg.c_str()), nullptr};
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (rc != 0) {
      pid_ = -1;
      ::close(out_fd_);
      throw std::runtime_error(std::string("cannot start perfbgd: ") + std::strerror(rc));
    }
  }

  ~DaemonProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Blocks until the daemon prints its READY line.
  void wait_ready() {
    const double deadline = now_ms() + kReadyTimeoutMs;
    std::string line;
    while (true) {
      const double left = deadline - now_ms();
      if (left <= 0) throw std::runtime_error("perfbgd did not become ready");
      pollfd p{out_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left) + 1) <= 0) continue;
      char c = 0;
      const ssize_t n = ::read(out_fd_, &c, 1);
      if (n <= 0) throw std::runtime_error("perfbgd exited before READY");
      if (c != '\n') {
        line.push_back(c);
        continue;
      }
      if (line.rfind("READY", 0) == 0) return;
      line.clear();
    }
  }

  struct Exit {
    int status = 0;          ///< raw wait status
    double peak_rss_mb = 0.0;
  };

  /// SIGTERM, then waits for the drain; SIGKILL when it overruns.
  Exit drain() {
    ::kill(pid_, SIGTERM);
    Exit e;
    rusage ru{};
    const double deadline = now_ms() + kDrainTimeoutMs;
    while (true) {
      const pid_t r = ::wait4(pid_, &e.status, WNOHANG, &ru);
      if (r == pid_) break;
      if (r < 0 && errno != EINTR) throw std::runtime_error("wait4 on perfbgd failed");
      if (now_ms() > deadline) ::kill(pid_, SIGKILL);
      ::usleep(2000);
    }
    pid_ = -1;
    e.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return e;
  }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
};

std::string exit_failure(const DaemonProcess::Exit& e) {
  if (WIFEXITED(e.status) && WEXITSTATUS(e.status) == 0) return "";
  if (WIFSIGNALED(e.status)) return "perfbgd killed by signal " + std::to_string(WTERMSIG(e.status));
  return "perfbgd drain exit status " + std::to_string(WEXITSTATUS(e.status));
}

/// Shuts a client's socket down when its current call overruns the
/// deadline, so a wedged daemon yields failed calls instead of a hang.
class CallWatchdog {
 public:
  explicit CallWatchdog(std::vector<int> fds) : fds_(std::move(fds)), started_(fds_.size()) {
    for (auto& s : started_) s.store(-1.0);
    thread_ = std::thread([this] { loop(); });
  }
  ~CallWatchdog() {
    stop_.store(true);
    thread_.join();
  }
  CallWatchdog(const CallWatchdog&) = delete;
  CallWatchdog& operator=(const CallWatchdog&) = delete;

  void begin(std::size_t slot) { started_[slot].store(now_ms()); }
  void end(std::size_t slot) { started_[slot].store(-1.0); }

 private:
  void loop() {
    while (!stop_.load()) {
      for (std::size_t i = 0; i < fds_.size(); ++i) {
        const double t = started_[i].load();
        if (t >= 0.0 && now_ms() - t > kCallDeadlineMs) ::shutdown(fds_[i], SHUT_RDWR);
      }
      ::usleep(20000);
    }
  }

  std::vector<int> fds_;
  std::vector<std::atomic<double>> started_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct ColdResult {
  double round_trip_ms = -1.0;  ///< < 0: the call failed
  bool traced = false;
  perfbg::obs::JsonValue response;
  std::string failure;
};

struct ClientLog {
  std::vector<double> round_trip_ms;
  std::vector<std::string> failures;  ///< one entry per request; "" = passed
  std::size_t cached_responses = 0;
};

using Clients = std::vector<std::unique_ptr<perfbg::server::Client>>;

bool is_cached(const perfbg::obs::JsonValue& response) {
  const perfbg::obs::JsonValue* cached = response.find("cached");
  return cached && cached->is_bool() && cached->as_bool();
}

/// Sends one request on connection `c` under the call deadline; returns the
/// round trip in ms and the response, or the failure.
double timed_request(Clients& clients, CallWatchdog& watchdog, std::size_t c,
                     const perfbg::obs::JsonValue& frame, perfbg::obs::JsonValue& response,
                     std::string& failure) {
  watchdog.begin(c);
  try {
    const double t0 = now_ms();
    response = clients[c]->request(frame);
    const double ms = now_ms() - t0;
    watchdog.end(c);
    return ms;
  } catch (const std::exception& e) {
    watchdog.end(c);
    failure = e.what();
    return -1.0;
  }
}

/// Sends every key once, alternating between the connections. With a span
/// log, every other request is traced.
std::vector<ColdResult> cold_pass(Clients& clients, CallWatchdog& watchdog,
                                  const std::vector<perfbg::obs::JsonValue>& frames,
                                  const std::vector<std::size_t>& order, SpanLog* log,
                                  std::uint64_t first_id) {
  std::vector<ColdResult> cold(frames.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    ColdResult& out = cold[order[k]];
    out.traced = log && k % 2 == 0;
    ScopedSpan span(out.traced ? log : nullptr, "server.request", first_id + k);
    out.round_trip_ms = timed_request(clients, watchdog, k % clients.size(),
                                      frames[order[k]], out.response, out.failure);
  }
  return cold;
}

/// Round-robin repeats of the keys, alternating between the connections,
/// until `until_ms` has passed and at least `min_requests` were sent; each
/// result must be byte-equal to the key's cold result.
ClientLog cached_pass(Clients& clients, CallWatchdog& watchdog,
                      const std::vector<perfbg::obs::JsonValue>& frames,
                      const std::vector<std::size_t>& order,
                      const std::vector<std::string>& cold_dump, double until_ms,
                      std::size_t min_requests) {
  ClientLog log;
  for (std::size_t j = 0; now_ms() < until_ms || j < min_requests; ++j) {
    const std::size_t i = order[j % order.size()];
    perfbg::obs::JsonValue response;
    std::string why;
    const double ms = timed_request(clients, watchdog, j % clients.size(), frames[i], response, why);
    if (ms >= 0.0) {
      log.round_trip_ms.push_back(ms);
      why = check_response(response);
      if (why.empty()) {
        log.cached_responses += is_cached(response) ? 1 : 0;
        if (response.at("result").dump() != cold_dump[i])
          why = "cached result differs from the cold result of key " + std::to_string(i);
      }
    }
    log.failures.push_back(std::move(why));
  }
  return log;
}

}  // namespace

void run_daemon_mix(const Options& o, Report& r) {
  const Inputs in = make_inputs(o.workload, o.seed);
  const std::size_t n = in.points.size();
  r.observed.assign(n, std::nullopt);
  const std::vector<PaperMetrics> ref = reference_for(o, n);
  const std::string socket_path = o.work_dir + "/perfbgd-" + std::to_string(::getpid()) + ".sock";
  const std::string log_path = o.work_dir + "/perfbgd.log";

  // With one request in flight nothing here runs in parallel, so the harness
  // and the daemon share one CPU: a request then costs the daemon's own work
  // plus same-CPU context switches, instead of cross-CPU wakeups whose price
  // on a shared host moved cold latency ~12 % run to run (~6 % pinned).
  pin_to_one_cpu();

  // Set-up is spawn -> READY; every daemon but the last is drained again
  // outside the timed part.
  std::unique_ptr<DaemonProcess> daemon;
  std::vector<double> setup_s;
  const double setup_start = now_ms();
  while (setup_s.size() < static_cast<std::size_t>(kSpawns) || now_ms() - setup_start < 500.0) {
    if (daemon) daemon->drain();
    const double t0 = now_ms();
    daemon = std::make_unique<DaemonProcess>(PERFBENCH_PERFBGD, socket_path, log_path);
    daemon->wait_ready();
    setup_s.push_back((now_ms() - t0) / 1000.0);
  }

  std::vector<double> cold_ms, traced_ms, plain_ms, wall_ms, overhead_ms, cached_ms;
  std::size_t responses = 0, cached_responses = 0;
  double cold_elapsed_ms = 0.0, cached_elapsed_ms = 0.0;
  // The machine's speed drifts over tens of seconds, so the run is split into
  // rounds, each a cold pass over fresh keys followed by cached repeats; both
  // latencies then sample the whole run.
  const int rounds = std::max(1, static_cast<int>(std::lround(o.seconds / kRoundSeconds)));
  {
    Clients clients;
    std::vector<int> fds;
    for (int c = 0; c < kClients; ++c) {
      clients.push_back(std::make_unique<perfbg::server::Client>(socket_path));
      fds.push_back(clients.back()->fd());
    }
    CallWatchdog watchdog(fds);
    const double start = now_ms();
    for (int round = 0; round < rounds; ++round) {
      Inputs keys = in;
      for (Point& p : keys.points) p.util *= 1.0 + kRoundStep * round;
      std::vector<perfbg::obs::JsonValue> frames;
      for (std::size_t i = 0; i < n; ++i)
        frames.push_back(keys.frame(i, "key-" + std::to_string(round) + "-" + std::to_string(i)));

      const double cold_t0 = now_ms();
      const std::vector<ColdResult> cold =
          cold_pass(clients, watchdog, frames, keys.order, o.trace ? &r.spans : nullptr,
                    1 + static_cast<std::uint64_t>(round) * n);
      cold_elapsed_ms += now_ms() - cold_t0;
      std::vector<std::string> cold_dump(n);
      for (std::size_t i = 0; i < n; ++i) {
        const ColdResult& c = cold[i];
        if (c.round_trip_ms < 0.0) {
          r.tally.record(c.failure.empty() ? "cold request not sent" : c.failure);
          continue;
        }
        std::string why = check_response(c.response);
        if (why.empty()) {
          const perfbg::obs::JsonValue& result = c.response.at("result");
          cold_dump[i] = result.dump();
          if (round == 0) {
            try {
              const PaperMetrics got = paper_metrics(result);
              if (!r.observed[i]) r.observed[i] = got;
              if (!ref.empty()) why = check_reference(got, ref[i]);
            } catch (const std::exception& e) {
              why = e.what();
            }
            r.frames.emplace_back(frames[i], result);
          }
          const double wall = c.response.at("wall_ms").as_double();
          wall_ms.push_back(wall);
          overhead_ms.push_back(c.round_trip_ms - wall);
        }
        r.tally.record(why);
        ++responses;
        cached_responses += is_cached(c.response) ? 1 : 0;
        cold_ms.push_back(c.round_trip_ms);
        (c.traced ? traced_ms : plain_ms).push_back(c.round_trip_ms);
      }

      const double t0 = now_ms();
      const ClientLog log = cached_pass(clients, watchdog, frames, keys.order, cold_dump,
                                        start + 1000.0 * o.seconds * (round + 1) / rounds,
                                        (kMinCached + rounds - 1) / rounds);
      cached_elapsed_ms += now_ms() - t0;
      for (const std::string& f : log.failures) r.tally.record(f);
      cached_ms.insert(cached_ms.end(), log.round_trip_ms.begin(), log.round_trip_ms.end());
      cached_responses += log.cached_responses;
      responses += log.round_trip_ms.size();
    }
  }
  const DaemonProcess::Exit exit = daemon->drain();
  r.tally.record(exit_failure(exit));

  if (cold_ms.empty() || cached_ms.empty()) throw std::runtime_error("no daemon request completed");
  const double cached_rps = 1000.0 * static_cast<double>(cached_ms.size()) / cached_elapsed_ms;
  const double cold_rps = 1000.0 * static_cast<double>(cold_ms.size()) / cold_elapsed_ms;
  const double hit_ratio = static_cast<double>(cached_responses) / static_cast<double>(responses);
  r.info("server.cache_hit_ratio", hit_ratio, "ratio", responses);
  if (!wall_ms.empty()) {
    r.info("server.solve_wall_ms.p50", median(wall_ms), "ms", wall_ms.size());
    r.info("server.cold_overhead_ms.p50", median(overhead_ms), "ms", overhead_ms.size());
  }

  if (o.trace) {
    r.traced_op_ms = std::move(traced_ms);
    r.untraced_op_ms = std::move(plain_ms);
    // The solver layers run inside the daemon; re-solve a sample of the cold
    // keys here, outside the measured phases, to see them.
    for (std::size_t k = 0; k < n; k += kProbeStride) {
      const std::size_t i = in.order[k];
      const std::uint64_t trace_id = static_cast<std::uint64_t>(rounds) * n + 1 + k;
      try {
        const SolveOp op = run_solve_op(&r.spans, trace_id, in.params(i));
        r.layers.chain_build_ms.push_back(op.chain_build_ms);
        r.layers.solve_ms.push_back(op.solve_ms);
        r.tally.record(check_solve_op(*op.solution, op.model->process(),
                                      ref.empty() ? nullptr : &ref[i], r.layers));
        probe_layers(r.spans, trace_id, *op.model, *op.solution, {}, op.solve_ms, r.layers);
      } catch (const std::exception& e) {
        r.tally.record(e.what());
      }
    }
    return;
  }

  r.metric("setup_s", median(setup_s), "s");
  r.metric("solve_ms.p50", median(cold_ms), "ms");
  // Cached throughput is printed below but not gated: a lock-step cache hit
  // is a pair of cross-core wakeups, and on a shared host their cost swings
  // run to run by more than any bound would allow (README.md).
  r.metric("answers_per_s", cold_rps, "1/s");
  r.metric("peak_rss_mb", exit.peak_rss_mb, "MB");
  r.info("cold_ms.p50", median(cold_ms), "ms", cold_ms.size());
  if (const auto p95 = tail_percentile(cold_ms, 0.95))
    r.info("cold_ms.p95", *p95, "ms", cold_ms.size());
  r.info("cached_ms.p50", median(cached_ms), "ms", cached_ms.size());
  if (const auto p99 = tail_percentile(cached_ms, 0.99))
    r.info("cached_ms.p99", *p99, "ms", cached_ms.size());
  r.info("cached_rps", cached_rps, "1/s", cached_ms.size());
}

}  // namespace perfbench
