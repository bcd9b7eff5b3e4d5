// perfbench — the repository's end-to-end benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--reduced]
//
// Workloads (see workloads.cpp for why each exists): rcs-26,
// shor-emu-25, qft-dist-24, small-batch. Each is a closed loop with one
// client: the next Engine::run starts only after the previous one
// returned and was checked.
//
// --trace 0 measures the end-to-end metrics with tracing off:
//   run_s       median wall seconds of one Engine::run (small-batch: of
//               one program)
//   run_p90_s   90th percentile of the same samples
//   peak_rss_mb peak resident memory, read right after the timed window
//               (the checks' reference runs come later)
//   setup_s     median of repeated set-ups (seeded input generation and
//               Program construction) on the fastest CPU; warm-up
//               runs excluded
// --trace 1 is the separate traced pass: it calibrates the host, then
// makes an untraced run, a traced run and a replay through the modules'
// public functions (layers.hpp) of each case in turn, and prints the
// per-layer metrics, `residual_s` and `obs.trace_overhead`.
//
// Output: a context line (workload, seed, host fingerprint, residency)
// and, last, one JSON object {"correct", "attempted", "failed",
// "metrics"}. --reduced runs the same generators at a few qubits and
// additionally checks every case against the "hpc" fp64 backend (the
// self-test). Exit code 0 whenever a result is printed (failed checks
// show in it), 2 for invalid arguments, 1 when the benchmark itself
// fails.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/timer.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace qc;
using perfbench::Workload;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool reduced = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--reduced") {
      a.reduced = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    std::size_t used = 0;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(val, &used);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val, &used);
    } else if (key == "--trace") {
      a.trace = std::stoi(val, &used);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
    if (used != 0 && used != val.size()) throw std::invalid_argument("bad value for " + key);
  }
  const auto& names = perfbench::workload_names();
  if (!have_workload || std::find(names.begin(), names.end(), a.workload) == names.end())
    throw std::invalid_argument("--workload must be one of rcs-26, shor-emu-25, qft-dist-24, "
                                "small-batch");
  if (!(a.seconds > 0 && a.seconds <= 3600)) throw std::invalid_argument("bad --seconds");
  if (a.trace != 0 && a.trace != 1) throw std::invalid_argument("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  if (v.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(v.begin(), mid));
}

/// Linear-interpolation percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

std::size_t state_bytes(qubit_t n, Precision p) { return dim(n) * amplitude_bytes(p); }

/// The workload's pause between programs, spent busy on this thread.
void pause(const Workload& w) {
  for (WallTimer t; t.seconds() < w.pause_s;) {
  }
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// One Engine::run of case `ci` under measurement seed `seed`.
engine::Result run_case(const Workload& w, std::size_t ci, std::uint64_t seed, bool trace) {
  engine::RunOptions o = w.opts;
  o.seed = seed;
  o.trace = trace;
  return engine::Engine().run(w.cases[ci].program, o);
}

struct Outcome {
  std::size_t attempted = 0;
  std::vector<double> samples;  ///< Timed run_s samples, in run order.
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  ///< Failed checks outside the per-run ones.
  double residual_share = 0;          ///< Traced pass: residual_s / run_s.
};

/// --trace 0: the end-to-end metrics, tracing off.
Outcome end_to_end(const Workload& w, const Args& a, perfbench::Failures& failures,
                   double setup_s) {
  Outcome out;
  std::vector<double>& times = out.samples;
  WallTimer window;
  for (bool last = false; !last; ++out.attempted) {
    const std::size_t ci = out.attempted % w.cases.size();
    const std::uint64_t seed = perfbench::run_seed(w.cases[ci], out.attempted);
    try {
      WallTimer t;
      engine::Result r = run_case(w, ci, seed, false);
      times.push_back(t.seconds());
      last = window.seconds() >= a.seconds;
      perfbench::check_run(w, {out.attempted, ci, seed, last}, r, a.reduced, failures);
    } catch (const std::exception& e) {
      failures.fail(out.attempted, std::string("run threw: ") + e.what());
      last = window.seconds() >= a.seconds;
    }
    pause(w);
  }
  out.metrics = {{"run_s", median(times), "s"},
                 {"run_p90_s", percentile(times, 0.9), "s"},
                 {"peak_rss_mb", peak_rss_mb(), "MB"},
                 {"setup_s", setup_s, "s"}};
  return out;
}

/// Largest |residual_s| / run_s the traced pass accepts.
constexpr double kResidualShare = 0.3;

/// --trace 1: each iteration of the window makes one untraced run (this
/// pass's run_s and the engine rows), one traced run (the span splits)
/// and one replay of the same case through the modules (layers.hpp), so
/// the layer times and the run they account for share the host's state.
Outcome traced_pass(const Workload& w, const Args& a, perfbench::Failures& failures,
                    const perfbench::HostInfo& host) {
  using perfbench::Replay;
  using perfbench::SpanSplit;
  Outcome out;
  const bool dist = w.opts.backend == "dist";
  const int ranks = dist ? w.opts.dist_ranks : 1;
  // The attributed layers are disjoint: engine overhead (lowering is
  // inside it), measurement rows, emulator ops, planning, blocked
  // execution and exchanges. dist executes its blocked plans inside the
  // rank jobs, where the spans are the only view of that time; its
  // planning (fusion and blocking included) is the replayed
  // dist_schedule.
  auto module_layers = [&](const Replay& r, const SpanSplit& sp) {
    const double plan = dist ? r.dist_plan_s : r.fuse_plan_s + r.sched_plan_s;
    const double exec = dist ? sp.sweep_s + sp.remap_s + sp.global_s : r.sched_exec_s;
    return r.emu_function_s + r.emu_qft_s + plan + exec + sp.exchange_s;
  };
  std::vector<double> untraced, traced, overhead, measure, residual;
  std::vector<SpanSplit> splits;
  std::vector<Replay> reps;  ///< One per iteration; their times are medians.
  std::vector<std::size_t> rep_cases;
  std::vector<Replay> counted;  ///< First visit of the first 16 cases: counts repeat.
  const std::size_t min_iterations = std::min<std::size_t>(w.cases.size(), 16);
  double host_bytes = 0, net_bytes = 0;
  WallTimer window;
  for (std::size_t it = 0;; ++it) {
    const std::size_t ci = it % w.cases.size();
    struct Untraced {
      double s, overhead, measure;
      std::uint64_t seed;
      std::vector<index_t> outcomes;
    };
    std::optional<Untraced> u;
    SpanSplit split;
    bool last = false;
    for (const bool trace : {false, true}) {
      const std::uint64_t seed = perfbench::run_seed(w.cases[ci], out.attempted);
      last = trace && it + 1 >= min_iterations && window.seconds() >= a.seconds;
      try {
        WallTimer t;
        engine::Result r = run_case(w, ci, seed, trace);
        const double s = t.seconds();
        last = trace && it + 1 >= min_iterations && window.seconds() >= a.seconds;
        if (trace) {
          traced.push_back(s);
          if (r.trace_data != nullptr) {
            split = perfbench::span_split(*r.trace_data, ranks);
            splits.push_back(split);
          }
        } else {
          // Engine rows: everything outside them is engine overhead
          // (backend set-up, lowering, allocation, projection).
          const auto& ops = w.cases[ci].program.ops();
          double rows = 0, meas = 0;
          for (std::size_t k = 0; k < r.trace.size(); ++k) {
            rows += r.trace[k].seconds;
            if (k < ops.size() && !ops[k].unitary()) meas += r.trace[k].seconds;
          }
          u = Untraced{s, s - rows, meas, seed, r.measurements};
          host_bytes = static_cast<double>(r.host_bytes);
          net_bytes = static_cast<double>(r.net_bytes);
        }
        perfbench::check_run(w, {out.attempted, ci, seed, last}, r, a.reduced, failures);
      } catch (const std::exception& e) {
        failures.fail(out.attempted, std::string("run threw: ") + e.what());
      }
      ++out.attempted;
      pause(w);
    }
    if (u) {
      Replay rep = perfbench::replay_case(w, w.cases[ci], u->seed);
      if (!rep.outcomes.empty() && rep.outcomes != u->outcomes)
        out.problems.push_back("replay of case " + std::to_string(ci) +
                               " measured differently from Engine::run");
      untraced.push_back(u->s);
      overhead.push_back(u->overhead);
      measure.push_back(u->measure);
      residual.push_back(u->s - u->overhead - u->measure - module_layers(rep, split));
      if (it < min_iterations) counted.push_back(rep);
      reps.push_back(std::move(rep));
      rep_cases.push_back(ci);
      pause(w);
    }
    if (last) break;
  }

  auto med = [&](double Replay::*f) {
    std::vector<double> v;
    for (const Replay& r : reps) v.push_back(r.*f);
    return median(v);
  };
  auto total = [&](double Replay::*f) {
    double sum = 0;
    for (const Replay& r : counted) sum += r.*f;
    return sum;
  };
  auto split_mean = [&](double SpanSplit::*f) {
    double sum = 0;
    for (const SpanSplit& s : splits) sum += s.*f;
    return splits.empty() ? 0.0 : sum / static_cast<double>(splits.size());
  };
  // Bandwidth at minimum traffic: every pass reads and writes the state once.
  auto gbps = [&](double passes, std::size_t bytes, double seconds) {
    return seconds > 0 ? passes * 2.0 * static_cast<double>(bytes) / seconds / 1e9 : 0.0;
  };
  const std::size_t bytes = state_bytes(w.qubits, w.opts.precision);
  const double peak = perfbench::level_for(host, bytes).peak_gbps;

  std::vector<double> emu_rate, sched_rate;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const std::size_t b = state_bytes(w.cases[rep_cases[i]].program.qubits(), Precision::kF64);
    if (reps[i].emu_ops > 0)
      emu_rate.push_back(gbps(reps[i].emu_ops, b, reps[i].emu_function_s + reps[i].emu_qft_s));
    if (!dist && reps[i].passes > 0)
      sched_rate.push_back(gbps(reps[i].passes, b, reps[i].sched_exec_s));
  }
  const double sweep_s = split_mean(&SpanSplit::sweep_s);
  const double remap_s = split_mean(&SpanSplit::remap_s);
  const double global_s = split_mean(&SpanSplit::global_s);
  const double exec_s = dist ? sweep_s + remap_s + global_s : med(&Replay::sched_exec_s);
  if (dist) sched_rate.push_back(gbps(total(&Replay::passes), bytes, exec_s));
  const double fuse_plan_s = dist ? split_mean(&SpanSplit::fuse_plan_s) : med(&Replay::fuse_plan_s);
  const double sched_plan_s =
      dist ? split_mean(&SpanSplit::sched_plan_s) : med(&Replay::sched_plan_s);

  out.samples = untraced;
  const double run_s = median(untraced);
  const double residual_s = median(residual);
  // The layers must account for run_s within kResidualShare either way:
  // a layer counted twice drives the residual negative, time no layer
  // sees drives it positive.
  out.residual_share = run_s > 0 ? residual_s / run_s : 0.0;
  if (!(std::abs(out.residual_share) <= kResidualShare))
    out.problems.push_back("layers account for run_s only within " +
                           std::to_string(out.residual_share * 100) + "%: residual " +
                           std::to_string(residual_s) + " s of " + std::to_string(run_s) + " s");
  const perfbench::PassTimes passes = perfbench::time_passes(w.qubits, w.opts.precision);
  const double gbps_2x2 = gbps(1, bytes, passes.dense_s);
  const double emu_gbps = median(emu_rate);
  const double sched_gbps = median(sched_rate);

  out.metrics = {
      {"engine.lower_s", med(&Replay::lower_s), "s"},
      {"engine.overhead_s", median(overhead), "s"},
      {"engine.measure_s", median(measure), "s"},
      {"emu.apply_function_s", med(&Replay::emu_function_s), "s"},
      {"emu.qft_s", med(&Replay::emu_qft_s), "s"},
      {"emu.gbps", emu_gbps, "GB/s"},
      {"emu.peak_frac", emu_gbps / peak, "ratio"},
      {"sim.measure_dist_s", med(&Replay::measure_dist_s), "s"},
      {"sim.cdf_s", med(&Replay::cdf_s), "s"},
      {"sim.pass_2x2_s", passes.dense_s, "s"},
      {"sim.pass_diag_s", passes.diag_s, "s"},
      {"sim.gbps_2x2", gbps_2x2, "GB/s"},
      {"sim.peak_frac_2x2", gbps_2x2 / peak, "ratio"},
      {"fuse.plan_s", fuse_plan_s, "s"},
      {"fuse.ops_in", total(&Replay::fuse_ops_in), "count"},
      {"fuse.ops_out", total(&Replay::fuse_ops_out), "count"},
      {"sched.plan_s", sched_plan_s, "s"},
      {"sched.exec_s", exec_s, "s"},
      {"sched.sweeps", total(&Replay::sweeps), "count"},
      {"sched.remaps", total(&Replay::remaps), "count"},
      {"sched.globals", total(&Replay::globals), "count"},
      {"sched.passes", total(&Replay::passes), "count"},
      {"sched.gbps", sched_gbps, "GB/s"},
      {"sched.peak_frac", sched_gbps / peak, "ratio"},
      {"sched.sweep_s", sweep_s, "s"},
      {"sched.remap_s", remap_s, "s"},
      {"sched.global_s", global_s, "s"},
      {"dist.plan_s", med(&Replay::dist_plan_s), "s"},
      {"dist.exchanges", total(&Replay::exchanges), "count"},
      {"dist.exchange_s", split_mean(&SpanSplit::exchange_s), "s"},
      {"dist.net_bytes", net_bytes, "bytes"},
      {"dist.host_bytes", host_bytes, "bytes"},
      {"cluster.barrier_s", split_mean(&SpanSplit::barrier_s), "s"},
      {"cluster.park_s", split_mean(&SpanSplit::park_s), "s"},
      {"cluster.imbalance", split_mean(&SpanSplit::imbalance), "ratio"},
      {"obs.trace_overhead", run_s > 0 ? (median(traced) - run_s) / run_s : 0.0, "ratio"},
      {"residual_s", residual_s, "s"},
  };
  return out;
}

/// Builds the workload's inputs and times the set-up: the median of
/// repeated set-ups (at least 9, over at least 20 ms) on each CPU this
/// process may run on, returned per CPU. On a shared host some CPUs run
/// next to another tenant's busy thread and set up ~1.6x slower, and
/// which ones changes from minute to minute; setup_s takes the fastest
/// CPU's median, so that lottery stays out of the figure.
Workload timed_setup(const Args& a, std::vector<double>& per_cpu) {
  Workload w = perfbench::make_workload(a.workload, a.seed, a.reduced);
  auto median_setup = [&] {
    std::vector<double> t;
    for (WallTimer total; t.size() < 9 || total.seconds() < 0.02;) {
      WallTimer one;
      const Workload made = perfbench::make_workload(a.workload, a.seed, a.reduced);
      t.push_back(one.seconds());
    }
    return median(t);
  };
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) == 0) per_cpu.push_back(median_setup());
    }
    // Restored before any OpenMP team exists, so no thread inherits a pin.
    sched_setaffinity(0, sizeof allowed, &allowed);
  }
  if (per_cpu.empty()) per_cpu.push_back(median_setup());
  return w;
}

/// Runs the reduced variant of the workload once, untimed, so thread
/// pools, lazy dispatch and code are warm before the first timed run.
void warm_up(const Args& a) {
  const Workload small = perfbench::make_workload(a.workload, a.seed, /*reduced=*/true);
  for (std::size_t ci = 0; ci < std::min<std::size_t>(small.cases.size(), 4); ++ci)
    (void)run_case(small, ci, perfbench::run_seed(small.cases[ci], 0), false);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c == '\n' ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--reduced]\n",
                 e.what());
    return 2;
  }
  try {
    std::vector<double> setup_per_cpu;
    const Workload w = timed_setup(a, setup_per_cpu);
    perfbench::HostInfo host = perfbench::fingerprint();
    if (a.trace == 1) perfbench::calibrate(host);
    warm_up(a);

    perfbench::Failures failures(w.name);
    Outcome out = a.trace == 1 ? traced_pass(w, a, failures, host)
                               : end_to_end(w, a, failures,
                                            *std::min_element(setup_per_cpu.begin(),
                                                              setup_per_cpu.end()));
    if (w.finish) w.finish(w, failures);

    std::vector<std::string> problems = failures.reasons();
    problems.insert(problems.end(), out.problems.begin(), out.problems.end());
    const std::size_t bytes = state_bytes(w.qubits, w.opts.precision);
    std::string ctx = "{\"workload\": " + json_string(w.name) +
                      ", \"seed\": " + std::to_string(a.seed) +
                      ", \"trace\": " + std::to_string(a.trace) +
                      ", \"reduced\": " + (a.reduced ? "true" : "false") +
                      ", \"backend\": " + json_string(w.opts.backend) +
                      ", \"precision\": " + json_string(precision_name(w.opts.precision)) +
                      ", \"ranks\": " +
                      std::to_string(w.opts.backend == "dist" ? w.opts.dist_ranks : 1) +
                      ", \"qubits\": " + std::to_string(w.qubits) +
                      ", \"state_bytes\": " + std::to_string(bytes);
    if (host.l3_bytes > 0)
      ctx += ", \"state_per_reported_llc\": " +
             std::to_string(static_cast<double>(bytes) / static_cast<double>(host.l3_bytes));
    if (!host.levels.empty())
      ctx += ", \"residency\": " + json_string(perfbench::level_for(host, bytes).name);
    if (a.trace == 1) ctx += ", \"residual_share\": " + std::to_string(out.residual_share);
    ctx += ", \"setup_per_cpu_s\": [";
    for (std::size_t i = 0; i < setup_per_cpu.size(); ++i)
      ctx += (i ? ", " : "") + std::to_string(setup_per_cpu[i]);
    ctx += "], \"samples\": " + std::to_string(out.samples.size());
    if (out.samples.size() <= 64) {
      ctx += ", \"run_samples_s\": [";
      for (std::size_t i = 0; i < out.samples.size(); ++i)
        ctx += (i ? ", " : "") + std::to_string(out.samples[i]);
      ctx += "]";
    }
    ctx += ", \"host\": " + perfbench::host_json(host) + ", \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i)
      ctx += (i ? ", " : "") + json_string(problems[i]);
    std::printf("%s]}\n", ctx.c_str());
    for (const std::string& p : problems) std::fprintf(stderr, "perfbench: %s\n", p.c_str());

    const std::size_t failed = failures.failed();
    const bool correct = failed == 0 && out.problems.empty() && out.attempted > 0;
    std::printf("%s\n", result_json(correct, out.attempted, failed, out.metrics).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
