// perfbench per-layer attribution.
//
// The traced pass splits a workload's run time into layers (module =
// layer) two ways:
//  * replay_case() re-executes one case the way its backend does, but
//    through the modules' public functions called from here —
//    engine::lower, fuse::fuse_circuit, sched::schedule /
//    execute_blocked / dist_schedule, emu::Emulator,
//    StateVector::register_distribution and sim::SampleCdf — timing
//    each call;
//  * span_split() reads the splits only the library's own spans can
//    see (sweep / remap / global passes, dist exchanges, per-rank
//    barrier and park time) from one RunOptions.trace run.
#pragma once

#include <vector>

#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Module-level timings (seconds) and counts of one replayed case.
struct Replay {
  double lower_s = 0;
  double fuse_plan_s = 0;
  double sched_plan_s = 0;
  double sched_exec_s = 0;  ///< execute_blocked (single-node backends only).
  double dist_plan_s = 0;   ///< dist_schedule, including its fusion and blocking.
  double emu_function_s = 0;  ///< Classical-function ops (apply_function, arithmetic).
  double emu_qft_s = 0;
  double emu_ops = 0;       ///< Emulator ops replayed.
  double measure_dist_s = 0;
  double cdf_s = 0;
  double fuse_ops_in = 0;   ///< Gates entering fusion.
  double fuse_ops_out = 0;  ///< Fused items leaving it.
  double sweeps = 0, remaps = 0, globals = 0, passes = 0;
  double exchanges = 0;
  /// Measurement outcomes, drawn as Engine::run draws them.
  std::vector<qc::index_t> outcomes;
};

/// Replays `c` under `w.opts` with measurement seed `seed`. Single-node
/// backends execute the whole program on a fresh fp64 state; "dist"
/// replays lowering and planning only (its execution is read from the
/// spans).
[[nodiscard]] Replay replay_case(const Workload& w, const Case& c, std::uint64_t seed);

/// Median time of one dispatched dense 2x2 pass and one diagonal pass
/// (sim::apply_gate_hpc) over an n-qubit state at `precision`.
struct PassTimes {
  double dense_s = 0;
  double diag_s = 0;
};
[[nodiscard]] PassTimes time_passes(qc::qubit_t n, qc::Precision precision);

/// Span-derived splits of one traced run. Rank-lane times are means
/// per rank, so they compare with the run's wall time.
struct SpanSplit {
  double fuse_plan_s = 0, sched_plan_s = 0;  ///< Driver-thread planning spans.
  double sweep_s = 0, remap_s = 0, global_s = 0;
  double exchange_s = 0;
  double barrier_s = 0, park_s = 0;
  double imbalance = 0;
};
[[nodiscard]] SpanSplit span_split(const qc::obs::TraceData& data, int ranks);

}  // namespace perfbench
