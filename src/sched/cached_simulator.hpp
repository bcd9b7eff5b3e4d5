// The cache-blocked execution pipeline ("cached" backend).
//
// plan_blocked lowers a circuit through fuse::fuse_circuit (the same
// pass as the "fused" backend), then through sched::schedule;
// execute_blocked runs the blocked plan:
//
//  * Sweep items walk the state vector chunk by chunk (2^L amplitudes,
//    L = plan.chunk_width) and apply every op of the sweep to a chunk
//    while it is cache resident — one `omp parallel` region over chunks
//    per sweep, serial chunk-local kernels inside. This replaces the
//    fused backend's one-full-DRAM-pass-per-block with one pass per
//    sweep (paper §4: the simulation is bandwidth bound, so fewer state
//    traversals is the whole game).
//  * Remap items relocate high qubits into the low block in one
//    transposition pass (kernels::apply_qubit_swaps).
//  * Global items (ops wider than a chunk, or not worth remapping) run
//    through the same full-vector kernels the fused backend uses.
//
// Iterative callers build the plan once and execute it repeatedly.
#pragma once

#include "fuse/fusion.hpp"
#include "sched/schedule.hpp"
#include "sim/simulator.hpp"

namespace qc::sched {

/// The fusion + blocking pipeline of the "cached" backend: fuse_circuit
/// at min(fusion.max_width, sched.max_block_width) — the full-pass
/// saving that justifies wide blocks does not apply inside a
/// chunk-resident sweep (see ScheduleOptions::max_block_width) — then
/// schedule(). The one place that caps the fusion width; the "auto"
/// backend and the distributed planner's rank-local runs share it.
[[nodiscard]] BlockedPlan plan_blocked(const circuit::Circuit& c, const fuse::FusionOptions& fusion,
                                       const ScheduleOptions& sched);

/// Executes a blocked plan on a raw amplitude array of 2^plan.n
/// amplitudes — the "cached" backend is execute_blocked(a,
/// plan_blocked(c, ...)), and each rank of the distributed executor runs
/// its chunk's plan on dist_sv's local window. The plan itself
/// stays double precision; executing at T = float narrows each op's
/// payload once, outside the chunk loop. Instantiated for float/double.
template <typename T>
void execute_blocked(std::span<basic_complex_t<T>> a, const BlockedPlan& plan);

}  // namespace qc::sched
