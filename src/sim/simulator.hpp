// The three gate-level algorithms benchmarked in the paper's §4.5, as
// function templates over a raw amplitude span (T = double or float).
//
//  * "hpc" (apply_gate_hpc / run_hpc) — "our simulator": control-folded
//    enumeration, diagonal and NOT fast paths, native SWAP kernel. This
//    is the baseline the emulator's speedups are measured against (so
//    those speedups are not artifacts of a slow simulator — the point
//    of the paper's Figs. 4-6).
//
//  * "qhipster-like" (apply_gate_generic / run_generic, parallel) —
//    stands in for qHiPSTER: a well-parallelized but unspecialized
//    simulator. Every gate runs through the generic masked 2x2 pair
//    kernel (full read+write of the state vector even for diagonal
//    gates); SWAP is lowered to three CNOTs.
//
//  * "liquid-like" (the same, serial) — stands in for LIQUi|>: correct
//    but unspecialized and single-threaded (see README "Substitutions"
//    for why these stand-ins replace the original simulators).
//
// All three produce identical states to 1e-12 on identical circuits;
// the test suite enforces it. engine::make_backend(name) runs each of
// them (and the "fused" / "cached" pipelines) on a StateVector at
// either precision.
#pragma once

#include <span>
#include <utility>

#include "circuit/circuit.hpp"
#include "sim/kernels.hpp"
#include "sim/state_vector.hpp"

namespace qc::sim {

/// OR of the control bits of a gate.
[[nodiscard]] index_t control_mask(const circuit::Gate& g);

/// The 2x2 target block of a non-SWAP gate as a kernel U2.
[[nodiscard]] kernels::U2 target_block(const circuit::Gate& g);

/// Diagonal entries (d0, d1) of a diagonal gate's target block.
[[nodiscard]] std::pair<complex_t, complex_t> diagonal_entries(const circuit::Gate& g);

/// The "hpc" single-gate dispatch on a raw amplitude array (2^n
/// amplitudes) — also the fallback every fused / blocked executor uses
/// for lone gates. The (double-precision) gate block is narrowed once per
/// gate, not per amplitude.
template <typename T>
void apply_gate_hpc(std::span<basic_complex_t<T>> a, qubit_t n, const circuit::Gate& g);

/// The unspecialized per-gate dispatch (the qhipster-/liquid-like tier)
/// on a raw amplitude array: every gate through the generic masked 2x2
/// kernel, SWAP lowered to three CNOTs. `parallel` selects OpenMP.
template <typename T>
void apply_gate_generic(std::span<basic_complex_t<T>> a, qubit_t n, const circuit::Gate& g,
                        bool parallel);

/// The "hpc" algorithm over a whole circuit: apply_gate_hpc gate by
/// gate. Throws std::invalid_argument unless `a` holds 2^c.qubits()
/// amplitudes.
template <typename T>
void run_hpc(std::span<basic_complex_t<T>> a, const circuit::Circuit& c);

/// The "qhipster-like" (parallel) / "liquid-like" (serial) algorithm
/// over a whole circuit: apply_gate_generic gate by gate. Same size
/// precondition as run_hpc.
template <typename T>
void run_generic(std::span<basic_complex_t<T>> a, const circuit::Circuit& c, bool parallel);

}  // namespace qc::sim
