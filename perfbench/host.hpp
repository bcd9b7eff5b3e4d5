// perfbench host fingerprint and memory-bandwidth calibration.
//
// The per-layer bandwidth columns (*.gbps) are only meaningful next to
// what this host can do: calibrate() runs a STREAM-style in-place
// read+write sweep over working sets doubling from below L2 to at least
// 4x the reported LLC, finds the L2 / LLC / DRAM levels by where the
// bandwidth drops, and records each level's peak. Every state size is
// then labelled with the level it lives in, and *.peak_frac columns
// divide by that level's peak.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

struct BandwidthLevel {
  std::string name;         ///< "L2", "LLC" or "DRAM".
  std::size_t edge_bytes;   ///< Largest working set measured at this level.
  double peak_gbps;         ///< Best sweep bandwidth seen at this level.
};

struct HostInfo {
  std::string cpu_model;
  std::size_t l2_bytes = 0;  ///< Per-core L2, as reported by the CPU.
  std::size_t l3_bytes = 0;  ///< LLC, as reported by the CPU.
  int nproc = 0;             ///< CPUs in this process's affinity mask.
  int omp_threads = 0;
  std::string proc_bind;     ///< OMP_PROC_BIND, or "unset".
  std::string isa;           ///< Dispatched SIMD tier of the kernels.
  /// (working-set bytes, GB/s) of every calibration point.
  std::vector<std::pair<std::size_t, double>> sweep;
  /// Detected levels, ascending; empty until calibrate().
  std::vector<BandwidthLevel> levels;
};

/// CPU model, cache sizes, CPU and thread counts, binding and ISA.
[[nodiscard]] HostInfo fingerprint();

/// Runs the bandwidth sweep (a few seconds; allocates 4x the LLC once).
void calibrate(HostInfo& host);

/// The level a working set of `bytes` lives in (the smallest detected
/// level whose edge holds it; DRAM beyond the last edge).
[[nodiscard]] const BandwidthLevel& level_for(const HostInfo& host, std::size_t bytes);

/// The fingerprint and calibration as one JSON object.
[[nodiscard]] std::string host_json(const HostInfo& host);

}  // namespace perfbench
