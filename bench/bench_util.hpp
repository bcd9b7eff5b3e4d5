// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints the same row layout the paper reports plus a
// `paper` column with the approximate value digitized from the figure,
// so the reproduction is regenerated by running the binaries (README
// "Substitutions" explains what stands in for the paper's machines and
// baselines). Sizes default to what fits a ~20 GB laptop-class box in
// seconds-to-minutes; pass --full for larger sweeps (see each binary's
// --help).
#pragma once

#include <cstdio>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace qc::bench {

/// Prints the standard bench header (binary name, what it reproduces).
inline void print_header(const std::string& name, const std::string& reproduces) {
  std::printf("==============================================================\n");
  std::printf("%s — reproduces %s\n", name.c_str(), reproduces.c_str());
  std::printf("==============================================================\n");
}

/// "n/a" for missing paper anchors.
inline std::string anchor(double value) { return value > 0 ? sci(value, 2) : "n/a"; }

/// Times one run of `f` after an optional warm-up run.
template <typename F>
double timed(F&& f, bool warmup = false) {
  if (warmup) f();
  WallTimer t;
  f();
  return t.seconds();
}

}  // namespace qc::bench
