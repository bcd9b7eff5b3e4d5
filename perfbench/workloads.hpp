// perfbench workloads: seeded input generation and output checks.
//
// Every workload is a closed loop with one client: the benchmark hands
// the engine one Program, waits for its Result, checks it outside the
// timed region, and only then sends the next. The inputs are generated
// from the workload seed before timing starts; the engine only ever
// sees the generated Programs.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.hpp"

namespace perfbench {

/// One Engine::run the benchmark times: a Program plus the base of the
/// measurement seeds it runs under (see run_seed()).
struct Case {
  qc::engine::Program program;
  std::uint64_t run_seed = 1;
};

/// Failed output checks, counted per timed run: a run fails when any
/// of its checks fails.
class Failures {
 public:
  explicit Failures(std::string workload) : workload_(std::move(workload)) {}
  /// Marks run `attempt` failed (also used for runs that threw).
  void fail(std::size_t attempt, const std::string& why);
  [[nodiscard]] std::size_t failed() const noexcept { return attempts_.size(); }
  /// The first few failure reasons, for the log.
  [[nodiscard]] const std::vector<std::string>& reasons() const noexcept { return reasons_; }

 private:
  std::string workload_;
  std::set<std::size_t> attempts_;
  std::vector<std::string> reasons_;
};

/// One timed run, as its output check sees it.
struct Run {
  std::size_t attempt = 0;  ///< Index of the run in this process.
  std::size_t case_index = 0;
  std::uint64_t seed = 0;   ///< The RunOptions.seed it ran under.
  bool last = false;        ///< The final run of the measured window.
};

struct Workload;
/// A workload's output check, called after every timed run outside the
/// timed region; it may move out of the result.
using CheckFn = std::function<void(const Workload&, const Run&, qc::engine::Result&, Failures&)>;
/// Runs once after the measured window (and after peak memory was
/// read), for checks against a reference computed once per process.
using FinishFn = std::function<void(const Workload&, Failures&)>;

struct Workload {
  std::string name;
  /// Backend, precision and rank count; `seed` is set per run.
  qc::engine::RunOptions opts;
  /// One case for the single-program workloads; the stream pool for
  /// small-batch (cycled in order).
  std::vector<Case> cases;
  /// small-batch: a fixed pause separates consecutive programs. The
  /// driver thread computes through it, as a hybrid loop's classical
  /// step would, rather than sleeping.
  double pause_s = 0;
  /// Qubit count of the largest case (sizes the per-layer passes).
  qc::qubit_t qubits = 0;
  /// Tolerance of the self-test's comparison with the hpc fp64 backend.
  double ref_tol = 1e-10;
  CheckFn check;
  FinishFn finish;  ///< May be empty.
};

/// The four workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload's inputs and checks from `seed`. `reduced` selects
/// the self-test size: the same generators at a few qubits, cheap
/// enough to run every backend as a reference. Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed, bool reduced);

/// The measurement seed of timed run `attempt` of case `c`: each run
/// draws its own outcomes, so a check that passes for one outcome by
/// chance does not pass for every run of the process.
[[nodiscard]] std::uint64_t run_seed(const Case& c, std::size_t attempt);

/// Checks one timed run: that it ran on the workload's backend, with
/// `reduced` its agreement with the hpc fp64 backend (the self-test),
/// then the workload's own check.
void check_run(const Workload& w, const Run& run, qc::engine::Result& r, bool reduced,
               Failures& failures);

}  // namespace perfbench
