#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "circuit/builders.hpp"
#include "common/rng.hpp"

namespace perfbench {

using namespace qc;

namespace {

/// Distinct generator streams per workload, so two workloads on one seed
/// share no draws.
Rng stream(std::uint64_t seed, std::uint64_t workload_tag) {
  return Rng(seed * 0x9E3779B97F4A7C15ull + workload_tag);
}

engine::RunOptions options(const std::string& backend, Precision precision, int ranks = 1) {
  engine::RunOptions o;
  o.backend = backend;
  o.precision = precision;
  o.dist_ranks = ranks;
  return o;
}

double norm_error(const engine::Result& r) { return std::abs(r.state.norm_sq() - 1.0); }

void check_norm(const Run& run, const engine::Result& r, double tol, Failures& f) {
  const double err = norm_error(r);
  if (!(err <= tol)) f.fail(run.attempt, "|norm^2 - 1| = " + std::to_string(err));
}

/// Re-runs the run's case on the "hpc" fp64 backend under the same
/// seed and compares state, measurement stream and expectations.
void compare_with_hpc(const Workload& w, const Run& run, const engine::Result& r, double tol,
                      Failures& f) {
  const Case& c = w.cases[run.case_index];
  engine::RunOptions ref = w.opts;
  ref.backend = "hpc";
  ref.precision = Precision::kF64;
  ref.seed = run.seed;
  const engine::Result h = engine::Engine().run(c.program, ref);
  const double diff = r.state.max_abs_diff(h.state);
  const std::string what = "case " + std::to_string(run.case_index) + " vs hpc fp64: ";
  if (!(diff <= tol)) f.fail(run.attempt, what + "state differs by " + std::to_string(diff));
  if (r.measurements != h.measurements) f.fail(run.attempt, what + "measurement stream differs");
  bool expectations_agree = r.expectations.size() == h.expectations.size();
  for (std::size_t i = 0; expectations_agree && i < r.expectations.size(); ++i)
    expectations_agree = std::abs(r.expectations[i] - h.expectations[i]) <= tol;
  if (!expectations_agree) f.fail(run.attempt, what + "expectations differ");
}

/// rcs-26: gate-level simulation of a state in DRAM (1 GiB at fp64) —
/// the regime of the paper's Fig. 5 and the home of fuse, sched and the
/// sim kernels. The circuit comes from one fixed stream, shared by
/// every seed: its structure sets the fused and blocked plan (how many
/// sweeps, remaps and global passes), and so the run's cost. The
/// workload seed draws the initial basis state. Check: norm within 1e-9.
Workload rcs(std::uint64_t seed, bool reduced) {
  const qubit_t n = reduced ? 12 : 26;
  Rng circuit_rng = stream(0, 0);
  Rng rng = stream(seed, 1);
  Workload w;
  w.name = "rcs-26";
  w.opts = options("cached", Precision::kF64);
  w.opts.initial_basis = rng.uniform_u64(dim(n));
  engine::Program p(n);
  p.gates(circuit::random_dense_circuit(n, 400, circuit_rng));
  w.cases.push_back({std::move(p), rng.next_u64()});
  w.qubits = n;
  w.check = [](const Workload&, const Run& run, engine::Result& r, Failures& f) {
    check_norm(run, r, 1e-9, f);
  };
  return w;
}

index_t multiplicative_order(index_t a, index_t modulus) {
  index_t x = a % modulus;
  for (index_t r = 1; r <= modulus; ++r, x = x * a % modulus)
    if (x == 1) return r;
  return 0;
}

/// shor-emu-25: order finding on the paper's §3 emulation path. The
/// base a and modulus N (all `width` bits used) are drawn from the
/// seed among the pairs of one order, 2^(width/2) (16 at full size):
///  * a power-of-two order divides 2^exponent_bits, so every outcome
///    with support is an exact multiple of 2^exponent_bits / order and
///    the check needs no probability threshold on any seed;
///  * apply_function's scatter writes one stream per distinct value of
///    a^x mod N, so a fixed order keeps the run's cost the same from
///    seed to seed.
/// Check, on every run (each draws its own outcome): the outcome is a
/// multiple of 2^exponent_bits / order, and the function register holds
/// exactly the powers a^k mod N, each with probability 1 / order —
/// which an apply_function that wrote nothing (register left at 0) or
/// wrong values fails even when the drawn outcome is 0.
Workload shor(std::uint64_t seed, bool reduced) {
  const qubit_t width = reduced ? 4 : 8;
  const qubit_t e = 2 * width + 1;
  const index_t order = dim(width / 2);
  struct Pair {
    index_t a, modulus;
  };
  std::vector<Pair> pairs;
  for (index_t m = (index_t{1} << (width - 1)) + 1; m < (index_t{1} << width); ++m)
    for (index_t a = 2; a < m; ++a)
      if (std::gcd(a, m) == 1 && multiplicative_order(a, m) == order) pairs.push_back({a, m});
  Rng rng = stream(seed, 2);
  const Pair pick = pairs[rng.uniform_u64(pairs.size())];

  // The modular exponentiation a^x mod N, tabulated over the exponent
  // register once here: the emulator then evaluates f by lookup.
  auto table = std::make_shared<std::vector<index_t>>(dim(e));
  index_t v = 1;
  for (index_t x = 0; x < dim(e); ++x, v = v * pick.a % pick.modulus) (*table)[x] = v;
  // The function register's distribution: 1 / order on each power.
  std::vector<double> expected(dim(width), 0.0);
  for (index_t k = 0; k < order; ++k) expected[(*table)[k]] = 1.0 / static_cast<double>(order);

  engine::Program p(e + width);
  for (qubit_t q = 0; q < e; ++q) p.h(q);
  p.apply_function({0, e}, {e, width}, [table](index_t x) { return (*table)[x]; });
  p.inverse_qft({0, e});
  p.measure({0, e});

  Workload w;
  w.name = "shor-emu-25";
  w.opts = options("auto", Precision::kF64);
  w.cases.push_back({std::move(p), rng.next_u64()});
  w.qubits = e + width;
  w.check = [order, e, width, expected = std::move(expected)](
                const Workload&, const Run& run, engine::Result& r, Failures& f) {
    if (r.measurements.size() != 1) {
      f.fail(run.attempt, "expected one measurement");
      return;
    }
    const index_t y = r.measurements[0];
    if ((y * order) % dim(e) != 0)
      f.fail(run.attempt, "outcome " + std::to_string(y) + " inconsistent with order " +
                              std::to_string(order));
    const std::vector<double> got = r.state.register_distribution(e, width);
    for (index_t v = 0; v < got.size(); ++v)
      if (!(std::abs(got[v] - expected[v]) <= 1e-9)) {
        f.fail(run.attempt, "function register holds " + std::to_string(v) +
                                " with probability " + std::to_string(got[v]) + ", expected " +
                                std::to_string(expected[v]));
        break;
      }
    check_norm(run, r, 1e-9, f);
  };
  return w;
}

/// qft-dist-24: the bench_engine program (H+Rz prep, qft, inverse_qft,
/// qft), lowered to gates and run on the distributed backend at fp32.
/// Check: every run agrees with the auto fp64 result at the fp32 gate
/// (1e-6 max amplitude error). The reference is computed once, after
/// the window and after peak memory was read. So that no run executes
/// next to a second full state, earlier runs keep a strided sample of
/// their amplitudes and only the window's last run keeps its full state.
Workload qft_dist(std::uint64_t seed, bool reduced) {
  const qubit_t n = reduced ? 10 : 24;
  Rng rng = stream(seed, 3);
  engine::Program p(n);
  for (qubit_t q = 0; q < n; ++q) {
    p.h(q);
    p.rz(q, rng.uniform(0, 2 * 3.141592653589793));
  }
  p.qft().inverse_qft().qft();
  Workload w;
  w.name = "qft-dist-24";
  w.opts = options("dist", Precision::kF32, 4);
  w.cases.push_back({std::move(p), rng.next_u64()});
  w.qubits = n;
  w.ref_tol = 1e-6;

  struct Kept {
    sim::StateVector last{0};
    std::size_t last_attempt = 0;
    std::vector<std::pair<std::size_t, std::vector<complex_t>>> samples;
  };
  auto kept = std::make_shared<Kept>();
  const index_t stride = std::max<index_t>(1, dim(n) >> 16);
  w.check = [kept, stride](const Workload&, const Run& run, engine::Result& r, Failures& f) {
    check_norm(run, r, 1e-5, f);
    std::vector<complex_t> s;
    for (index_t i = 0; i < r.state.size(); i += stride) s.push_back(r.state[i]);
    kept->samples.emplace_back(run.attempt, std::move(s));
    if (run.last) {
      kept->last = std::move(r.state);
      kept->last_attempt = run.attempt;
    }
  };
  w.finish = [kept, stride](const Workload& w, Failures& f) {
    if (kept->samples.empty()) return;
    constexpr double kTol = 1e-6;
    engine::RunOptions ref_opts = w.opts;
    ref_opts.backend = "auto";
    ref_opts.precision = Precision::kF64;
    const engine::Result ref = engine::Engine().run(w.cases[0].program, ref_opts);
    if (kept->last.qubits() != 0) {
      const double diff = kept->last.max_abs_diff(ref.state);
      if (!(diff <= kTol))
        f.fail(kept->last_attempt, "fp32 dist differs from auto fp64 by " + std::to_string(diff));
    }
    const auto amps = ref.state.amplitudes();
    for (const auto& [attempt, s] : kept->samples)
      for (std::size_t k = 0; k < s.size(); ++k)
        if (!(std::abs(s[k] - amps[k * stride]) <= kTol)) {
          f.fail(attempt, "sampled amplitudes differ from auto fp64");
          break;
        }
    kept->samples.clear();
    kept->last = sim::StateVector(0);
  };
  return w;
}

/// small-batch: a seeded stream of small mixed programs (6-12 qubits)
/// separated by a fixed pause standing in for the classical step of a
/// hybrid loop — latency-bound, weighting per-op engine overhead,
/// OpenMP region entry on tiny states, and measurement. The pause is
/// longer than the OpenMP team's spin-wait (a few ms with libgomp's
/// default spin count), so every program starts with the team parked
/// and pays its wake-up, as after any classical step of that length.
/// README.md gives the measured region-entry and run times across
/// pauses.
/// Check: every 16th program is re-run on "hpc" right after its timed
/// run (outside the timed region) and must agree within 1e-12 with
/// identical measurement streams.
Workload small_batch(std::uint64_t seed, bool reduced) {
  Rng rng = stream(seed, 4);
  Workload w;
  w.name = "small-batch";
  w.opts = options("auto", Precision::kF64);
  w.pause_s = 10e-3;
  w.ref_tol = 1e-12;
  // A large pool keeps the size mix, and so the latency percentiles,
  // the same from seed to seed: each of the 7 sizes holds ~1/7 of it.
  const std::size_t pool = reduced ? 8 : 1024;
  for (std::size_t i = 0; i < pool; ++i) {
    const auto n = static_cast<qubit_t>(6 + rng.uniform_u64(7));
    engine::Program p(n);
    p.gates(circuit::random_circuit(n, 3 * n, rng));
    p.multiply({0, 2}, {2, 2}, {4, 2});
    const auto qw = static_cast<qubit_t>(2 + rng.uniform_u64(n - 2));
    p.qft({static_cast<qubit_t>(rng.uniform_u64(n - qw + 1)), qw});
    p.expectation_z(1 + rng.uniform_u64(dim(n) - 1));
    const auto mw = static_cast<qubit_t>(1 + rng.uniform_u64(4));
    p.measure({static_cast<qubit_t>(rng.uniform_u64(n - mw + 1)), mw});
    w.qubits = std::max(w.qubits, n);
    w.cases.push_back({std::move(p), rng.next_u64()});
  }
  w.check = [](const Workload& w, const Run& run, engine::Result& r, Failures& f) {
    if (r.measurements.size() != 1 || r.expectations.size() != 1)
      f.fail(run.attempt, "missing measurement or expectation");
    if (run.attempt % 16 == 0) compare_with_hpc(w, run, r, 1e-12, f);
  };
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"rcs-26", "shor-emu-25", "qft-dist-24",
                                              "small-batch"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool reduced) {
  if (name == "rcs-26") return rcs(seed, reduced);
  if (name == "shor-emu-25") return shor(seed, reduced);
  if (name == "qft-dist-24") return qft_dist(seed, reduced);
  if (name == "small-batch") return small_batch(seed, reduced);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t run_seed(const Case& c, std::size_t attempt) {
  return c.run_seed + 0x9E3779B97F4A7C15ull * attempt;
}

void check_run(const Workload& w, const Run& run, engine::Result& r, bool reduced,
               Failures& failures) {
  if (r.degraded || r.backend != w.opts.backend)
    failures.fail(run.attempt, "ran on '" + r.backend + "' instead of '" + w.opts.backend + "'");
  if (reduced) compare_with_hpc(w, run, r, w.ref_tol, failures);
  w.check(w, run, r, failures);
}

void Failures::fail(std::size_t attempt, const std::string& why) {
  attempts_.insert(attempt);
  if (reasons_.size() < 8)
    reasons_.push_back(workload_ + ": run " + std::to_string(attempt) + ": " + why);
}

}  // namespace perfbench
