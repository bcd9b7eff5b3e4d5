#include "layers.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "common/timer.hpp"
#include "emu/emulator.hpp"
#include "emu/observables.hpp"
#include "fuse/fusion.hpp"
#include "obs/report.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/dist_schedule.hpp"
#include "sim/sampling.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace qc;

namespace {

/// Times `f`, adds the seconds to `acc`, and returns f's result.
template <typename F>
auto timed(double& acc, F&& f) {
  WallTimer t;
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc += t.seconds();
  } else {
    auto out = f();
    acc += t.seconds();
    return out;
  }
}

void count_blocked(Replay& r, const sched::BlockedPlan& plan) {
  r.sweeps += static_cast<double>(plan.sweeps());
  r.remaps += static_cast<double>(plan.remaps());
  r.globals += static_cast<double>(plan.globals());
  r.passes += static_cast<double>(plan.passes());
}

/// The dist backend's path: lower, then plan every gate segment with
/// the qubit permutation chained across segments (a resident run
/// restores logical order only once, at its gather).
void replay_dist(Replay& r, const Workload& w, const engine::Program& lowered) {
  const engine::RunOptions& o = w.opts;
  sched::DistScheduleOptions d;
  d.fusion = o.fusion;
  d.sched = o.sched;
  d.remap = o.dist_remap;
  d.policy = o.dist_policy;
  const qubit_t n = lowered.qubits();
  // Every rank keeps at least one local qubit (the backend's clamp).
  const index_t ranks =
      n <= 1 ? 1 : std::min<index_t>(static_cast<index_t>(o.dist_ranks), dim(n - 1));
  const auto nl = static_cast<qubit_t>(n - bits::log2_floor(ranks));
  std::vector<qubit_t> perm(n);
  for (qubit_t q = 0; q < n; ++q) perm[q] = q;
  for (const engine::Op& op : lowered.ops()) {
    if (op.kind != engine::OpKind::GateSegment || op.gates.empty()) continue;
    const sched::DistPlan plan =
        timed(r.dist_plan_s, [&] { return sched::dist_schedule(op.gates, nl, d, &perm); });
    r.exchanges += static_cast<double>(plan.exchanges());
    r.fuse_ops_in += static_cast<double>(plan.local_gates());
    for (const sched::DistPlanItem& item : plan.items)
      if (item.kind == sched::DistPlanItem::Kind::Local) {
        r.fuse_ops_out += static_cast<double>(item.local.source_ops);
        count_blocked(r, item.local);
      }
  }
}

/// The auto / cached path on one fp64 state: gate segments through
/// fusion + blocking, high-level ops through the Emulator, Measure
/// through one distribution pass and the shared sampler.
void replay_single_node(Replay& r, const Workload& w, std::uint64_t seed,
                        const engine::Program& prog) {
  const engine::RunOptions& o = w.opts;
  if (o.precision != Precision::kF64)
    throw std::logic_error("replay: single-node workloads run at fp64");
  // CachedSimulator::plan narrows fusion to the in-cache block cap.
  fuse::FusionOptions fusion = o.fusion;
  fusion.max_width = std::min(fusion.max_width, o.sched.max_block_width);
  sim::StateVector sv(prog.qubits());
  sv.set_basis(o.initial_basis);
  emu::Emulator em(sv);
  Rng rng(seed);
  for (const engine::Op& op : prog.ops()) {
    switch (op.kind) {
      case engine::OpKind::GateSegment: {
        if (op.gates.empty()) break;
        const fuse::FusedCircuit fc =
            timed(r.fuse_plan_s, [&] { return fuse::fuse_circuit(op.gates, fusion); });
        const sched::BlockedPlan plan =
            timed(r.sched_plan_s, [&] { return sched::schedule(fc, o.sched); });
        timed(r.sched_exec_s, [&] { sched::execute_blocked<double>(sv.amplitudes(), plan); });
        r.fuse_ops_in += static_cast<double>(op.gates.size());
        r.fuse_ops_out += static_cast<double>(fc.items.size());
        count_blocked(r, plan);
        break;
      }
      case engine::OpKind::Measure: {
        const double u = rng.uniform();
        const std::vector<double> dist = timed(
            r.measure_dist_s, [&] { return sv.register_distribution(op.a.offset, op.a.width); });
        const sim::SampleCdf cdf =
            timed(r.cdf_s, [&] { return sim::SampleCdf::from_weights(dist); });
        const index_t outcome = cdf.sample(u);
        if (o.collapse_measurements)
          for (qubit_t j = 0; j < op.a.width; ++j)
            sv.collapse(op.a.offset + j, bits::test(outcome, j) ? 1 : 0);
        r.outcomes.push_back(outcome);
        break;
      }
      case engine::OpKind::ExpectationZ:
        (void)emu::expectation_z_string(sv, op.mask);
        break;
      case engine::OpKind::Qft:
        timed(r.emu_qft_s, [&] { em.qft(op.a); });
        ++r.emu_ops;
        break;
      case engine::OpKind::InverseQft:
        timed(r.emu_qft_s, [&] { em.inverse_qft(op.a); });
        ++r.emu_ops;
        break;
      default:
        timed(r.emu_function_s, [&] {
          switch (op.kind) {
            case engine::OpKind::Add: em.add(op.a, op.b); break;
            case engine::OpKind::Multiply: em.multiply(op.a, op.b, op.c); break;
            case engine::OpKind::MultiplyMod: em.multiply_mod(op.a, op.k, op.modulus); break;
            case engine::OpKind::Divide: em.divide(op.a, op.b, op.c); break;
            case engine::OpKind::ApplyFunction: em.apply_function(op.a, op.b, op.func); break;
            case engine::OpKind::PhaseFunction: em.apply_phase_function(op.phase_fn); break;
            case engine::OpKind::PhaseOracle: em.apply_phase_oracle(op.predicate); break;
            default: throw std::logic_error("replay: unexpected op " + op.label());
          }
        });
        ++r.emu_ops;
    }
  }
}

template <typename T>
PassTimes time_passes_at(qubit_t n) {
  sim::BasicStateVector<T> sv(n);
  sv.set_basis(0);
  const qubit_t q = n / 2;
  const circuit::Gate dense = circuit::make_gate(circuit::GateKind::Rx, q, 0.3);
  const circuit::Gate diag = circuit::make_gate(circuit::GateKind::Rz, q, 0.7);
  auto median_pass = [&](const circuit::Gate& g) {
    sim::apply_gate_hpc<T>(sv.amplitudes(), n, g);  // untimed: code and data warm
    // At least 5 passes and 50 ms, so the median of a tiny state's
    // microsecond passes rests on many samples.
    std::vector<double> t;
    WallTimer total;
    while (t.size() < 5 || (total.seconds() < 0.05 && t.size() < 100000)) {
      WallTimer one;
      sim::apply_gate_hpc<T>(sv.amplitudes(), n, g);
      t.push_back(one.seconds());
    }
    std::nth_element(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(t.size() / 2), t.end());
    return t[t.size() / 2];
  };
  return {median_pass(dense), median_pass(diag)};
}

double per_rank(const obs::TraceData& data, std::initializer_list<const char*> names, int ranks) {
  double total = 0;
  for (const obs::SpanStats& s : obs::span_stats(data))
    for (const char* name : names)
      if (s.name == name) total += s.total_s;
  return total / std::max(1, ranks);
}

}  // namespace

Replay replay_case(const Workload& w, const Case& c, std::uint64_t seed) {
  Replay r;
  const bool gate_level = engine::make_backend(w.opts.backend, w.opts)->emulates() == false;
  engine::Program lowered;
  const engine::Program* prog = &c.program;
  if (gate_level && c.program.needs_lowering()) {
    lowered = timed(r.lower_s, [&] { return engine::lower(c.program, w.opts.lower); });
    prog = &lowered;
  }
  if (w.opts.backend == "dist") {
    replay_dist(r, w, *prog);
  } else {
    replay_single_node(r, w, seed, *prog);
  }
  return r;
}

PassTimes time_passes(qubit_t n, Precision precision) {
  return precision == Precision::kF32 ? time_passes_at<float>(n) : time_passes_at<double>(n);
}

SpanSplit span_split(const obs::TraceData& data, int ranks) {
  SpanSplit s;
  s.fuse_plan_s = per_rank(data, {"fuse.pass"}, 1);
  s.sched_plan_s = per_rank(data, {"sched.plan"}, 1);
  s.sweep_s = per_rank(data, {"sched.sweep"}, ranks);
  s.remap_s = per_rank(data, {"sched.remap"}, ranks);
  s.global_s = per_rank(data, {"sched.global"}, ranks);
  s.exchange_s = per_rank(data, {"dist.exchange_pass", "dist.exchange"}, ranks);
  const std::vector<obs::LaneStats> lanes = obs::lane_stats(data);
  for (const obs::LaneStats& l : lanes) {
    s.barrier_s += l.barrier_s;
    s.park_s += l.park_s;
  }
  if (!lanes.empty()) {
    s.barrier_s /= static_cast<double>(lanes.size());
    s.park_s /= static_cast<double>(lanes.size());
  }
  s.imbalance = obs::load_imbalance(data);
  return s;
}

}  // namespace perfbench
