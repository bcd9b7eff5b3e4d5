#include "sched/dist_schedule.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "models/perf_model.hpp"
#include "obs/trace.hpp"
#include "sched/cached_simulator.hpp"
#include "sched/verify_plan.hpp"

namespace qc::sched {

namespace {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

Gate relabel(const Gate& g, const std::vector<qubit_t>& perm) {
  Gate out = g;
  for (qubit_t& t : out.targets) t = perm[t];
  for (qubit_t& c : out.controls) c = perm[c];
  return out;
}

index_t gate_support(const Gate& g) {
  index_t m = 0;
  for (qubit_t t : g.targets) m = bits::set(m, t);
  for (qubit_t c : g.controls) m = bits::set(m, c);
  return m;
}

/// Chunk exchanges this gate pays when executed per-gate under `policy`
/// with the given logical->physical permutation — the Eq. 6 unit the
/// exchange pass is traded against. SWAP lowers to three CNOTs inside
/// DistStateVector::apply_gate, each charged by its own (X) target.
std::size_t exchanges_for(const Gate& g, const std::vector<qubit_t>& perm, qubit_t nl,
                          sim::CommPolicy policy) {
  if (g.kind == GateKind::Swap) {
    const bool ga = perm[g.targets[0]] >= nl;
    const bool gb = perm[g.targets[1]] >= nl;
    return 2 * static_cast<std::size_t>(gb) + static_cast<std::size_t>(ga);
  }
  if (perm[g.targets[0]] < nl) return 0;
  if (policy == sim::CommPolicy::Specialized && g.diagonal()) return 0;
  return 1;
}

}  // namespace

std::size_t DistPlan::locals() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items) total += it.kind == DistPlanItem::Kind::Local;
  return total;
}

std::size_t DistPlan::exchanges() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items) total += it.kind == DistPlanItem::Kind::Exchange;
  return total;
}

std::size_t DistPlan::globals() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items) total += it.kind == DistPlanItem::Kind::Gate;
  return total;
}

std::size_t DistPlan::local_gates() const {
  std::size_t total = 0;
  for (const DistPlanItem& it : items)
    if (it.kind == DistPlanItem::Kind::Local) total += it.local.source_ops;
  return total;
}

std::string DistPlan::to_string() const {
  std::ostringstream out;
  out << "dist plan on " << n << " qubits (" << local_qubits << " local): " << source_gates
      << " gates -> " << locals() << " local segments, " << exchanges() << " exchanges, "
      << globals() << " per-gate globals\n";
  for (const DistPlanItem& it : items) {
    switch (it.kind) {
      case DistPlanItem::Kind::Local:
        out << "  local x" << it.local.source_ops << " fused ops (" << it.local.passes()
            << " chunk passes)\n";
        break;
      case DistPlanItem::Kind::Exchange:
        out << "  exchange";
        for (const auto& s : it.swaps) out << " " << s[0] << "<->" << s[1];
        out << "\n";
        break;
      case DistPlanItem::Kind::Gate:
        out << "  gate " << it.gate.to_string() << "\n";
        break;
    }
  }
  return out.str();
}

std::vector<std::vector<std::array<qubit_t, 2>>> restore_rounds(std::vector<qubit_t> perm) {
  const auto n = static_cast<qubit_t>(perm.size());
  std::vector<qubit_t> inv(n);
  for (qubit_t q = 0; q < n; ++q) {
    if (perm[q] >= n) throw std::invalid_argument("restore_rounds: entry out of range");
    inv[perm[q]] = q;
  }
  for (qubit_t q = 0; q < n; ++q)
    if (perm[inv[q]] != q)
      throw std::invalid_argument("restore_rounds: not a permutation");
  std::vector<std::vector<std::array<qubit_t, 2>>> rounds;
  while (true) {
    std::vector<std::array<qubit_t, 2>> swaps;
    index_t used = 0;
    for (qubit_t p = 0; p < n; ++p) {
      const qubit_t home = inv[p];
      if (home == p || bits::test(used, p) || bits::test(used, home)) continue;
      swaps.push_back({p, home});
      used = bits::set(bits::set(used, p), home);
    }
    if (swaps.empty()) break;
    for (const auto& s : swaps) {
      const qubit_t qa = inv[s[0]], qb = inv[s[1]];
      std::swap(perm[qa], perm[qb]);
      std::swap(inv[s[0]], inv[s[1]]);
    }
    rounds.push_back(std::move(swaps));
  }
  return rounds;
}

DistPlan dist_schedule(const Circuit& c, qubit_t local_qubits,
                       const DistScheduleOptions& opts, std::vector<qubit_t>* perm_io) {
  const qubit_t n = c.qubits();
  const qubit_t nl = local_qubits;
  if (nl == 0 || nl > n)
    throw std::invalid_argument("dist_schedule: local qubits must be in [1, n]");
  obs::Span plan_span("sched.dist_plan");
  DistPlan plan;
  plan.n = n;
  plan.local_qubits = nl;
  plan.source_gates = c.size();
  const auto& gates = c.gates();

  std::vector<index_t> masks(gates.size());
  for (std::size_t i = 0; i < gates.size(); ++i) masks[i] = gate_support(gates[i]);

  // perm: logical qubit -> physical position; inv: its inverse. A
  // caller-carried permutation seeds the plan mid-stream.
  std::vector<qubit_t> perm(n), inv(n);
  if (perm_io != nullptr) {
    if (perm_io->size() != static_cast<std::size_t>(n))
      throw std::invalid_argument("dist_schedule: perm_io size must equal qubit count");
    perm = *perm_io;
    for (qubit_t q = 0; q < n; ++q) {
      if (perm[q] >= n) throw std::invalid_argument("dist_schedule: bad perm_io entry");
      inv[perm[q]] = q;
    }
    for (qubit_t q = 0; q < n; ++q)
      if (perm[inv[q]] != q)
        throw std::invalid_argument("dist_schedule: perm_io is not a permutation");
  } else {
    std::iota(perm.begin(), perm.end(), qubit_t{0});
    std::iota(inv.begin(), inv.end(), qubit_t{0});
  }
#if QC_ENABLE_CHECKS
  const std::vector<qubit_t> initial_perm = perm;
#endif
  const auto commit_swaps = [&](const std::vector<std::array<qubit_t, 2>>& swaps) {
    for (const auto& s : swaps) {
      const qubit_t qa = inv[s[0]], qb = inv[s[1]];
      std::swap(perm[qa], perm[qb]);
      std::swap(inv[s[0]], inv[s[1]]);
    }
  };
  const auto all_local = [&](index_t mask, const std::vector<qubit_t>& p) {
    for (qubit_t q = 0; mask >> q; ++q)
      if (bits::test(mask, q) && p[q] >= nl) return false;
    return true;
  };

  // Rank-local gate run, accumulated until a global gate interrupts it,
  // then pushed through the regular fusion + cache-blocking pipeline.
  Circuit segment(nl);
  const auto flush = [&] {
    if (segment.empty()) return;
    DistPlanItem item;
    item.kind = DistPlanItem::Kind::Local;
    item.local = plan_blocked(segment, opts.fusion, opts.sched);
    plan.items.push_back(std::move(item));
    segment = Circuit(nl);
  };

  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    if (all_local(masks[i], perm)) {
      segment.append(relabel(g, perm));
      continue;
    }
    bool exchanged = false;
    if (opts.remap) {
      const std::size_t window_end = std::min(gates.size(), i + opts.lookahead);
      constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
      std::vector<std::size_t> next_use(n, kNever);
      for (std::size_t j = i; j < window_end; ++j) {
        for (qubit_t q = 0; masks[j] >> q; ++q)
          if (bits::test(masks[j], q) && next_use[q] == kNever) next_use[q] = j;
      }
      // Candidate imports: this gate's global qubits (mandatory), then
      // the window's remaining global working set, soonest-used first.
      std::vector<qubit_t> imports;
      for (qubit_t q = 0; masks[i] >> q; ++q)
        if (bits::test(masks[i], q) && perm[q] >= nl) imports.push_back(q);
      const std::size_t mandatory = imports.size();
      for (qubit_t q = 0; q < n; ++q)
        if (perm[q] >= nl && next_use[q] != kNever && !bits::test(masks[i], q))
          imports.push_back(q);
      std::stable_sort(imports.begin() + static_cast<std::ptrdiff_t>(mandatory),
                       imports.end(),
                       [&](qubit_t x, qubit_t y) { return next_use[x] < next_use[y]; });
      // Farthest-next-use victims from the local block.
      std::vector<qubit_t> victims;
      for (qubit_t p = 0; p < nl; ++p)
        if (!bits::test(masks[i], inv[p])) victims.push_back(p);
      std::stable_sort(victims.begin(), victims.end(), [&](qubit_t x, qubit_t y) {
        return next_use[inv[x]] > next_use[inv[y]];
      });
      std::vector<std::array<qubit_t, 2>> swaps;
      std::size_t v = 0;
      for (std::size_t s = 0; s < imports.size() && v < victims.size(); ++s) {
        const qubit_t victim = victims[v];
        if (s >= mandatory && next_use[imports[s]] >= next_use[inv[victim]]) break;
        swaps.push_back({perm[imports[s]], victim});
        ++v;
      }
      if (swaps.size() >= mandatory && !swaps.empty()) {
        std::vector<qubit_t> trial = perm;
        for (const auto& s : swaps) {
          const qubit_t qa = inv[s[0]], qb = inv[s[1]];
          std::swap(trial[qa], trial[qb]);
        }
        // Score in Eq. 6 units: per-gate chunk exchanges the pass avoids
        // over the window, net of exchanges the evictions introduce.
        std::ptrdiff_t saved = 0;
        for (std::size_t j = i; j < window_end; ++j)
          saved += static_cast<std::ptrdiff_t>(exchanges_for(gates[j], perm, nl, opts.policy)) -
                   static_cast<std::ptrdiff_t>(exchanges_for(gates[j], trial, nl, opts.policy));
        const bool taken =
            all_local(masks[i], trial) && saved > 0 &&
            models::global_remap_profitable(static_cast<std::size_t>(saved),
                                            opts.exchange_pass_cost);
        // Eq. 6 trade with its inputs, preserved as a trace marker.
        obs::instant("sched.exchange_decision",
                     {{"gate", static_cast<double>(i)},
                      {"saved", static_cast<double>(saved)},
                      {"exchange_cost", opts.exchange_pass_cost},
                      {"taken", taken ? 1.0 : 0.0}});
        if (taken) {
          flush();
          DistPlanItem item;
          item.kind = DistPlanItem::Kind::Exchange;
          item.swaps = swaps;
          plan.items.push_back(std::move(item));
          commit_swaps(swaps);
          segment.append(relabel(g, perm));
          exchanged = true;
        }
      }
    }
    if (!exchanged) {
      // Per-gate fallback: apply_gate handles global targets/controls
      // (diagonal targets and unsatisfied controls stay comm-free under
      // the Specialized policy).
      flush();
      DistPlanItem item;
      item.kind = DistPlanItem::Kind::Gate;
      item.gate = relabel(g, perm);
      plan.items.push_back(std::move(item));
    }
  }
  flush();

  if (perm_io == nullptr) {
    // Undo all exchanges so the state leaves in logical qubit order;
    // each round is one disjoint transposition set (one chunk
    // permutation). A resident caller (perm_io) instead carries the
    // reached order forward — the single restore happens at gather time.
    for (auto& swaps : restore_rounds(perm)) {
      DistPlanItem item;
      item.kind = DistPlanItem::Kind::Exchange;
      item.swaps = std::move(swaps);
      plan.items.push_back(std::move(item));
    }
  } else {
    *perm_io = perm;
  }
  if (obs::enabled()) {
    plan_span.arg("gates", static_cast<double>(plan.source_gates));
    plan_span.arg("locals", static_cast<double>(plan.locals()));
    plan_span.arg("exchanges", static_cast<double>(plan.exchanges()));
    plan_span.arg("per_gate", static_cast<double>(plan.globals()));
  }
#if QC_ENABLE_CHECKS
  // Debug/sanitizer builds verify every plan before handing it out, and
  // cross-check the verifier's replayed permutation against the
  // scheduler's own bookkeeping (see sched/verify_plan.hpp).
  if (perm_io == nullptr) {
    verify_plan(plan);
  } else {
    std::vector<qubit_t> replayed;
    verify_plan(plan, initial_perm, &replayed);
    QC_CHECK_MSG(replayed == perm, "dist_schedule: plan replay disagrees with perm_io");
  }
#endif
  return plan;
}

template <typename T>
void run_dist_plan(sim::BasicDistStateVector<T>& dsv, const DistPlan& plan,
                   sim::CommPolicy policy) {
  if (dsv.qubits() != plan.n || dsv.local_qubits() != plan.local_qubits)
    throw std::invalid_argument("run_dist_plan: qubit split mismatch");
  obs::Span plan_run_span("dist.plan");
  for (const DistPlanItem& item : plan.items) {
    switch (item.kind) {
      case DistPlanItem::Kind::Local: {
        // Rank-local cache-blocked execution: the sched.sweep spans this
        // emits nest inside it, giving the trace its fourth level.
        obs::Span span("dist.local");
        if (obs::enabled())
          span.arg("ops", static_cast<double>(item.local.source_ops));
        execute_blocked<T>(dsv.local(), item.local);
        break;
      }
      case DistPlanItem::Kind::Exchange:
        // dsv emits its own "dist.exchange_pass" span (with bytes).
        dsv.apply_qubit_swaps(item.swaps);
        break;
      case DistPlanItem::Kind::Gate: {
        obs::Span span("dist.gate");
        dsv.apply_gate(item.gate, policy);
        break;
      }
    }
  }
}

template void run_dist_plan<float>(sim::BasicDistStateVector<float>&, const DistPlan&,
                                   sim::CommPolicy);
template void run_dist_plan<double>(sim::BasicDistStateVector<double>&, const DistPlan&,
                                    sim::CommPolicy);

double predicted_seconds(const DistPlan& plan, const models::MachineParams& m) {
  const qubit_t nl = plan.local_qubits;
  double total = 0;
  for (const DistPlanItem& item : plan.items) {
    switch (item.kind) {
      case DistPlanItem::Kind::Local:
        total += models::t_blocked_execution_seconds(nl, item.local.passes(), m);
        break;
      case DistPlanItem::Kind::Exchange:
        total += models::t_chunk_exchange_seconds(nl, m);
        break;
      case DistPlanItem::Kind::Gate:
        // Physical labels: a rank-bit target pays one pairwise exchange
        // unless diagonal (comm-free under the Specialized policy).
        if (item.gate.targets[0] >= nl && !item.gate.diagonal())
          total += models::t_chunk_exchange_seconds(nl, m);
        else
          total += models::t_state_pass_seconds(nl, m);
        break;
    }
  }
  return total;
}

}  // namespace qc::sched
