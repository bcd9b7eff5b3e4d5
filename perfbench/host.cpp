#include "host.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/aligned.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "sim/kernels_dispatch.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

namespace {

std::string cpu_brand() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf)
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::size_t sysconf_bytes(int name) {
  const long v = sysconf(name);
  return v > 0 ? static_cast<std::size_t>(v) : 0;
}

/// Best-of-five bandwidth of the in-place read+write sweep
/// a[i] = s * a[i] + t over `ws` bytes — the access pattern of one
/// state-vector pass, so a pass's GB/s (one read and one write of the
/// state) compares with it directly. Each timed region repeats the sweep
/// until it has moved at least 256 MiB, so one OpenMP fork is amortized
/// even at L2 sizes; the static schedule gives every thread the same
/// slice on every repetition, so the repetitions need no barrier.
double sweep_gbps(double* a, std::size_t ws) {
  const auto n = static_cast<std::int64_t>(ws / sizeof(double));
  const std::size_t bytes = 2 * static_cast<std::size_t>(n) * sizeof(double);
  const std::size_t inner = std::max<std::size_t>(1, (std::size_t{256} << 20) / bytes);
  double best = 0;
  for (int rep = 0; rep < 5; ++rep) {
    qc::WallTimer t;
#pragma omp parallel
    for (std::size_t r = 0; r < inner; ++r) {
      // s * x + t with s * 1 + t == 1 keeps the values bounded.
      const double s = 0.5, shift = 0.5;
#pragma omp for schedule(static) nowait
      for (std::int64_t i = 0; i < n; ++i) a[i] = s * a[i] + shift;
    }
    best = std::max(best, static_cast<double>(bytes * inner) / t.seconds() / 1e9);
  }
  return best;
}

}  // namespace

HostInfo fingerprint() {
  HostInfo h;
  h.cpu_model = cpu_brand();
  h.l2_bytes = sysconf_bytes(_SC_LEVEL2_CACHE_SIZE);
  h.l3_bytes = sysconf_bytes(_SC_LEVEL3_CACHE_SIZE);
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  h.omp_threads = qc::max_threads();
  const char* bind = std::getenv("OMP_PROC_BIND");
  h.proc_bind = bind != nullptr ? bind : "unset";
  h.isa = qc::sim::kernels::isa_name(qc::sim::kernels::active_isa());
  return h;
}

void calibrate(HostInfo& h) {
  // DRAM point: at least 4x the reported LLC (1 GiB when unreported).
  const std::size_t llc = h.l3_bytes != 0 ? h.l3_bytes : std::size_t{256} << 20;
  const std::size_t largest = 4 * llc;
  qc::uninit_aligned_vector<double> buf(largest / sizeof(double));
  const auto total = static_cast<std::int64_t>(buf.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < total; ++i) buf[static_cast<std::size_t>(i)] = 1.0;

  // Untimed warm-up: wakes the OpenMP team and lets clocks settle.
  for (int i = 0; i < 20; ++i) (void)sweep_gbps(buf.data(), std::size_t{1} << 20);
  h.sweep.clear();
  for (std::size_t ws = std::size_t{256} << 10; ws < largest; ws *= 2)
    h.sweep.emplace_back(ws, sweep_gbps(buf.data(), ws));
  h.sweep.emplace_back(largest, sweep_gbps(buf.data(), largest));

  // L2 runs from the smallest set up to where bandwidth falls below 70%
  // of the sweep's best; DRAM is the tail within 25% of the largest
  // set's bandwidth; whatever lies between is the LLC.
  const auto& sw = h.sweep;
  std::size_t best = 0;
  for (std::size_t k = 1; k < sw.size(); ++k)
    if (sw[k].second > sw[best].second) best = k;
  std::size_t l2_end = best;
  while (l2_end + 1 < sw.size() && sw[l2_end + 1].second >= 0.7 * sw[best].second) ++l2_end;
  std::size_t dram_begin = sw.size() - 1;
  while (dram_begin > l2_end + 1 && sw[dram_begin - 1].second <= 1.25 * sw.back().second)
    --dram_begin;
  auto level = [&](const char* name, std::size_t first, std::size_t last) {
    BandwidthLevel l{name, sw[last].first, 0};
    for (std::size_t k = first; k <= last; ++k) l.peak_gbps = std::max(l.peak_gbps, sw[k].second);
    h.levels.push_back(l);
  };
  h.levels.clear();
  level("L2", 0, l2_end);
  if (dram_begin > l2_end + 1) level("LLC", l2_end + 1, dram_begin - 1);
  if (dram_begin > l2_end) level("DRAM", dram_begin, sw.size() - 1);
}

const BandwidthLevel& level_for(const HostInfo& h, std::size_t bytes) {
  for (const BandwidthLevel& l : h.levels)
    if (bytes <= l.edge_bytes) return l;
  return h.levels.back();
}

std::string host_json(const HostInfo& h) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\": \"%s\", \"l2_bytes\": %zu, \"l3_bytes\": %zu, \"nproc\": %d, "
                "\"omp_threads\": %d, \"omp_proc_bind\": \"%s\", \"isa\": \"%s\"",
                h.cpu_model.c_str(), h.l2_bytes, h.l3_bytes, h.nproc, h.omp_threads,
                h.proc_bind.c_str(), h.isa.c_str());
  out += buf;
  out += ", \"bandwidth_sweep\": [";
  for (std::size_t i = 0; i < h.sweep.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s[%zu, %.3f]", i ? ", " : "", h.sweep[i].first,
                  h.sweep[i].second);
    out += buf;
  }
  out += "], \"levels\": [";
  for (std::size_t i = 0; i < h.levels.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s{\"level\": \"%s\", \"edge_bytes\": %zu, \"peak_gbps\": %.3f}",
                  i ? ", " : "", h.levels[i].name.c_str(), h.levels[i].edge_bytes,
                  h.levels[i].peak_gbps);
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace perfbench
