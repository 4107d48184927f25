// sync_1k: exascale_ish() at 1024 nodes with the switch-contention model
// on, running the spin-lock vs MCS convoy, central vs combining-tree
// barrier, and fetch-add port vs switch-combining families.  Thousands of
// short-lived, mostly-spinning fibers: engine heap depth, switch-fabric
// contention bookkeeping and fiber-stack memory, unlike gauss_fig5's few
// fibers with many references.
//
// The seed moves the inputs, not the structure or the amount of work: it
// deals fixed multisets of critical-section lengths, barrier arrival skews,
// and fetch-add deltas and gaps out to the contenders in a seeded order.

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "chrysalis/spinlock.hpp"
#include "sim/rng.hpp"
#include "sync/barrier.hpp"
#include "sync/mcs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = bfly::sim;
namespace sync = bfly::sync;

namespace {

constexpr std::uint32_t kNodes = 1024;
constexpr std::uint32_t kEpisodes = 4;
constexpr std::uint32_t kFaddPerActor = 4;

// `values`, dealt out in an order drawn from `rng` (Fisher-Yates).
template <typename T>
std::vector<T> dealt(std::vector<T> values, sim::Rng& rng) {
  for (std::size_t i = values.size(); i > 1; --i)
    std::swap(values[i - 1], values[rng.below(i)]);
  return values;
}

// kNodes values cycling through `lo, lo+1, ..., lo+span-1`, times `unit`.
template <typename T>
std::vector<T> cycle(T lo, T span, T unit) {
  std::vector<T> v(kNodes);
  for (std::uint32_t i = 0; i < kNodes; ++i) v[i] = (lo + i % span) * unit;
  return v;
}

sim::MachineConfig contended(std::uint64_t seed, bool combining) {
  sim::MachineConfig cfg = sim::exascale_ish(kNodes);
  cfg.model_switch_contention = true;
  cfg.switch_combining = combining;
  cfg.seed = seed;
  return cfg;
}

// One family configuration: its machine plus what its set-up built.  The
// measured phase is the machine's run(); everything before is set-up.
struct Family {
  const char* label;
  std::unique_ptr<sim::Machine> m;
  std::function<void(PassResult&)> check;  // after run(): verify the answer
  std::vector<std::shared_ptr<void>> keep;   // objects fibers reference
};

Family lock_family(std::uint64_t seed, bool mcs) {
  Family fam{mcs ? "lock_mcs" : "lock_spin",
             std::make_unique<sim::Machine>(contended(seed, false)), {}, {}};
  sim::Machine& m = *fam.m;
  std::vector<sim::NodeId> nodes(kNodes);
  for (std::uint32_t w = 0; w < kNodes; ++w) nodes[w] = w;
  const sim::PhysAddr cell = m.alloc(0, 8);
  m.poke<std::uint32_t>(cell, 0);
  // The guarded data lives with the lock word, so the holder's references
  // queue behind the probe storm on node 0's port.
  const sim::PhysAddr data = m.alloc(0, 32);
  for (std::uint32_t i = 0; i < 8; ++i)
    m.poke<std::uint32_t>(data.plus(4 * i), 0);
  auto qlock = std::make_shared<sync::McsLock>(m, 0, nodes, sim::kMicrosecond,
                                               8 * sim::kMicrosecond);
  fam.keep.push_back(qlock);
  sim::Rng rng(seed);
  const std::vector<sim::Time> cs_len =
      dealt(cycle<sim::Time>(1, 4, sim::kMicrosecond), rng);
  for (std::uint32_t w = 0; w < kNodes; ++w) {
    m.spawn(nodes[w], [&m, q = qlock.get(), cell, data, w, mcs,
                       cs = cs_len[w]] {
      bfly::chrys::SpinLock slock(m, cell, 2 * sim::kMicrosecond,
                                  16 * sim::kMicrosecond);
      if (mcs) q->acquire(w); else slock.acquire();
      std::uint32_t v = 0;
      for (std::uint32_t i = 0; i < 4; ++i)
        v += m.read<std::uint32_t>(data.plus(8 * i));
      m.write<std::uint32_t>(data, v + 1);
      m.charge(cs);
      if (mcs) q->release(w); else slock.release();
    });
  }
  fam.check = [&m, data, label = fam.label](PassResult& r) {
    const auto v = m.peek<std::uint32_t>(data);
    r.digest.add(static_cast<std::uint64_t>(v));
    if (v != kNodes) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s: guarded counter %u, expected %u",
                    label, v, kNodes);
      r.fail_check(buf);
    }
  };
  return fam;
}

Family barrier_family(std::uint64_t seed, bool tree) {
  Family fam{tree ? "barrier_tree" : "barrier_central",
             std::make_unique<sim::Machine>(contended(seed, false)), {}, {}};
  sim::Machine& m = *fam.m;
  std::vector<sim::NodeId> nodes(kNodes);
  for (std::uint32_t w = 0; w < kNodes; ++w) nodes[w] = w;
  auto cbar = std::make_shared<sync::CentralBarrier>(
      m, 0, kNodes, 5 * sim::kMicrosecond, sim::kMillisecond);
  auto tbar = std::make_shared<sync::TreeBarrier>(
      m, nodes, 4, sim::kMicrosecond, 64 * sim::kMicrosecond);
  // Host-side episode bookkeeping (uncharged): arrivals per episode, and
  // the number of workers that left an episode before everyone arrived.
  auto arrived = std::make_shared<std::vector<std::uint32_t>>(kEpisodes, 0);
  auto early = std::make_shared<std::uint32_t>(0);
  fam.keep = {cbar, tbar, arrived, early};
  // Arrivals are a wave: each episode deals skews of 0..6.3 us.
  sim::Rng rng(seed);
  std::vector<std::vector<sim::Time>> skews;
  for (std::uint32_t e = 0; e < kEpisodes; ++e)
    skews.push_back(dealt(cycle<sim::Time>(0, 64, 100), rng));
  for (std::uint32_t w = 0; w < kNodes; ++w) {
    std::array<sim::Time, kEpisodes> skew{};
    for (std::uint32_t e = 0; e < kEpisodes; ++e) skew[e] = skews[e][w];
    m.spawn(nodes[w], [&m, c = cbar.get(), t = tbar.get(), a = arrived.get(),
                       e_ = early.get(), w, tree, skew] {
      for (std::uint32_t e = 0; e < kEpisodes; ++e) {
        m.charge(skew[e]);
        ++(*a)[e];
        if (tree) t->arrive(w); else c->arrive(w);
        if ((*a)[e] != kNodes) ++*e_;
      }
    });
  }
  fam.check = [&m, arrived, early, label = fam.label](PassResult& r) {
    const std::uint64_t episodes = m.stats().barrier_episodes;
    r.digest.add(episodes);
    bool ok = episodes == kEpisodes && *early == 0;
    for (const std::uint32_t n : *arrived) ok = ok && n == kNodes;
    if (!ok) {
      char buf[128];
      std::snprintf(buf, sizeof buf,
                    "%s: %llu episodes (expected %u), %u early departures",
                    label, static_cast<unsigned long long>(episodes),
                    kEpisodes, *early);
      r.fail_check(buf);
    }
  };
  return fam;
}

Family fadd_family(std::uint64_t seed, bool combining) {
  Family fam{combining ? "fadd_combine" : "fadd_port",
             std::make_unique<sim::Machine>(contended(seed, combining)), {},
             {}};
  sim::Machine& m = *fam.m;
  const sim::PhysAddr cell = m.alloc(0, 8);
  m.poke<std::uint32_t>(cell, 0);
  sim::Rng rng(seed);
  std::vector<std::vector<std::uint32_t>> deltas;
  std::vector<std::vector<sim::Time>> gaps;
  for (std::uint32_t i = 0; i < kFaddPerActor; ++i) {
    deltas.push_back(dealt(cycle<std::uint32_t>(1, 7, 1), rng));
    gaps.push_back(dealt(cycle<sim::Time>(0, 16, 100), rng));
  }
  std::uint64_t expect = 0;
  for (std::uint32_t w = 0; w < kNodes; ++w) {
    std::array<std::uint32_t, kFaddPerActor> delta{};
    std::array<sim::Time, kFaddPerActor> gap{};
    for (std::uint32_t i = 0; i < kFaddPerActor; ++i) {
      delta[i] = deltas[i][w];
      gap[i] = gaps[i][w];
      expect += delta[i];
    }
    m.spawn(w, [&m, cell, delta, gap] {
      for (std::uint32_t i = 0; i < kFaddPerActor; ++i) {
        (void)m.fetch_add_u32(cell, delta[i]);
        m.charge(gap[i]);
      }
    });
  }
  fam.check = [&m, cell, expect, label = fam.label](PassResult& r) {
    const auto v = m.peek<std::uint32_t>(cell);
    r.digest.add(static_cast<std::uint64_t>(v));
    if (v != expect) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s: cell %u, sum of deltas %llu", label,
                    v, static_cast<unsigned long long>(expect));
      r.fail_check(buf);
    }
  };
  return fam;
}

}  // namespace

PassResult sync_1k_pass(const PassContext& ctx) {
  PassResult r;
  double elapsed_s = 0;
  std::uint64_t label = 0x5c1000;
  using Maker = Family (*)(std::uint64_t, bool);
  const std::pair<Maker, bool> families[] = {
      {lock_family, false},    {lock_family, true},  {barrier_family, false},
      {barrier_family, true},  {fadd_family, false}, {fadd_family, true}};
  for (const auto& [make, variant] : families) {
    // Set-up: machine construction, shared cells, and every fiber spawn.
    const Clock::time_point t0 = Clock::now();
    Family fam = make(derive_seed(ctx.seed, ++label), variant);
    r.setup_s.push_back(seconds_since(t0));

    const Clock::time_point t1 = Clock::now();
    MachineScope scope(*fam.m, ctx.spans, fam.label);
    const sim::Time t = fam.m->run();
    r.wall_s.push_back(seconds_since(t1));
    scope.finish(r);

    ++r.attempted;
    if (fam.m->deadlocked())
      r.fail_check(std::string(fam.label) + ": deadlock");
    fam.check(r);
    const double s = static_cast<double>(t) / sim::kSecond;
    elapsed_s += s;
    char note[160];
    std::snprintf(note, sizeof note,
                  "%s: sim %.3f ms, spins %llu, combined adds %llu", fam.label,
                  s * 1e3,
                  static_cast<unsigned long long>(fam.m->stats().lock_spins),
                  static_cast<unsigned long long>(
                      fam.m->stats().combined_adds));
    r.notes.emplace_back(note);
  }
  r.outcome.set("sim_elapsed_s", elapsed_s, "sim_s");
  return r;
}

}  // namespace perfbench
