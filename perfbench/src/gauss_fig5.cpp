// gauss_fig5: the paper's Figure 5 Gauss, Uniform System and SMP, on the
// 128-node Butterfly-I with 4 MB boards, N=384, at 16, 64 and 128
// processors — below, at and past the shared-memory / message-passing
// crossover.  Host work is dominated by timed references on the charge()
// fast path, US task dispatch and SMP sends; there are no timers and no
// faults.

#include <cstdio>
#include <memory>

#include "apps/gauss.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = bfly::sim;
namespace apps = bfly::apps;

namespace {

constexpr std::uint32_t kN = 384;
constexpr std::uint32_t kProcs[] = {16, 64, 128};

}  // namespace

PassResult gauss_fig5_pass(const PassContext& ctx) {
  PassResult r;
  const Clock::time_point t0 = Clock::now();

  // --- set-up: the system, its host reference, and the machines ------------
  const std::uint64_t system_seed = derive_seed(ctx.seed, 0x6a055);
  const std::vector<double> ref = apps::gauss_reference(kN, system_seed);
  r.setup_s.push_back(seconds_since(t0));
  const Clock::time_point t_machines = Clock::now();
  sim::MachineConfig mc = sim::butterfly1(128);
  mc.memory_per_node = 4u << 20;
  mc.seed = derive_seed(ctx.seed, 0x6a0551);
  std::vector<std::unique_ptr<sim::Machine>> machines;
  for (std::size_t i = 0; i < 2 * std::size(kProcs); ++i)
    machines.push_back(std::make_unique<sim::Machine>(mc));
  r.setup_s.push_back(seconds_since(t_machines));

  // --- measured phase: one part per solve -----------------------------------
  double elapsed_s = 0;
  std::size_t mi = 0;
  for (const std::uint32_t p : kProcs) {
    apps::GaussConfig cfg;
    cfg.n = kN;
    cfg.processors = p;
    cfg.seed = system_seed;
    for (const bool smp : {false, true}) {
      sim::Machine& m = *machines[mi++];
      char label[48];
      std::snprintf(label, sizeof label, "gauss_%s_p%u", smp ? "smp" : "us",
                    p);
      MachineScope scope(m, ctx.spans, label);
      const Clock::time_point t1 = Clock::now();
      const apps::GaussResult g =
          smp ? apps::gauss_smp(m, cfg) : apps::gauss_us(m, cfg);
      r.wall_s.push_back(seconds_since(t1));
      scope.finish(r);

      ++r.attempted;
      double err = 0;
      if (!check_gauss(g.solution, ref, &err)) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s: max error %.3g exceeds %.1g",
                      label, err, kGaussTolerance);
        r.fail_check(buf);
      }
      r.digest.add(static_cast<std::uint64_t>(g.elapsed));
      for (const double x : g.solution) r.digest.add(x);
      r.digest.add(g.messages);
      r.digest.add(g.remote_refs);
      r.digest.add(g.block_words);
      r.digest.add(static_cast<std::uint64_t>(g.queue_ns));

      const double s = static_cast<double>(g.elapsed) / sim::kSecond;
      elapsed_s += s;
      char note[160];
      std::snprintf(note, sizeof note,
                    "%s: sim %.3f s, remote refs %llu, msgs %llu, err %.2g",
                    label, s, static_cast<unsigned long long>(g.remote_refs),
                    static_cast<unsigned long long>(g.messages), err);
      r.notes.emplace_back(note);
    }
  }
  r.outcome.set("sim_elapsed_s", elapsed_s, "sim_s");
  return r;
}

}  // namespace perfbench
