// The layer ladder: each rung is one fiber looping over calls into one
// public function, from the event engine up to the serving layer.  Host
// time is taken inside the loop (set-up and teardown excluded); simulated
// time is the loop's simulated duration.  A rung's self cost is its value
// minus the rung below it — except ref_fast, which bypasses the fiber
// switch that ref_slow pays and is read against ref_slow.

#include <cstdint>
#include <functional>

#include "bridge/bridge.hpp"
#include "serve/serve.hpp"
#include "smp/family.hpp"
#include "us/uniform_system.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = bfly::sim;
namespace chrys = bfly::chrys;

namespace {

struct Timing {
  double host_s = 0;
  sim::Time sim_ns = 0;
};

// Host and simulated time from construction to destruction, taken inside
// the fiber that runs the loop.
class LoopTimer {
 public:
  LoopTimer(sim::Machine& m, Timing* out)
      : m_(m), out_(out), h0_(Clock::now()), s0_(m.now()) {}
  ~LoopTimer() {
    out_->host_s = seconds_since(h0_);
    out_->sim_ns = m_.now() - s0_;
  }
  LoopTimer(const LoopTimer&) = delete;
  LoopTimer& operator=(const LoopTimer&) = delete;

 private:
  sim::Machine& m_;
  Timing* out_;
  Clock::time_point h0_;
  sim::Time s0_;
};

sim::MachineConfig cfg_of(std::uint32_t nodes, bool fastpath) {
  sim::MachineConfig c = sim::butterfly1(nodes);
  c.host_fastpath = fastpath;
  return c;
}

Timing engine_event(int n) {
  sim::Engine e;
  int left = n;
  std::function<void()> step;
  step = [&] {
    if (--left > 0) e.post_in(sim::kMicrosecond, [&step] { step(); });
  };
  e.post_in(sim::kMicrosecond, [&step] { step(); });
  const Clock::time_point h0 = Clock::now();
  const sim::Time t = e.run();
  return Timing{seconds_since(h0), t};
}

Timing fiber_loop(sim::MachineConfig cfg, int n,
                  const std::function<void(sim::Machine&, sim::PhysAddr)>& op) {
  sim::Machine m(cfg);
  const sim::PhysAddr remote = m.alloc(m.nodes() / 2, 64);
  Timing t;
  m.spawn(0, [&] {
    LoopTimer lt(m, &t);
    for (int i = 0; i < n; ++i) op(m, remote);
  });
  m.run();
  return t;
}

// A Chrysalis process on node 0 runs `body`, which times its own loop.
Timing process_loop(std::uint32_t nodes,
                    const std::function<void(chrys::Kernel&, Timing&)>& body) {
  sim::Machine m(cfg_of(nodes, true));
  chrys::Kernel k(m);
  Timing t;
  k.create_process(0, [&] { body(k, t); });
  m.run();
  return t;
}

Timing chrys_create(int n) {
  return process_loop(16, [n](chrys::Kernel& k, Timing& t) {
    LoopTimer lt(k.machine(), &t);
    for (int i = 0; i < n; ++i) k.create_process(1 + i % 15, [] {});
  });
}

Timing chrys_event(int n) {
  return process_loop(4, [n](chrys::Kernel& k, Timing& t) {
    const chrys::Oid ev = k.make_event();
    LoopTimer lt(k.machine(), &t);
    for (int i = 0; i < n; ++i) {
      k.event_post(ev, static_cast<std::uint32_t>(i));
      (void)k.event_wait(ev);
    }
  });
}

Timing chrys_dq(int n) {
  return process_loop(4, [n](chrys::Kernel& k, Timing& t) {
    const chrys::Oid dq = k.make_dual_queue();
    LoopTimer lt(k.machine(), &t);
    for (int i = 0; i < n; ++i) {
      k.dq_enqueue(dq, static_cast<std::uint32_t>(i));
      (void)k.dq_dequeue(dq);
    }
  });
}

Timing us_task(int n) {
  sim::Machine m(cfg_of(4, true));
  chrys::Kernel k(m);
  bfly::us::UsConfig uc;
  uc.processors = 2;
  bfly::us::UniformSystem us(k, uc);
  Timing t;
  us.run_main([&] {
    LoopTimer lt(m, &t);
    for (int i = 0; i < n; ++i) {
      us.gen_task([](bfly::us::TaskCtx&) {});
      us.wait_idle();
    }
  });
  return t;
}

// One op = a round trip: member 0 sends, member 1 echoes.
Timing smp_msg(int n) {
  return process_loop(4, [n](chrys::Kernel& k, Timing& t) {
    const auto body = [&](bfly::smp::Member& me) {
      if (me.index() == 1) {
        for (int i = 0; i < n; ++i) me.send_value(0, me.receive().tag, i);
        return;
      }
      LoopTimer lt(k.machine(), &t);
      for (int i = 0; i < n; ++i) {
        me.send_value(1, static_cast<std::uint32_t>(i), i);
        (void)me.receive();
      }
    };
    bfly::smp::Family fam(k, bfly::smp::Topology::complete(2), body);
    fam.join();
  });
}

Timing bridge_read(int n) {
  return process_loop(16, [n](chrys::Kernel& k, Timing& t) {
    bfly::bridge::BridgeFs fs(k, 2, serving_disk());
    const bfly::bridge::FileId f = fs.create("ladder");
    std::vector<std::uint8_t> blk(bfly::bridge::kBlockSize, 7);
    fs.write_block(f, 0, blk.data());
    {
      LoopTimer lt(k.machine(), &t);
      for (int i = 0; i < n; ++i) fs.read_block(f, 0, blk.data());
    }
    fs.shutdown();
  });
}

Timing serve_op(int n, bool write) {
  return process_loop(16, [n, write](chrys::Kernel& k, Timing& t) {
    bfly::bridge::BridgeFs fs(k, 4, serving_disk());
    {
      bfly::serve::ReplicatedFs rfs(k, fs);
      const bfly::bridge::FileId f = rfs.open("ladder", 1);
      std::vector<std::uint8_t> blk(bfly::bridge::kBlockSize, 7);
      rfs.write(f, 0, blk.data());
      LoopTimer lt(k.machine(), &t);
      for (int i = 0; i < n; ++i) {
        if (write) rfs.write(f, 0, blk.data());
        else rfs.read(f, 0, blk.data());
      }
    }
    fs.shutdown();
  });
}

struct RungDef {
  const char* name;
  int ops;
  std::function<Timing(int)> run;
};

const std::vector<RungDef>& rung_defs() {
  const auto refs = [](bool fast) {
    return [fast](int n) {
      return fiber_loop(cfg_of(128, fast), n,
                        [](sim::Machine& m, sim::PhysAddr a) {
                          (void)m.read<std::uint32_t>(a);
                        });
    };
  };
  static const std::vector<RungDef> rungs{
      {"engine_event", 200000, engine_event},
      {"fiber_switch", 50000,
       [](int n) {
         return fiber_loop(cfg_of(4, false), n,
                           [](sim::Machine& m, sim::PhysAddr) {
                             m.charge(sim::kMicrosecond);
                           });
       }},
      {"ref_fast", 400000, refs(true)},
      {"ref_slow", 50000, refs(false)},
      {"chrys_create", 1000, chrys_create},
      {"chrys_event", 20000, chrys_event},
      {"chrys_dq", 20000, chrys_dq},
      {"us_task", 4000, us_task},
      {"smp_msg", 4000, smp_msg},
      {"bridge_read", 4000, bridge_read},
      {"serve_read", 3000, [](int n) { return serve_op(n, false); }},
      {"serve_write", 2000, [](int n) { return serve_op(n, true); }},
  };
  return rungs;
}

}  // namespace

std::vector<std::string> ladder_rungs() {
  std::vector<std::string> names;
  for (const RungDef& r : rung_defs()) names.emplace_back(r.name);
  return names;
}

std::vector<RungResult> run_ladder(int reps) {
  std::vector<RungResult> out;
  for (const RungDef& r : rung_defs()) {
    std::vector<double> host;
    sim::Time sim_ns = 0;
    for (int i = 0; i < reps; ++i) {
      const Timing t = r.run(r.ops);
      host.push_back(t.host_s);
      sim_ns = t.sim_ns;
    }
    out.push_back(RungResult{r.name, median(host) * 1e9 / r.ops,
                             static_cast<double>(sim_ns) / 1e3 / r.ops});
  }
  return out;
}

}  // namespace perfbench
