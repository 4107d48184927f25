// The serving workloads: the 16-node bench_tserving cluster — 8 Bridge
// servers on serving-class disks, 3 replicas, 64 open-loop Poisson
// workers, 90/10 read/write over 64 blocks, hedging and rescue heartbeats
// on.  Latency is timed from each request's *scheduled* arrival, so a
// stalled generator cannot hide queueing (and loadgen.max_lag_ms reports
// how late it ran).
//
//   serve_open_loop: no faults; a fixed rate ladder of 600/1200/1800/2400
//                    ops per simulated second, up to the ~2.2K ops/s
//                    capacity of this mix.
//   serve_faults:    800 ops/s with 4 staggered silent server kills and a
//                    surviving server gray-failed x12.
//
// Every window is long enough that each percentile it reports has at
// least kMinBeyond samples beyond it.  After the window, every block is
// read back through the serving layer and checked against the writes the
// clients saw acknowledged.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "serve/serve.hpp"
#include "sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace sim = bfly::sim;
namespace serve = bfly::serve;
namespace bridge = bfly::bridge;
namespace chrys = bfly::chrys;
namespace rescue = bfly::rescue;

namespace {

constexpr std::uint32_t kServers = 8;
constexpr std::uint32_t kFiles = 4;
constexpr std::uint32_t kBlocksPerFile = 16;
constexpr std::uint32_t kWorkers = 64;
// Set-up (seeding, daemons, worker creation) happens in simulated time
// before this instant; the measured window starts here.
const sim::Time kWarm = 1500 * sim::kMillisecond;

double ms(sim::Time t) { return static_cast<double>(t) / sim::kMillisecond; }

struct Scenario {
  double rate = 0;            // offered ops per simulated second
  sim::Time window = 0;       // measurement window
  std::vector<sim::Time> kill_at;  // silent kills of nodes 1,3,5,7 (offsets)
  double slow_factor = 0;     // 0 = healthy; else gray-fail node 2
  std::uint64_t seed = 0;
};

struct Sample {
  double due_ms;   // scheduled arrival, from window start
  double resp_ms;  // scheduled arrival to completion
  bool write;
  serve::Status st;
};

struct ScenarioResult {
  std::vector<Sample> samples;
  std::vector<WriteRecord> writes;
  double max_lag_ms = 0;       // issue - scheduled arrival, worst
  double worst_service_ms = 0; // issue to return, worst
  serve::ServeCounters counters;
  std::uint64_t disk_ops = 0;
  std::uint64_t dispatch_steps = 0;
  std::vector<double> detect_ms;  // kill -> suspicion, per kill
  std::size_t torn_reads = 0;  // OK reads that returned a wrong payload
  ReadBack readback;           // the post-window read-back of every block
  // Bridge server processes gone before shutdown.  Known defect: a reply
  // queue whose deletion Bridge deferred for an abandoned request is still
  // owned by the client process, so the kernel reclaims it when that
  // client exits; the server's later reply faults and ends the server.
  // Its shutdown then never completes, so the run also ends deadlocked.
  std::uint32_t server_faults = 0;
  bool deadlocked = true;
  double setup_s = 0;  // host seconds until the window opened
  double wall_s = 0;   // host seconds of the window and its drain
};

// Exponential inter-arrival gap, clamped away from the distribution's
// pathological ends (as bench_tserving does).
sim::Time exp_gap(sim::Rng& rng, double mean_s) {
  double g = -mean_s * std::log(1.0 - rng.uniform());
  g = std::min(g, 50.0 * mean_s);
  const auto t = static_cast<sim::Time>(g * static_cast<double>(sim::kSecond));
  return std::max<sim::Time>(t, 10 * sim::kMicrosecond);
}

ScenarioResult run_scenario(const Scenario& sc, bool spans, const char* label,
                            PassResult& pr) {
  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_window = t0;
  sim::FaultPlan plan;
  for (std::size_t i = 0; i < sc.kill_at.size(); ++i)
    plan.kill_silent(static_cast<sim::NodeId>(1 + 2 * i),
                     kWarm + sc.kill_at[i]);
  if (sc.slow_factor > 0)
    plan.slow(2, kWarm + 800 * sim::kMillisecond, 1000 * sim::kSecond,
              sc.slow_factor);
  sim::MachineConfig mc = sim::butterfly1(16);
  mc.seed = derive_seed(sc.seed, 1);
  sim::Machine m(mc, plan);
  MachineScope scope(m, spans, label);
  chrys::Kernel k(m);
  ScenarioResult r;
  std::uint32_t workers_done = 0;
  std::uint64_t write_seq = 0;

  k.create_process(15, [&] {
    bridge::BridgeFs fs(k, kServers, serving_disk());
    {
      rescue::RescueConfig rc;
      rc.monitor_node = 14;
      rc.heartbeat_period = 10 * sim::kMillisecond;
      rc.suspect_after = 50 * sim::kMillisecond;
      rescue::Membership mem(k, rc);
      serve::ServeConfig scfg;
      scfg.hedge_floor = 5 * sim::kMillisecond;
      scfg.seed = derive_seed(sc.seed, 2);
      serve::ReplicatedFs rfs(k, fs, &mem, scfg);
      bridge::FileId files[kFiles];
      std::vector<std::uint8_t> blk(bridge::kBlockSize);
      for (std::uint32_t f = 0; f < kFiles; ++f) {
        files[f] = rfs.open("serve" + std::to_string(f), kBlocksPerFile);
        for (std::uint32_t b = 0; b < kBlocksPerFile; ++b) {
          encode_block(blk, f, b, 0);
          rfs.write(files[f], b, blk.data());
        }
      }
      mem.start();
      rfs.start_repair(13);
      const sim::Time t_end = kWarm + sc.window;
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        k.create_process(8 + w % 8, [&, w] {
          sim::Rng rng(derive_seed(sc.seed, 100 + w));
          std::vector<std::uint8_t> wblk(bridge::kBlockSize);
          std::vector<std::uint8_t> back(bridge::kBlockSize);
          const double mean_gap_s = kWorkers / sc.rate;
          if (m.now() < kWarm) k.delay(kWarm - m.now());
          sim::Time next = kWarm;
          for (;;) {
            next += exp_gap(rng, mean_gap_s);
            if (next >= t_end) break;
            if (m.now() < next) k.delay(next - m.now());
            const auto f = static_cast<std::uint32_t>(rng.below(kFiles));
            const auto b =
                static_cast<std::uint32_t>(rng.below(kBlocksPerFile));
            const bool is_write = rng.below(10) == 0;
            const sim::Time issue = m.now();
            r.max_lag_ms = std::max(r.max_lag_ms, ms(issue - next));
            serve::Status st;
            if (is_write) {
              const std::uint64_t id = ++write_seq;
              encode_block(wblk, f, b, id);
              st = rfs.write(files[f], b, wblk.data());
              r.writes.push_back(WriteRecord{f, b, id, ms(issue), ms(m.now()),
                                             st == serve::Status::kOk});
            } else {
              st = rfs.read(files[f], b, back.data());
              if (st == serve::Status::kOk &&
                  !decode_block(back.data(), back.size(), f, b))
                ++r.torn_reads;
            }
            const sim::Time done = m.now();
            r.worst_service_ms =
                std::max(r.worst_service_ms, ms(done - issue));
            r.samples.push_back(
                Sample{ms(next - kWarm), ms(done - next), is_write, st});
          }
          ++workers_done;
        });
      }
      if (m.now() < kWarm) k.delay(kWarm - m.now());
      t_window = Clock::now();
      while (workers_done < kWorkers) k.delay(20 * sim::kMillisecond);
      for (int i = 0; i < 1000 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      // Checker: read every block back through the serving layer.
      std::vector<std::uint8_t> back(bridge::kBlockSize);
      r.readback = check_acked_writes(
          r.writes,
          [&](std::uint32_t f,
              std::uint32_t b) -> std::optional<std::uint64_t> {
            if (rfs.read(files[f], b, back.data()) != serve::Status::kOk)
              return std::nullopt;
            return decode_block(back.data(), back.size(), f, b);
          },
          kFiles, kBlocksPerFile);
      r.counters = rfs.counters();
      for (std::size_t i = 0; i < sc.kill_at.size(); ++i) {
        const sim::Time s =
            mem.suspected_at(static_cast<sim::NodeId>(1 + 2 * i));
        r.detect_ms.push_back(s == 0 ? -1.0
                                     : ms(s - (kWarm + sc.kill_at[i])));
      }
      mem.stop();
      rfs.stop_repair();
      for (int i = 0; i < 100 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
    }
    r.disk_ops = fs.disk_ops();
    // Live now: this process and every server on a surviving node that
    // has not faulted.
    std::size_t expect = 1;
    for (std::uint32_t s = 0; s < kServers; ++s)
      expect += m.node_alive(fs.server_node(s)) ? 1 : 0;
    const std::size_t live = k.live_processes();
    r.server_faults =
        live < expect ? static_cast<std::uint32_t>(expect - live) : 0;
    fs.shutdown();
  });
  m.run();
  r.deadlocked = m.deadlocked();
  r.dispatch_steps = k.dispatch_steps();
  r.setup_s = std::chrono::duration<double>(t_window - t0).count();
  r.wall_s = seconds_since(t_window);
  scope.finish(pr);
  return r;
}

enum class Ops { kAll, kReads, kWrites };

std::vector<double> latencies(const ScenarioResult& r, Ops which) {
  std::vector<double> v;
  v.reserve(r.samples.size());
  for (const Sample& s : r.samples)
    if (which == Ops::kAll || (which == Ops::kWrites) == s.write)
      v.push_back(s.resp_ms);
  return v;
}

std::uint64_t failures(const ScenarioResult& r) {
  std::uint64_t n = 0;
  for (const Sample& s : r.samples) n += s.st != serve::Status::kOk;
  return n;
}

double failed_share(std::uint64_t failed, std::size_t requests) {
  return static_cast<double>(failed) /
         static_cast<double>(std::max<std::size_t>(requests, 1));
}

// Fold one scenario into the pass: host times, checks, digest, and layer
// counters.
void account(const Scenario& sc, const ScenarioResult& r, const char* label,
             PassResult& pr) {
  pr.setup_s.push_back(r.setup_s);
  pr.wall_s.push_back(r.wall_s);
  for (const Sample& s : r.samples) {
    pr.digest.add(s.due_ms);
    pr.digest.add(s.resp_ms);
    pr.digest.add(static_cast<std::uint64_t>(s.st) * 2 + s.write);
  }
  pr.digest.add(r.counters.lost_blocks);
  pr.digest.add(r.disk_ops);
  pr.digest.add(r.dispatch_steps);
  for (const double d : r.detect_ms) pr.digest.add(d);

  // Every request and every read-back is an answer the checks cover; a
  // request the layer refused or timed out is a correct answer under its
  // contract and counts in failed_share, not as a failure here.
  const std::uint64_t failed = failures(r);
  pr.attempted += r.samples.size() + kFiles * kBlocksPerFile;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) pr.fail_check(std::string(label) + ": " + what);
  };
  // A run that deadlocks only because a faulted server cannot answer the
  // shutdown is the defect reported in bridge.server_faults.
  check(!r.deadlocked || r.server_faults > 0, "deadlock");
  check(r.torn_reads == 0,
        std::to_string(r.torn_reads) + " reads returned a wrong payload");
  check(r.readback.bad == 0,
        std::to_string(r.readback.bad) + " blocks read back wrong" +
            (r.readback.why.empty() ? "" : " (" + r.readback.why[0] + ")"));
  check(r.counters.lost_blocks == 0,
        std::to_string(r.counters.lost_blocks) + " blocks lost every replica");
  // The deadline budget bounds every request; charges already in flight
  // when it expires may overrun it by a bounded amount.
  const double bound_ms = ms(serve::ServeConfig{}.deadline) + 100.0;
  check(r.worst_service_ms <= bound_ms,
        "a request outlived its deadline (" +
            std::to_string(r.worst_service_ms) + " ms)");
  for (const double d : r.detect_ms)
    check(d >= 0, "a silent kill was never suspected");

  MetricSet& L = pr.layers;
  L.add("loadgen.requests", static_cast<double>(r.samples.size()), "count");
  L.raise("loadgen.max_lag_ms", r.max_lag_ms, "sim_ms");
  L.add("bridge.disk_ops", static_cast<double>(r.disk_ops), "count");
  L.add("chrys.dispatch_steps", static_cast<double>(r.dispatch_steps), "count");
  L.add("serve.stale_readbacks", static_cast<double>(r.readback.stale),
        "count");
  L.add("bridge.server_faults", static_cast<double>(r.server_faults), "count");
  for (const std::string& why : r.readback.why)
    pr.notes.push_back(std::string(label) + " read-back: " + why);
  if (r.server_faults > 0)
    pr.notes.push_back(std::string(label) + ": " +
                       std::to_string(r.server_faults) +
                       " Bridge server process(es) faulted before shutdown");

  char note[200];
  std::snprintf(note, sizeof note,
                "%s: rate %.0f/s, %zu requests, %llu failed, worst service "
                "%.1f ms, max lag %.2f ms",
                label, sc.rate, r.samples.size(),
                static_cast<unsigned long long>(failed), r.worst_service_ms,
                r.max_lag_ms);
  pr.notes.emplace_back(note);
}

// Latency, the SLO inputs, and goodput for one rung.
Rung rung_of(const Scenario& sc, const ScenarioResult& r) {
  Rung g;
  g.rate = sc.rate;
  g.p99_ms =
      percentile_or_throw(latencies(r, Ops::kAll), 0.99, "rung p99").value;
  g.failed_share = failed_share(failures(r), r.samples.size());
  const double span_ms = ms(sc.window);
  std::vector<double> first, last;
  for (const Sample& s : r.samples) {
    if (s.due_ms < span_ms / 4) first.push_back(s.resp_ms);
    if (s.due_ms >= 3 * span_ms / 4) last.push_back(s.resp_ms);
  }
  g.first_q_p50_ms = median(first);
  g.last_q_p50_ms = median(last);
  return g;
}

double goodput(const Scenario& sc, const ScenarioResult& r) {
  return static_cast<double>(r.samples.size() - failures(r)) /
         (static_cast<double>(sc.window) / sim::kSecond);
}

void set_tail(PassResult& pr, const std::string& name,
              const std::vector<double>& v, double q) {
  const Tail t = percentile_or_throw(v, q, name.c_str());
  pr.outcome.set(name, t.value, "sim_ms");
  char note[160];
  std::snprintf(note, sizeof note,
                "%s = %.3f ms over %zu samples (%zu beyond)", name.c_str(),
                t.value, t.n, t.beyond);
  pr.notes.emplace_back(note);
}

}  // namespace

bridge::DiskParams serving_disk() {
  bridge::DiskParams d;
  d.seek_ns = 2 * sim::kMillisecond;
  d.block_transfer_ns = 1 * sim::kMillisecond;
  return d;
}

PassResult serve_open_loop_pass(const PassContext& ctx) {
  PassResult pr;
  // Windows: 1200/s carries p50/p999 (>= 10000 samples); 1800/s carries
  // the near-saturation p99 and the read/write p99 split (>= 1000 writes).
  const std::pair<double, sim::Time> ladder[] = {
      {600, 3 * sim::kSecond},
      {1200, 10 * sim::kSecond},
      {1800, 7 * sim::kSecond},
      {2400, 3 * sim::kSecond}};
  std::vector<Rung> rungs;
  std::uint64_t requests = 0, failed = 0;
  for (const auto& [rate, window] : ladder) {
    Scenario sc;
    sc.rate = rate;
    sc.window = window;
    sc.seed = derive_seed(ctx.seed, static_cast<std::uint64_t>(rate));
    char label[32];
    std::snprintf(label, sizeof label, "r%.0f", rate);
    const ScenarioResult r = run_scenario(sc, ctx.spans, label, pr);
    account(sc, r, label, pr);
    requests += r.samples.size();
    failed += failures(r);
    rungs.push_back(rung_of(sc, r));
    if (rate == 1200) {
      set_tail(pr, "sim_p50_ms", latencies(r, Ops::kAll), 0.50);
      set_tail(pr, "sim_p999_ms", latencies(r, Ops::kAll), 0.999);
    }
    if (rate == 1800) {
      set_tail(pr, "sim_p99_ms.r1800", latencies(r, Ops::kAll), 0.99);
      const Tail rd = percentile_or_throw(latencies(r, Ops::kReads), 0.99,
                                          "serve.read_p99_ms");
      const Tail wr = percentile_or_throw(latencies(r, Ops::kWrites), 0.99,
                                          "serve.write_p99_ms");
      pr.layers.set("serve.read_p99_ms", rd.value, "sim_ms");
      pr.layers.set("serve.write_p99_ms", wr.value, "sim_ms");
    }
    if (rate == 2400)
      pr.outcome.set("goodput_per_s", goodput(sc, r), "1/sim_s");
  }
  pr.outcome.set("max_rate_under_slo", max_rate_under_slo(rungs, Slo{}),
                 "1/sim_s");
  for (const Rung& g : rungs) {
    char note[200];
    std::snprintf(note, sizeof note,
                  "rung %.0f/s: p99 %.2f ms, failed share %.4f, quarter "
                  "medians %.2f -> %.2f ms, SLO %s",
                  g.rate, g.p99_ms, g.failed_share, g.first_q_p50_ms,
                  g.last_q_p50_ms, meets_slo(g, Slo{}) ? "met" : "missed");
    pr.notes.emplace_back(note);
  }
  pr.outcome.set("failed_share", failed_share(failed, requests), "share");
  return pr;
}

PassResult serve_faults_pass(const PassContext& ctx) {
  PassResult pr;
  Scenario sc;
  sc.rate = 800;
  sc.window = 14 * sim::kSecond;  // >= 10000 samples for p999, with margin
  // Staggered silent kills of servers on nodes 1, 3, 5, 7.
  sc.kill_at = {1 * sim::kSecond, 3500 * sim::kMillisecond,
                6 * sim::kSecond, 8500 * sim::kMillisecond};
  sc.slow_factor = 12.0;
  sc.seed = derive_seed(ctx.seed, 800);
  const ScenarioResult r = run_scenario(sc, ctx.spans, "r800_faults", pr);
  account(sc, r, "r800_faults", pr);
  set_tail(pr, "sim_p50_ms", latencies(r, Ops::kAll), 0.50);
  set_tail(pr, "sim_p999_ms", latencies(r, Ops::kAll), 0.999);
  pr.outcome.set("goodput_per_s", goodput(sc, r), "1/sim_s");
  pr.outcome.set("failed_share", failed_share(failures(r), r.samples.size()),
                 "share");
  pr.layers.set("rescue.detect_ms", median(r.detect_ms), "sim_ms");
  return pr;
}

}  // namespace perfbench
