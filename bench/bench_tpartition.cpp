// TPARTITION — serving through switch-level fault domains: a dead switch
// card, then a full 50/50 network partition, then the heal.
//
// The paper's Butterfly was "rarely fully operational", and the failures
// were not only node deaths: switch cards and inter-stage links died too,
// taking *paths* away while every node stayed alive.  This bench drives a
// replicated serving workload through exactly that progression:
//
//   part 1 (clean):  fault-free baseline on a 16-node machine, 8 Bridge
//                    servers, 3 replicas, open-loop clients, 70/30
//                    read/write mix.
//   part 2 (card):   one stage-0 switch card dies mid-run.  The redundant
//                    extra column routes every affected reference around
//                    the corpse at the cost of one extra hop.  Gates: the
//                    detour is taken (alt_routed > 0), nothing becomes
//                    unreachable, nobody is suspected, and goodput and p50
//                    stay at the baseline — a single dead card must be
//                    invisible except for the +1 hop.
//   part 3 (split):  the machine splits 50/50 (even nodes vs odd nodes)
//                    for a fixed window, then heals.  Replicas of each
//                    block land on 3 consecutive servers, so every block
//                    has a 2-replica (majority) side and a 1-replica
//                    (minority) side.  Gates: writes on the minority side
//                    are refused (no split-brain acks — checked per
//                    request against the placement map), majority-side
//                    service holds >= 60% of fault-free goodput, the
//                    membership layer parks the far side in
//                    suspected_unreachable instead of excising it and
//                    restores it after the heal, the heal replays the
//                    dirty log through the majority vote, and a full
//                    read-back finds every acked write intact: zero acked
//                    writes lost.
//   part 4 (replay): part 3 runs twice with the same seeds; elapsed time,
//                    every counter, and the content hash must be equal —
//                    the partition machinery sits inside the deterministic
//                    envelope (Instant Replay holds).
//
// Fully deterministic: fixed fault plans, seeded PRNGs, simulated time.
// Output: human tables, one JSON line per run, and the row set again in
// BENCH_partition.json (override: BFLY_PARTITION_OUT).  Exits nonzero when
// a gate fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "serve/serve.hpp"
#include "sim/json.hpp"

using namespace bfly;

namespace {

constexpr std::uint32_t kServers = 8;
constexpr std::uint32_t kFiles = 2;
constexpr std::uint32_t kBlocksPerFile = 32;
constexpr std::uint32_t kBlocks = kFiles * kBlocksPerFile;
constexpr std::uint32_t kWorkers = 16;
// Setup (file seeding, daemons, worker creation) must finish before kWarm
// so the fault plan's absolute times land at fixed workload offsets.
const sim::Time kWarm = 1500 * sim::kMillisecond;

bridge::DiskParams serving_disk() {
  bridge::DiskParams d;
  d.seek_ns = 2 * sim::kMillisecond;
  d.block_transfer_ns = 1 * sim::kMillisecond;
  return d;
}

struct Scenario {
  const char* part;    // "clean" | "card" | "split" | "split-replay"
  double offered;      // total offered load, ops per simulated second
  sim::Time duration;  // measurement window
  bool card_fail;      // kill one stage-0 switch card mid-run
  bool split;          // 50/50 partition window mid-run
  std::uint64_t seed;
};

// Partition window, relative to kWarm (absolute times in the plan).
const sim::Time kCutStart = kWarm + 1 * sim::kSecond;
sim::Time cut_heal(const Scenario& sc) {
  return kWarm + sc.duration - 1500 * sim::kMillisecond;
}

struct RunResult {
  sim::Time elapsed = 0;
  sim::Time setup = 0;
  std::uint64_t ok = 0;
  std::uint64_t noquorum = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t other = 0;        // shed / noreplica
  std::uint64_t ok_in_cut = 0;    // completions inside the cut window
  std::uint64_t minority_acks = 0;  // split-brain acks (must stay 0)
  std::uint64_t verify_fail = 0;  // read-back mismatches (acked-write loss)
  std::uint64_t verified = 0;     // acked blocks read back
  std::uint64_t content_hash = 0;
  std::vector<sim::Time> resp;
  serve::ServeCounters counters;
  std::uint64_t suspects = 0;
  std::uint64_t suspects_unreachable = 0;
  std::uint64_t unreachable_restored = 0;
  std::uint64_t alt_routed = 0;
  std::uint64_t net_unreachable_refs = 0;
  std::string fault_json;
  bool deadlocked = true;
};

// Deterministic block content for salt s of block (f, b).
void fill_block(std::vector<std::uint8_t>& blk, std::uint32_t f,
                std::uint32_t b, std::uint32_t salt) {
  blk.assign(bridge::kBlockSize, 0);
  for (std::size_t i = 0; i < blk.size(); ++i)
    blk[i] = static_cast<std::uint8_t>(
        (f * 131 + b * 37 + salt * 17 + i * 11) % 251);
}

sim::Time exp_gap(sim::Rng& rng, double mean_s) {
  double g = -mean_s * std::log(1.0 - rng.uniform());
  g = std::min(g, 50.0 * mean_s);
  const double ns = g * static_cast<double>(sim::kSecond);
  const auto t = static_cast<sim::Time>(ns);
  return std::max<sim::Time>(t, 10 * sim::kMicrosecond);
}

RunResult run_partition(const Scenario& sc) {
  sim::FaultPlan plan;
  if (sc.card_fail) {
    // Stage 0 is the detour-friendly column: its cards are selected by a
    // *source* digit, so entering the banyan at a different input row (the
    // redundant extra column) walks around the corpse.
    plan.fail_card(0, 1, kWarm + 500 * sim::kMillisecond);
  }
  if (sc.split) {
    std::vector<sim::NodeId> even, odd;
    for (sim::NodeId n = 0; n < 16; ++n) (n % 2 ? odd : even).push_back(n);
    plan.partition(even, odd, kCutStart, cut_heal(sc));
  }
  sim::Machine m(sim::butterfly1(16), plan);
  chrys::Kernel k(m);
  RunResult r;
  std::uint32_t workers_done = 0;

  // Last acked salt per logical block, 0 = never acked.  Each block has
  // exactly one writer, so no entry is ever raced.
  std::vector<std::uint32_t> acked_salt(kBlocks, 0);

  k.create_process(15, [&] {
    bridge::BridgeFs fs(k, kServers, serving_disk());
    {
      rescue::RescueConfig rc;
      rc.monitor_node = 14;
      rc.heartbeat_period = 10 * sim::kMillisecond;
      rc.suspect_after = 50 * sim::kMillisecond;
      rescue::Membership mem(k, rc);
      serve::ReplicatedFs rfs(k, fs, &mem);
      bridge::FileId files[kFiles];
      std::vector<std::uint8_t> blk;
      for (std::uint32_t f = 0; f < kFiles; ++f) {
        files[f] = rfs.open("part" + std::to_string(f), kBlocksPerFile);
        for (std::uint32_t b = 0; b < kBlocksPerFile; ++b) {
          fill_block(blk, f, b, 0);
          rfs.write(files[f], b, blk.data());
        }
      }
      // Placement map: how many replicas of each block live on even-parity
      // *nodes* — the even side of the split.  3 consecutive servers means
      // every block is 2/1 or 1/2, never 3/0.
      std::vector<std::uint8_t> even_replicas(kBlocks, 0);
      for (std::uint32_t f = 0; f < kFiles; ++f)
        for (std::uint32_t b = 0; b < kBlocksPerFile; ++b)
          for (std::uint32_t rep = 0; rep < 3; ++rep)
            if (fs.server_node(rfs.replica_server(files[f], b, rep)) % 2 == 0)
              ++even_replicas[f * kBlocksPerFile + b];
      mem.start();
      rfs.start_repair(13);
      const sim::Time t_end = kWarm + sc.duration;
      const sim::Time heal_at = cut_heal(sc);
      for (std::uint32_t w = 0; w < kWorkers; ++w) {
        k.create_process(8 + w % 8, [&, w] {
          sim::Rng rng(sc.seed * 1000003ULL + w);
          std::vector<std::uint8_t> wblk, back(bridge::kBlockSize);
          const bool even_side = (8 + w % 8) % 2 == 0;
          // Disjoint write ranges: worker w owns blocks w, w+16, w+32, ...
          std::uint32_t salt = 0;
          const double mean_gap_s = kWorkers / sc.offered;
          if (m.now() < kWarm) k.delay(kWarm - m.now());
          sim::Time next = kWarm;
          for (;;) {
            next += exp_gap(rng, mean_gap_s);
            if (next >= t_end) break;
            if (m.now() < next) k.delay(next - m.now());
            const bool is_write = rng.below(10) < 3;
            std::uint32_t blkno;
            if (is_write) {
              blkno = w + kWorkers * static_cast<std::uint32_t>(
                                         rng.below(kBlocks / kWorkers));
            } else {
              blkno = static_cast<std::uint32_t>(rng.below(kBlocks));
            }
            const std::uint32_t f = blkno / kBlocksPerFile;
            const std::uint32_t b = blkno % kBlocksPerFile;
            const sim::Time issue = m.now();
            serve::Status st;
            if (is_write) {
              ++salt;
              fill_block(wblk, f, b, salt);
              st = rfs.write(files[f], b, wblk.data());
              if (st == serve::Status::kOk) acked_salt[blkno] = salt;
            } else {
              st = rfs.read(files[f], b, back.data());
            }
            const sim::Time done = m.now();
            r.resp.push_back(done - next);
            const bool in_cut =
                sc.split && issue >= kCutStart && done <= heal_at;
            switch (st) {
              case serve::Status::kOk:
                ++r.ok;
                if (in_cut) {
                  ++r.ok_in_cut;
                  if (is_write) {
                    const bool on_even_majority = even_replicas[blkno] >= 2;
                    if (even_side != on_even_majority) ++r.minority_acks;
                  }
                }
                break;
              case serve::Status::kNoQuorum: ++r.noquorum; break;
              case serve::Status::kTimeout: ++r.timeouts; break;
              default: ++r.other; break;
            }
          }
          ++workers_done;
        });
      }
      if (m.now() < kWarm) k.delay(kWarm - m.now());
      r.setup = m.now();
      while (workers_done < kWorkers) k.delay(20 * sim::kMillisecond);
      // Let the heal-driven reconciliation drain before the audit.
      for (int i = 0; i < 1000 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
      // Zero-acked-write-loss audit: every block whose writer got an ack
      // must read back as the *last* acked salt — a split-brain ack or a
      // reconciliation that picked the wrong side both fail here.
      std::vector<std::uint8_t> back(bridge::kBlockSize), expect;
      std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
      for (std::uint32_t blkno = 0; blkno < kBlocks; ++blkno) {
        if (acked_salt[blkno] == 0) continue;
        const std::uint32_t f = blkno / kBlocksPerFile;
        const std::uint32_t b = blkno % kBlocksPerFile;
        ++r.verified;
        if (rfs.read(files[f], b, back.data()) != serve::Status::kOk) {
          ++r.verify_fail;
          continue;
        }
        fill_block(expect, f, b, acked_salt[blkno]);
        if (back != expect) ++r.verify_fail;
        for (const std::uint8_t byte : back)
          h = (h ^ byte) * 1099511628211ULL;
      }
      r.content_hash = h;
      r.counters = rfs.counters();
      mem.stop();
      rfs.stop_repair();
      for (int i = 0; i < 100 && !rfs.repair_idle(); ++i)
        k.delay(10 * sim::kMillisecond);
    }
    fs.shutdown();
  });
  r.elapsed = m.run();
  r.deadlocked = m.deadlocked();
  r.suspects = m.stats().suspects_declared;
  r.suspects_unreachable = m.stats().suspects_unreachable;
  r.unreachable_restored = m.stats().unreachable_restored;
  r.alt_routed = m.stats().alt_routed;
  r.net_unreachable_refs = m.stats().net_unreachable_refs;
  r.fault_json = m.stats().fault_json();
  return r;
}

double pct_ms(std::vector<sim::Time>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return bench::seconds(v[i]) * 1e3;
}

double goodput(const RunResult& r, const Scenario& sc) {
  return static_cast<double>(r.ok) / bench::seconds(sc.duration);
}

/// Goodput inside the cut window alone (the degraded-mode number the 60%
/// gate judges).
double cut_goodput(const RunResult& r, const Scenario& sc) {
  const double win = bench::seconds(cut_heal(sc) - kCutStart);
  return win > 0 ? static_cast<double>(r.ok_in_cut) / win : 0.0;
}

using bench::g_rows;
using bench::gate;

std::string row_json(const Scenario& sc, RunResult& r) {
  sim::json::Writer jw;
  jw.begin_object()
      .kv("bench", "tpartition")
      .kv("part", sc.part)
      .kv("offered_per_s", sc.offered)
      .kv("duration_s", bench::seconds(sc.duration))
      .kv("ops", static_cast<std::uint64_t>(r.resp.size()))
      .kv("ok", r.ok)
      .kv("noquorum", r.noquorum)
      .kv("timeouts", r.timeouts)
      .kv("other", r.other)
      .kv("goodput_per_s", goodput(r, sc))
      .kv("cut_goodput_per_s", cut_goodput(r, sc))
      .kv("p50_ms", pct_ms(r.resp, 0.50))
      .kv("p99_ms", pct_ms(r.resp, 0.99))
      .kv("minority_acks", r.minority_acks)
      .kv("verified", r.verified)
      .kv("verify_fail", r.verify_fail)
      .kv("suspects", r.suspects)
      .kv("dirty_logged", r.counters.dirty_logged)
      .kv("reconciled", r.counters.reconciled)
      .kv("quorum_rejects", r.counters.quorum_rejects)
      .kv("setup_s", bench::seconds(r.setup))
      .kv("elapsed_s", bench::seconds(r.elapsed))
      // Carries alt_routed, suspects_unreachable and unreachable_restored,
      // so the row must not repeat them.
      .raw(r.fault_json)
      .end_object();
  return jw.str();
}

void emit(const Scenario& sc, RunResult& r) {
  gate(r.setup == kWarm, "setup must finish inside the warmup window");
  std::printf("%12s %9.0f %9.0f %9.0f %8.1f %8.1f %6llu %6llu %6llu\n",
              sc.part, sc.offered, goodput(r, sc), cut_goodput(r, sc),
              pct_ms(r.resp, 0.50), pct_ms(r.resp, 0.99),
              static_cast<unsigned long long>(r.noquorum),
              static_cast<unsigned long long>(r.counters.reconciled),
              static_cast<unsigned long long>(r.verify_fail));
  const std::string row = row_json(sc, r);
  std::printf("%s\n", row.c_str());
  g_rows.push_back(row);
}

}  // namespace

int main() {
  const bool fast = bench::fast_mode();
  bench::header("TPARTITION",
                "switch-card death, 50/50 partition, heal — under load",
                "switch hardware fails independently of nodes; the machine "
                "must route around a dead card and a split must degrade to "
                "majority-quorum service, not split-brain");

  std::printf("\n16-node Butterfly, %u Bridge servers, 3 replicas, %u "
              "open-loop workers, 70/30 read/write\nover %u blocks; "
              "partition splits even vs odd nodes, every block 2/1 across "
              "the cut\n",
              kServers, kWorkers, kBlocks);
  std::printf("\n%12s %9s %9s %9s %8s %8s %6s %6s %6s\n", "part", "offered/s",
              "goodput/s", "cut-gp/s", "p50ms", "p99ms", "noquo", "recon",
              "vfail");

  const double offered = fast ? 300 : 500;
  const sim::Time dur_short = (fast ? 2 : 3) * sim::kSecond;
  const sim::Time dur_split = (fast ? 4 : 6) * sim::kSecond;

  // --- part 1: clean baseline ----------------------------------------------
  const Scenario clean{"clean", offered, dur_short, false, false, 41};
  RunResult rc = run_partition(clean);
  gate(!rc.deadlocked, "clean run must not deadlock");
  gate(rc.verify_fail == 0, "clean: every acked write must read back");
  gate(rc.alt_routed == 0, "clean: no detours without a dead card");
  gate(rc.net_unreachable_refs == 0, "clean: nothing is unreachable");
  const double clean_gp = goodput(rc, clean);
  const double clean_p50 = pct_ms(rc.resp, 0.50);
  emit(clean, rc);

  // --- part 2: one dead switch card ----------------------------------------
  const Scenario card{"card", offered, dur_short, true, false, 41};
  RunResult rcard = run_partition(card);
  gate(!rcard.deadlocked, "card run must not deadlock");
  gate(rcard.alt_routed > 0, "a dead card must force alternate paths");
  gate(rcard.net_unreachable_refs == 0,
       "one dead stage-0 card must leave every node reachable");
  gate(rcard.suspects == 0 && rcard.suspects_unreachable == 0,
       "a routed-around card must be invisible to membership");
  gate(rcard.verify_fail == 0, "card: every acked write must read back");
  gate(goodput(rcard, card) >= 0.95 * clean_gp,
       "goodput with a dead card must stay >= 95% of clean");
  gate(pct_ms(rcard.resp, 0.50) <= 1.25 * clean_p50 + 0.5,
       "p50 with a dead card must stay near clean (+1 hop only)");
  emit(card, rcard);

  // --- part 3: 50/50 partition and heal ------------------------------------
  const Scenario split{"split", offered, dur_split, false, true, 41};
  RunResult rs = run_partition(split);
  gate(!rs.deadlocked, "split run must not deadlock");
  gate(rs.minority_acks == 0, "no write may ack on the minority side");
  gate(rs.noquorum > 0, "minority-side writes must be refused, not lost");
  gate(rs.suspects == 0,
       "a partition must not excise anyone — the far side is alive");
  gate(rs.suspects_unreachable > 0,
       "membership must park the far side in suspected_unreachable");
  gate(rs.unreachable_restored > 0,
       "healed nodes must be restored to full membership");
  gate(rs.counters.dirty_logged > 0,
       "majority-side acks with a cut-off arm must be dirty-logged");
  gate(rs.counters.reconciled > 0,
       "the heal must replay the dirty log through the majority vote");
  gate(rs.verify_fail == 0,
       "zero acked writes lost across partition and heal");
  gate(rs.counters.lost_blocks == 0, "no block may lose every replica");
  gate(cut_goodput(rs, split) >= 0.60 * clean_gp,
       "goodput inside the cut must stay >= 60% of fault-free");
  emit(split, rs);

  // --- part 4: determinism (Instant Replay envelope) -----------------------
  RunResult rs2 = run_partition(split);
  gate(rs2.elapsed == rs.elapsed, "replay: elapsed time must be equal");
  gate(rs2.ok == rs.ok && rs2.noquorum == rs.noquorum &&
           rs2.timeouts == rs.timeouts,
       "replay: status counts must be equal");
  gate(rs2.content_hash == rs.content_hash,
       "replay: final content hash must be equal");
  gate(rs2.counters.dirty_logged == rs.counters.dirty_logged &&
           rs2.counters.reconciled == rs.counters.reconciled &&
           rs2.counters.quorum_rejects == rs.counters.quorum_rejects,
       "replay: partition counters must be equal");
  Scenario replay = split;
  replay.part = "split-replay";
  emit(replay, rs2);

  // --- BENCH_partition.json ------------------------------------------------
  bench::write_rows("tpartition", "fast", fast, "BFLY_PARTITION_OUT",
                    "BENCH_partition.json");

  std::printf(
      "\nshape check: a dead stage-0 card costs one extra hop and nothing\n"
      "else; the 50/50 split turns ~half the writes into quorum refusals\n"
      "while reads and majority writes keep flowing; the heal restores\n"
      "membership and replays the dirty log, and the audit finds every\n"
      "acked write -- no split-brain, no silent loss, bit-equal replays.\n");
  if (bench::gates_failed()) return 1;
  std::printf("\nall gates passed\n");
  return 0;
}
