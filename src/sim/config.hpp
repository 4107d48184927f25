// Machine configuration profiles for the Butterfly family.
//
// The numbers below are calibrated against the paper (Section 2.1) and the
// Rochester Chrysalis benchmark report it cites (Dibble, BPR 18):
//   * a remote read on the Butterfly-I takes about 4 us, roughly 5x a local
//     reference;
//   * remote references *steal memory cycles* from the node that owns the
//     memory (modelled by a per-module service occupancy that every
//     reference, local or remote, must acquire);
//   * switch contention is nearly negligible (Rettberg & Thomas), so link
//     occupancy modelling is available but off by default;
//   * the Butterfly Plus improved local references ~4x and remote ~2x, and
//     added an MC68881 FPU (the Butterfly-I used software floating point
//     until the 1986 daughter-board upgrade).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace bfly::sim {

/// Identifies one processing node (processor + memory module).
using NodeId = std::uint32_t;

/// Which synchronization primitives the runtime layers default to.  The
/// 1988 style (centralized spin locks, one hot completion counter) is what
/// the paper's software actually did; the scalable style (MCS queue locks,
/// combining-tree barriers, per-node distributed counters — see src/sync)
/// is what the Ultracomputer -> exascale line of work replaced it with.
/// Only layers that consult it change behaviour; the machine model itself
/// is identical under both.
enum class SyncStrategy : std::uint8_t {
  kCentral1988,  ///< hot-word spin locks and counters, as on the Butterfly
  kScalable,     ///< MCS / combining-tree / distributed-counter primitives
};

struct MachineConfig {
  /// Number of processing nodes; Rochester's machine had 128 (max 256).
  std::uint32_t nodes = 128;

  /// Memory per node in bytes.  The Butterfly-I shipped with 1 MB per node
  /// (4 MB with extra boards); Rochester's 128-node machine totalled 120 MB.
  std::size_t memory_per_node = 1u << 20;

  // --- Memory reference timing -------------------------------------------
  /// Processor-side overhead of issuing any reference (address generation,
  /// PNC interpretation).
  Time issue_overhead_ns = 300;
  /// Occupancy of the home memory module per 32-bit word.  Both local and
  /// remote references hold the module for this long; queueing behind a busy
  /// module is what makes remote traffic steal cycles from the home CPU.
  Time module_service_ns = 500;
  /// One direction through one switch stage.
  Time switch_hop_ns = 400;
  /// Per-word streaming cost for microcoded block transfers (beyond the
  /// first word, which pays full round-trip latency).  The PNC could stream
  /// roughly one word per microsecond.
  Time block_word_ns = 1000;

  // --- Processor timing ----------------------------------------------------
  /// Cost of one "unit" of ALU/integer work (roughly one 68000 register
  /// instruction at 8 MHz: ~4 cycles = 500 ns).
  Time int_op_ns = 500;
  /// Cost of one floating-point operation.  Software floating point on the
  /// 8 MHz 68000 is on the order of 50-100 us per double-precision op; the
  /// MC68881 daughter board brought this to a few microseconds.
  Time flop_ns = 60 * kMicrosecond;

  // --- Switch contention (off by default; see Rettberg & Thomas) ----------
  bool model_switch_contention = false;
  /// Per-word occupancy of one switch output port when contention modelling
  /// is enabled (32 Mbit/s per path => ~1 us per 32-bit word).
  Time switch_port_service_ns = 1000;
  /// Ultracomputer-style combining of fetch-and-adds that meet at a switch
  /// stage (Gottlieb et al.).  Only meaningful together with
  /// model_switch_contention: combining exists to relieve the hot-spot
  /// tree saturation that the contention model creates.  Off by default so
  /// existing contention runs keep their exact timing.
  bool switch_combining = false;

  // --- Synchronization strategy (consulted by src/sync and the US) --------
  /// Which primitive family runtime layers pick when offered a choice (the
  /// Uniform System's completion counter, sync::make_* helpers).
  SyncStrategy sync_strategy = SyncStrategy::kCentral1988;

  // --- Operating system cost knobs (used by the Chrysalis layer) ----------
  /// Mapping or unmapping one segment costs "over 1 ms" (Section 2.1).
  Time sar_map_ns = 1200 * kMicrosecond;
  /// Entering+leaving a Chrysalis catch block costs about 70 us.
  Time catch_enter_ns = 35 * kMicrosecond;
  Time catch_leave_ns = 35 * kMicrosecond;
  /// Microcoded event / dual-queue primitives complete in tens of us.
  Time event_post_ns = 20 * kMicrosecond;
  Time event_wait_ns = 25 * kMicrosecond;
  Time dq_enqueue_ns = 30 * kMicrosecond;
  Time dq_dequeue_ns = 35 * kMicrosecond;
  /// Heavyweight process creation: milliseconds of local work plus a
  /// serialized critical section on the global process-template resource
  /// (the serialization the Crowd Control lesson is about).
  Time proc_create_local_ns = 3 * kMillisecond;
  Time proc_create_serial_ns = 1 * kMillisecond;
  /// Context switch between Chrysalis processes on one node.
  Time proc_switch_ns = 100 * kMicrosecond;
  /// Coroutine (lightweight thread) switch inside one process.
  Time thread_switch_ns = 30 * kMicrosecond;

  // --- SAR architecture -----------------------------------------------------
  /// SARs per node; Chrysalis hands them out in buddy-system blocks of
  /// 8/16/32/64/128/256.
  std::uint32_t sars_per_node = 512;
  std::uint32_t max_segments_per_process = 256;
  /// Maximum size of one segment (16-bit offset).
  std::size_t segment_limit = 1u << 16;

  /// Fiber stack size for simulated processes (host resource, not modelled).
  std::size_t fiber_stack_bytes = 192 * 1024;

  /// Host-side fast path in Machine::charge(): when no pending event could
  /// observably interleave, warp the clock instead of context-switching
  /// through the engine (see DESIGN.md "Host performance model").  Purely a
  /// host optimization — simulated behaviour is bit-for-bit identical, which
  /// the fast-path determinism suite asserts.  Set false for A/B
  /// comparison runs.
  bool host_fastpath = true;

  /// RNG seed for any randomized machine behaviour (fully deterministic).
  std::uint64_t seed = 0x5eed5eedULL;
};

/// The original Butterfly-I as installed at Rochester in 1985.
inline MachineConfig butterfly1(std::uint32_t nodes = 128) {
  MachineConfig c;
  c.nodes = nodes;
  return c;
}

/// Butterfly-I with the 1986 MC68020 + MC68881 floating-point daughter
/// board (Rochester upgraded 16 nodes).
inline MachineConfig butterfly1_fpu(std::uint32_t nodes = 16) {
  MachineConfig c;
  c.nodes = nodes;
  c.flop_ns = 6 * kMicrosecond;
  return c;
}

/// The Butterfly Plus (Butterfly 1000 hardware): local references improved
/// by ~4x, remote by ~2x, hardware FP and paged memory management.
inline MachineConfig butterfly_plus(std::uint32_t nodes = 128) {
  MachineConfig c;
  c.nodes = nodes;
  c.issue_overhead_ns = 75;
  c.module_service_ns = 125;
  c.switch_hop_ns = 200;
  c.block_word_ns = 500;
  c.int_op_ns = 125;
  c.flop_ns = 4 * kMicrosecond;
  c.sar_map_ns = 300 * kMicrosecond;  // paged MMU, no explicit SAR juggling
  // Operating-system paths ride the 4x faster local processor.
  c.catch_enter_ns = 9 * kMicrosecond;
  c.catch_leave_ns = 9 * kMicrosecond;
  c.event_post_ns = 5 * kMicrosecond;
  c.event_wait_ns = 7 * kMicrosecond;
  c.dq_enqueue_ns = 8 * kMicrosecond;
  c.dq_dequeue_ns = 9 * kMicrosecond;
  c.proc_create_local_ns = 800 * kMicrosecond;
  c.proc_create_serial_ns = 250 * kMicrosecond;
  c.proc_switch_ns = 25 * kMicrosecond;
  c.thread_switch_ns = 8 * kMicrosecond;
  return c;
}

/// A deliberately anachronistic profile for the scalable-synchronization
/// story (ROADMAP item 2): per-node compute runs at hundreds of MIPS while
/// the interconnect keeps multi-hop switch latencies, so the remote:local
/// ratio grows from the Butterfly's ~5-15x to ~100x.  This is the regime
/// the Ultracomputer -> exascale survey traces, where a centralized spin
/// lock or counter saturates its home module long before 16K nodes while
/// MCS locks, combining trees, and per-node counters keep scaling.  Local
/// reference: 5 + 10 = 15 ns; remote: 5 + 2x(6x150) + 10 ~ 1.8 us at 4K
/// nodes.  Selects the scalable primitives by default; benches A/B against
/// the 1988 ones by flipping sync_strategy back.
inline MachineConfig exascale_ish(std::uint32_t nodes = 4096) {
  MachineConfig c;
  c.nodes = nodes;
  c.memory_per_node = 1u << 20;
  c.issue_overhead_ns = 5;
  c.module_service_ns = 10;
  c.switch_hop_ns = 150;
  c.block_word_ns = 4;
  c.int_op_ns = 2;
  c.flop_ns = 4;
  c.switch_port_service_ns = 40;
  c.sar_map_ns = 20 * kMicrosecond;
  c.catch_enter_ns = kMicrosecond;
  c.catch_leave_ns = kMicrosecond;
  c.event_post_ns = 2 * kMicrosecond;
  c.event_wait_ns = 3 * kMicrosecond;
  c.dq_enqueue_ns = 3 * kMicrosecond;
  c.dq_dequeue_ns = 4 * kMicrosecond;
  c.proc_create_local_ns = 50 * kMicrosecond;
  c.proc_create_serial_ns = 20 * kMicrosecond;
  c.proc_switch_ns = 5 * kMicrosecond;
  c.thread_switch_ns = kMicrosecond;
  c.sync_strategy = SyncStrategy::kScalable;
  // Thousands of fibers per run: keep host stacks lean (lazily committed,
  // so resident cost tracks actual use).
  c.fiber_stack_bytes = 64 * 1024;
  return c;
}

}  // namespace bfly::sim
