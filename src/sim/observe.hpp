// Observation hooks for the correctness and observability tooling
// (bfly::analyze, bfly::moviola, bfly::scope).
//
// Every timed memory reference, every synchronization operation, every
// blocking wait and every tracing annotation in the stack is published to
// the Probes attached to the Machine, in attach order.  The hooks are
// strictly host-side: a probe may not perform timed operations, so an
// instrumented run is event-identical to a bare run (the
// uncharged-instrumentation invariant the tool tests assert against Instant
// Replay logs).  With no probe attached every hook is one empty-list test.
//
// Synchronization layers publish happens-before edges through *channels*:
// a release joins the releasing actor's knowledge into the channel, an
// acquire joins the channel into the acquiring actor.  Channel ids share
// one 64-bit namespace, partitioned by the helpers below:
//   * memory words (spin-lock cells, atomic counters) — chan_of(addr);
//   * Chrysalis objects (events, dual queues)         — chan_of_oid(oid);
//   * NET streams                                     — chan_of_stream(id).
#pragma once

#include <cstdint>
#include <string>

#include "sim/config.hpp"
#include "sim/time.hpp"

namespace bfly::sim {

class Fiber;

/// A physical address: (node, byte offset within that node's memory).
struct PhysAddr {
  NodeId node = 0;
  std::uint32_t offset = 0;

  PhysAddr plus(std::uint64_t delta) const {
    return PhysAddr{node, static_cast<std::uint32_t>(offset + delta)};
  }
  bool operator==(const PhysAddr&) const = default;
};

/// What kind of memory operation an on_access observation describes.
enum class MemOp : std::uint8_t {
  kRead,
  kWrite,
  /// PNC atomic read-modify-write (fetch_add, fetch_or, test_and_set).
  /// Marks the word as a synchronization cell: the memory module serializes
  /// word references, so a word managed by atomics orders its plain
  /// accesses too.
  kAtomic,
  /// access_words(): aggregate traffic accounting for tight loops.  These
  /// model reference *volume*, not individual data accesses, so detectors
  /// count them for contention but do not race-check them.
  kAggregate,
};

/// Channel id for a word-addressed synchronization cell.
constexpr std::uint64_t chan_of(PhysAddr a) {
  return (static_cast<std::uint64_t>(a.node) << 32) | a.offset;
}
/// Channel id for a Chrysalis kernel object (event, dual queue).
constexpr std::uint64_t chan_of_oid(std::uint32_t oid) {
  return (1ull << 62) | oid;
}
/// Channel id for a NET stream.
constexpr std::uint64_t chan_of_stream(std::uint32_t id) {
  return (2ull << 62) | id;
}

/// What kind of object a fiber blocked on.
enum class WaitKind : std::uint8_t {
  kEvent,      ///< Chrysalis event (binary semaphore)
  kDualQueue,  ///< Chrysalis dual queue dequeue
};

/// How a blocked fiber came back.
enum class WakeReason : std::uint8_t {
  kServed,   ///< a post/enqueue delivered a datum
  kTimeout,  ///< a timed wait expired with no data
};

/// What happened to a posted datum.
enum class PostOutcome : std::uint8_t {
  kHandoff,      ///< delivered straight to a blocked waiter
  kQueued,       ///< no waiter: queued (dual queue) or left pending (event)
  kOverwrote,    ///< event already pending: the previous datum is LOST
  kDroppedDead,  ///< the only candidate waiter died with its node; dropped
};

/// Pseudo-node id for trace events emitted from engine/host context (no
/// fiber running).  Real nodes are dense from 0, so the sentinel is safe.
inline constexpr NodeId kTraceHostNode = 0xffffffffu;

/// Host-side subscriber to everything the stack publishes: the memory and
/// happens-before stream (bfly::analyze), blocking and wait edges
/// (bfly::moviola), and tracing annotations (bfly::scope).  Every hook has
/// an empty default body, so a probe overrides only what it consumes.
///
/// All callbacks run in the context (fiber or engine) that performed the
/// operation and must not charge simulated time.  `f` is nullptr for
/// operations performed from engine/host context.
class Probe {
 public:
  virtual ~Probe() = default;

  // --- Memory and happens-before stream -------------------------------------

  /// One reference of `words` 32-bit words starting at `a`, issued by a
  /// fiber running on `requester`.
  virtual void on_access(Fiber* /*f*/, NodeId /*requester*/, PhysAddr /*a*/,
                         std::uint32_t /*words*/, MemOp /*op*/) {}
  /// A new fiber was created (parent is nullptr for host-spawned fibers).
  virtual void on_spawn(Fiber* /*parent*/, Fiber* /*child*/) {}
  /// Physical memory was returned to the allocator; shadow state for the
  /// range is stale (the allocator hands reused addresses to unrelated
  /// code, which must not inherit old epochs).
  virtual void on_free(PhysAddr /*a*/, std::size_t /*bytes*/) {}
  /// Happens-before edges published by synchronization layers.
  virtual void on_release(Fiber* /*f*/, std::uint64_t /*chan*/) {}
  virtual void on_acquire(Fiber* /*f*/, std::uint64_t /*chan*/) {}
  /// Symbolization: the runtimes name the shared objects they allocate so
  /// reports can say "US.outstanding" instead of "node 0 +0x10".
  virtual void on_label(PhysAddr /*a*/, std::size_t /*bytes*/,
                        std::string /*name*/) {}

  // --- Blocking and wait edges ----------------------------------------------

  /// `f` is about to block waiting on `chan` (a chan_of_oid channel).
  virtual void on_block(Fiber* /*f*/, std::uint64_t /*chan*/,
                        WaitKind /*kind*/) {}
  /// `f` returned from a blocking wait on `chan`.
  virtual void on_wake(Fiber* /*f*/, std::uint64_t /*chan*/,
                       WakeReason /*why*/) {}
  /// A post/enqueue to `chan` by `f` (nullptr from engine/host context).
  virtual void on_post(Fiber* /*f*/, std::uint64_t /*chan*/,
                       PostOutcome /*out*/) {}
  /// One failed spin-lock probe by `f` on `lock` (a chan_of channel).
  /// Spinners are runnable, not blocked — a starving spinner shows up as an
  /// ever-growing probe streak, never as a blocked fiber.
  virtual void on_spin(Fiber* /*f*/, std::uint64_t /*lock*/) {}
  /// `f` acquired (`held` true) or released (`held` false) spin lock
  /// `lock`.  Feeds lock-order lints and maps spin edges to holders; the
  /// mutual-exclusion edges themselves flow through the lock word.
  virtual void on_hold(Fiber* /*f*/, std::uint64_t /*lock*/,
                       bool /*held*/) {}

  // --- Tracing annotations --------------------------------------------------
  // `cat` and `name` are borrowed, not copied: annotation sites pass string
  // literals so that tracing allocates nothing on the simulated path.
  // Dynamic payloads travel in `arg`.

  /// Open a nested span on the calling track (`f`, or host when nullptr).
  virtual void on_span_begin(Fiber* /*f*/, NodeId /*node*/,
                             const char* /*cat*/, const char* /*name*/,
                             std::uint64_t /*arg*/) {}
  /// Close the innermost open span on the calling track.  Unmatched ends
  /// must be ignored (kill-unwinding can skip begins).
  virtual void on_span_end(Fiber* /*f*/, NodeId /*node*/) {}
  /// A point event on the calling track.
  virtual void on_instant(Fiber* /*f*/, NodeId /*node*/, const char* /*cat*/,
                          const char* /*name*/, std::uint64_t /*arg*/) {}
  /// One timed reference completed: `words` serviced by `home`'s memory
  /// module for a fiber on `requester`, of which `queue_ns` was spent
  /// queued behind other traffic at the module.  Richer than on_access
  /// (which fires before the module is reached and cannot see contention)
  /// — this feeds the occupancy / contention / locality time series.
  virtual void on_reference(NodeId /*requester*/, NodeId /*home*/,
                            std::uint32_t /*words*/, Time /*queue_ns*/,
                            MemOp /*op*/, Time /*at*/) {}
};

// Kept only because perfbench's LayerSink derives from it; new code
// subclasses Probe.
using TraceSink = Probe;

}  // namespace bfly::sim
