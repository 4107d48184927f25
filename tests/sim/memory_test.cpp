#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "sim/machine.hpp"

namespace bfly::sim {
namespace {

// Runs `body` on node `n` of machine `m` and completes the run.
void on_node(Machine& m, NodeId n, std::function<void()> body) {
  m.spawn(n, std::move(body));
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Memory, LocalReadCosts800ns) {
  Machine m(butterfly1(128));
  PhysAddr a = m.alloc(0, 64);
  Time dt = 0;
  on_node(m, 0, [&] {
    const Time t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    dt = m.now() - t0;
  });
  EXPECT_EQ(dt, 800u);  // 300 issue + 500 module service
}

TEST(Memory, RemoteReadIsFiveTimesLocal) {
  Machine m(butterfly1(128));
  PhysAddr a = m.alloc(5, 64);
  Time dt = 0;
  on_node(m, 0, [&] {
    const Time t0 = m.now();
    (void)m.read<std::uint32_t>(a);
    dt = m.now() - t0;
  });
  EXPECT_EQ(dt, 4000u);  // the paper's "about 4 us, roughly five times local"
}

TEST(Memory, WriteReadRoundTripsData) {
  Machine m(butterfly1(8));
  PhysAddr a = m.alloc(3, 128);
  std::uint64_t got = 0;
  on_node(m, 1, [&] {
    m.write<std::uint64_t>(a, 0xdeadbeefcafef00dULL);
    got = m.read<std::uint64_t>(a.plus(0));
  });
  EXPECT_EQ(got, 0xdeadbeefcafef00dULL);
}

TEST(Memory, RemoteTrafficStealsCyclesFromHomeNode) {
  // The paper: "remote references steal memory cycles from the local
  // processor".  A node hammered by remote readers must see its own local
  // references slow down.
  auto run_victim = [](bool hammer) {
    Machine m(butterfly1(64));
    PhysAddr local = m.alloc(0, 64);
    PhysAddr shared = m.alloc(0, 64);  // lives on the victim's node
    Time victim_time = 0;
    m.spawn(0, [&] {
      const Time t0 = m.now();
      for (int i = 0; i < 200; ++i) (void)m.read<std::uint32_t>(local);
      victim_time = m.now() - t0;
    });
    if (hammer) {
      for (NodeId n = 1; n <= 32; ++n) {
        m.spawn(n, [&m, shared] {
          for (int i = 0; i < 100; ++i) (void)m.read<std::uint32_t>(shared);
        });
      }
    }
    m.run();
    return victim_time;
  };
  const Time quiet = run_victim(false);
  const Time contended = run_victim(true);
  EXPECT_EQ(quiet, 200u * 800u);
  EXPECT_GT(contended, quiet * 3) << "home module occupancy must stall the "
                                     "local processor under remote load";
}

TEST(Memory, AtomicFetchAdd) {
  Machine m(butterfly1(16));
  PhysAddr ctr = m.alloc(7, 8);
  on_node(m, 0, [&] { m.write<std::uint32_t>(ctr, 0); });
  for (NodeId n = 0; n < 16; ++n)
    m.spawn(n, [&m, ctr] {
      for (int i = 0; i < 10; ++i) (void)m.fetch_add_u32(ctr, 1);
    });
  m.run();
  EXPECT_EQ(m.peek<std::uint32_t>(ctr), 160u);
}

TEST(Memory, TestAndSetReturnsPreviousValue) {
  Machine m(butterfly1(4));
  PhysAddr lock = m.alloc(2, 8);
  std::uint32_t first = 99, second = 99;
  on_node(m, 0, [&] {
    first = m.test_and_set(lock);
    second = m.test_and_set(lock);
  });
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);
}

TEST(Memory, BlockCopyMovesBytesAndIsCheaperPerWord) {
  Machine m(butterfly1(128));
  constexpr std::size_t kBytes = 4096;
  PhysAddr src = m.alloc(9, kBytes);
  PhysAddr dst = m.alloc(0, kBytes);
  std::vector<std::uint8_t> pattern(kBytes);
  for (std::size_t i = 0; i < kBytes; ++i) pattern[i] = static_cast<std::uint8_t>(i * 7);
  m.poke_bytes(src, pattern.data(), kBytes);

  Time block_time = 0, word_time = 0;
  m.spawn(0, [&] {
    Time t0 = m.now();
    m.block_copy(dst, src, kBytes);
    block_time = m.now() - t0;
    t0 = m.now();
    for (std::size_t w = 0; w < kBytes / 4; ++w)
      (void)m.read<std::uint32_t>(src.plus(4 * w));
    word_time = m.now() - t0;
  });
  m.run();

  std::vector<std::uint8_t> got(kBytes);
  m.peek_bytes(got.data(), dst, kBytes);
  EXPECT_EQ(got, pattern);
  EXPECT_LT(block_time * 3, word_time)
      << "microcoded block transfer must be much cheaper than word-at-a-time "
         "remote reads (this underlies the paper's 42% Hough improvement)";
}

TEST(Memory, BlockCopyHandlesOverlapAndBackingGrowth) {
  Machine m(butterfly1(2));
  constexpr std::size_t kBytes = 4096;
  const PhysAddr base = m.alloc(0, 256 * 1024);
  std::vector<std::uint8_t> model(256 * 1024);
  for (std::size_t i = 0; i < 3 * kBytes; ++i)
    model[i] = static_cast<std::uint8_t>(i * 13 + 5);
  m.poke_bytes(base, model.data(), 3 * kBytes);
  // The far destination lies past everything touched so far, so the copy
  // must grow node 0's backing while its source sits on the same node.
  const std::size_t far = 200 * 1024;
  on_node(m, 0, [&] {
    // Overlapping ranges on one node, dst after src and then dst before.
    m.block_copy(base.plus(1000), base, kBytes);
    m.block_copy(base.plus(2 * kBytes), base.plus(2 * kBytes + 24), kBytes);
    m.block_copy(base.plus(far), base.plus(8), kBytes);
  });
  std::memmove(&model[1000], &model[0], kBytes);
  std::memmove(&model[2 * kBytes], &model[2 * kBytes + 24], kBytes);
  std::memmove(&model[far], &model[8], kBytes);
  std::vector<std::uint8_t> got(model.size());
  m.peek_bytes(got.data(), base, got.size());
  EXPECT_EQ(got, model);
}

TEST(Memory, AllocatorReusesFreedBlocks) {
  Machine m(butterfly1(2));
  PhysAddr a = m.alloc(0, 100);
  m.free(a, 100);
  PhysAddr b = m.alloc(0, 100);
  EXPECT_EQ(a, b);  // first fit re-uses the freed block
}

TEST(Memory, FreeListChurnStaysBounded) {
  // Regression: free() used to append blocks without coalescing, so
  // alloc/free churn at one size grew the free list without bound.
  Machine m(butterfly1(2));
  for (int i = 0; i < 1000; ++i) {
    PhysAddr a = m.alloc(0, 48);
    m.free(a, 48);
    ASSERT_LE(m.free_blocks_on(0), 1u) << "iteration " << i;
  }
  EXPECT_EQ(m.allocated_on(0), 0u);
}

TEST(Memory, AdjacentFreeBlocksCoalesce) {
  Machine m(butterfly1(2));
  PhysAddr a = m.alloc(0, 64);
  PhysAddr b = m.alloc(0, 64);
  PhysAddr c = m.alloc(0, 64);
  // Free out of order: middle, then both neighbours — every merge direction
  // (with predecessor, with successor, bridging) is exercised.
  m.free(b, 64);
  EXPECT_EQ(m.free_blocks_on(0), 1u);
  m.free(a, 64);
  EXPECT_EQ(m.free_blocks_on(0), 1u);  // a merged in front of b
  m.free(c, 64);
  EXPECT_EQ(m.free_blocks_on(0), 1u);  // c merged behind a+b
  // The coalesced block serves an allocation none of the fragments could.
  PhysAddr big = m.alloc(0, 192);
  EXPECT_EQ(big, a);
  EXPECT_EQ(m.free_blocks_on(0), 0u);
}

TEST(Memory, InterleavedSizesCoalesceAcrossFrees) {
  Machine m(butterfly1(2));
  std::vector<PhysAddr> blocks;
  for (int i = 0; i < 16; ++i) blocks.push_back(m.alloc(0, 32));
  for (int i = 15; i >= 0; --i) m.free(blocks[i], 32);  // reverse order
  EXPECT_EQ(m.free_blocks_on(0), 1u);
  EXPECT_EQ(m.alloc(0, 16 * 32), blocks[0]);
}

TEST(Memory, AllocatorExhaustionThrows) {
  MachineConfig cfg = butterfly1(2);
  cfg.memory_per_node = 4096;
  Machine m(cfg);
  (void)m.alloc(0, 4000);
  EXPECT_THROW((void)m.alloc(0, 4000), SimError);
  (void)m.alloc(1, 4000);  // other nodes unaffected
}

TEST(Memory, OutOfRangeAddressThrows) {
  MachineConfig cfg = butterfly1(2);
  cfg.memory_per_node = 1024;
  Machine m(cfg);
  m.spawn(0, [&] {
    EXPECT_THROW(m.write<std::uint32_t>(PhysAddr{0, 2048}, 1), SimError);
    EXPECT_THROW((void)m.read<std::uint8_t>(PhysAddr{99, 0}), SimError);
  });
  m.run();
}

TEST(Memory, AccessWordsAggregatesCost) {
  Machine m(butterfly1(128));
  PhysAddr a = m.alloc(3, 4096);
  Time batched = 0, individual = 0;
  m.spawn(0, [&] {
    Time t0 = m.now();
    m.access_words(a, 100);
    batched = m.now() - t0;
    t0 = m.now();
    for (int i = 0; i < 100; ++i) (void)m.read<std::uint32_t>(a);
    individual = m.now() - t0;
  });
  m.run();
  EXPECT_EQ(batched, individual);  // same simulated cost, fewer host events
  EXPECT_EQ(m.stats().node[0].remote_refs, 200u);
}

TEST(Memory, StatsDistinguishLocalAndRemote) {
  Machine m(butterfly1(8));
  PhysAddr here = m.alloc(0, 16);
  PhysAddr there = m.alloc(4, 16);
  m.spawn(0, [&] {
    (void)m.read<std::uint32_t>(here);
    (void)m.read<std::uint32_t>(there);
    (void)m.read<std::uint32_t>(there);
  });
  m.run();
  EXPECT_EQ(m.stats().node[0].local_refs, 1u);
  EXPECT_EQ(m.stats().node[0].remote_refs, 2u);
  EXPECT_EQ(m.stats().node[4].serviced_remote, 2u);
}


// --- Characterisation of the timed-memory family ---------------------------
//
// Every timed memory operation, local and remote, pinned to the simulated
// time it takes and the NodeStats it leaves behind; and, against a dead
// node, across a partition cut and under certain memory faults, to the
// error it raises and the time it charges.  A change to the memory path
// that alters any row alters simulated output.

enum class Op {
  kRead,
  kWrite,
  kFetchAdd,
  kFetchAddCombining,
  kFetchOr,
  kTestAndSet,
  kSwap,
  kCas,
  kBlockCopy,
  kBlockRead,
  kBlockWrite,
  kAccessWords,
};

const char* op_name(Op op) {
  switch (op) {
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kFetchAdd: return "fetch_add";
    case Op::kFetchAddCombining: return "fetch_add+combining";
    case Op::kFetchOr: return "fetch_or";
    case Op::kTestAndSet: return "test_and_set";
    case Op::kSwap: return "swap";
    case Op::kCas: return "cas";
    case Op::kBlockCopy: return "block_copy";
    case Op::kBlockRead: return "block_read";
    case Op::kBlockWrite: return "block_write";
    case Op::kAccessWords: return "access_words";
  }
  return "?";
}

enum class Fault { kNone, kDeadHome, kCutHome, kMemFault };
enum class Raised { kNothing, kNodeDead, kNetUnreachable, kMemoryFault };

// What one operation left behind: the requester's elapsed time, the
// requester's NodeStats deltas, the home module's serviced_remote delta,
// what it raised, and the first word at the operation's target afterwards.
struct Pinned {
  Time elapsed = 0;
  std::uint64_t local_refs = 0;
  std::uint64_t remote_refs = 0;
  std::uint64_t serviced_remote = 0;
  Time queue_ns = 0;
  Time stall_ns = 0;
  std::uint64_t block_words = 0;
  Raised raised = Raised::kNothing;
  std::uint32_t word = 0;
  bool operator==(const Pinned&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Pinned& p) {
  return os << "{" << p.elapsed << ", " << p.local_refs << ", "
            << p.remote_refs << ", " << p.serviced_remote << ", "
            << p.queue_ns << ", " << p.stall_ns << ", " << p.block_words
            << ", " << static_cast<int>(p.raised) << ", " << p.word << "}";
}

constexpr NodeId kReq = 1;
constexpr NodeId kRemoteHome = 9;
constexpr NodeId kSecondHome = 12;  // block_copy's remote destination
constexpr std::size_t kBlockBytes = 40;
constexpr Time kStart = 200;

// Runs `op` from node kReq at t = kStart against a word homed on kReq
// (local) or kRemoteHome (remote).  Without a fault, a noise fiber on the
// home node first streams 64 bytes into the home module, so the operation
// queues behind it.
Pinned run_op(Op op, bool local, Fault fault) {
  MachineConfig cfg = butterfly1(16);
  if (op == Op::kFetchAddCombining) {
    cfg.model_switch_contention = true;
    cfg.switch_combining = true;
  }
  const NodeId home = local ? kReq : kRemoteHome;
  FaultPlan plan;
  if (fault == Fault::kDeadHome) plan.kill(home, 1);
  if (fault == Fault::kCutHome)
    plan.partition({kReq}, {home, kSecondHome}, 1, kSecond);
  if (fault == Fault::kMemFault) plan.mem_fault_prob = 1.0;
  Machine m(cfg, plan);

  const PhysAddr target = m.alloc(home, 64);
  const PhysAddr other = m.alloc(local ? kReq : kSecondHome, 64);
  const PhysAddr noise = m.alloc(home, 64);
  for (std::uint32_t i = 0; i < 16; ++i)
    m.poke<std::uint32_t>(target.plus(4 * i), 0x100 + i);
  // block_copy moves target -> other; everything else acts on target.
  const PhysAddr written = op == Op::kBlockCopy ? other : target;

  if (fault == Fault::kNone)
    m.spawn(home, [&m, noise] {
      std::uint8_t bytes[64] = {};
      m.block_write(noise, bytes, sizeof bytes);
    });
  Pinned p;
  m.spawn(
      kReq,
      [&] {
        const NodeStats req0 = m.stats().node[kReq];
        const std::uint64_t served0 = m.stats().node[home].serviced_remote;
        const Time t0 = m.now();
        std::uint8_t host[kBlockBytes] = {7, 7, 7, 7};
        try {
          switch (op) {
            case Op::kRead: (void)m.read<std::uint32_t>(target); break;
            case Op::kWrite: m.write<std::uint32_t>(target, 0xabc); break;
            case Op::kFetchAdd:
            case Op::kFetchAddCombining:
              (void)m.fetch_add_u32(target, 5);
              break;
            case Op::kFetchOr: (void)m.fetch_or_u32(target, 0xf000); break;
            case Op::kTestAndSet: (void)m.test_and_set(target); break;
            case Op::kSwap: (void)m.swap_u32(target, 0x77); break;
            case Op::kCas: (void)m.cas_u32(target, 0x100, 0x55); break;
            case Op::kBlockCopy:
              m.block_copy(other, target, kBlockBytes);
              break;
            case Op::kBlockRead:
              m.block_read(host, target, kBlockBytes);
              break;
            case Op::kBlockWrite:
              m.block_write(target, host, kBlockBytes);
              break;
            case Op::kAccessWords: m.access_words(target, 6); break;
          }
        } catch (const NodeDeadError&) {
          p.raised = Raised::kNodeDead;
        } catch (const NetUnreachableError&) {
          p.raised = Raised::kNetUnreachable;
        } catch (const MemoryFaultError&) {
          p.raised = Raised::kMemoryFault;
        }
        const NodeStats& req1 = m.stats().node[kReq];
        p.elapsed = m.now() - t0;
        p.local_refs = req1.local_refs - req0.local_refs;
        p.remote_refs = req1.remote_refs - req0.remote_refs;
        p.serviced_remote =
            m.stats().node[home].serviced_remote - served0;
        p.queue_ns = req1.queue_ns - req0.queue_ns;
        p.stall_ns = req1.stall_ns - req0.stall_ns;
        p.block_words = req1.block_words - req0.block_words;
      },
      "op", kStart);
  m.run();
  p.word = m.peek<std::uint32_t>(written);
  return p;
}

struct Row {
  Op op;
  Pinned local;
  Pinned remote;
};

TEST(MemoryFamily, TimingAndStatsArePinned) {
  // {elapsed, local, remote, serviced, queue, stall, block_words, raised,
  //  word at the target}
  const Row rows[] = {
      {Op::kRead,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 256},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 256}},
      {Op::kWrite,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 2748},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 2748}},
      {Op::kFetchAdd,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 261},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 261}},
      {Op::kFetchAddCombining,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 261},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 261}},
      {Op::kFetchOr,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 61696},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 61696}},
      {Op::kTestAndSet,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 1},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 1}},
      {Op::kSwap,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 119},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 119}},
      {Op::kCas,
       {9100, 1, 0, 0, 8300, 9100, 0, Raised::kNothing, 85},
       {9900, 0, 1, 1, 7500, 9900, 0, Raised::kNothing, 85}},
      {Op::kBlockCopy,
       {19100, 1, 0, 0, 8300, 19100, 10, Raised::kNothing, 256},
       {19900, 0, 1, 0, 7500, 19900, 10, Raised::kNothing, 256}},
      {Op::kBlockRead,
       {19100, 1, 0, 0, 8300, 19100, 10, Raised::kNothing, 256},
       {19900, 0, 1, 0, 7500, 19900, 10, Raised::kNothing, 256}},
      {Op::kBlockWrite,
       {19100, 1, 0, 0, 8300, 19100, 10, Raised::kNothing, 117901063},
       {19900, 0, 1, 0, 7500, 19900, 10, Raised::kNothing, 117901063}},
      {Op::kAccessWords,
       {13100, 6, 0, 0, 8300, 13100, 0, Raised::kNothing, 256},
       {21900, 0, 6, 6, 7500, 21900, 0, Raised::kNothing, 256}},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(op_name(r.op));
    EXPECT_EQ(run_op(r.op, /*local=*/true, Fault::kNone), r.local);
    EXPECT_EQ(run_op(r.op, /*local=*/false, Fault::kNone), r.remote);
  }
}

TEST(MemoryFamily, FaultsRaiseAndChargeArePinned) {
  struct FaultRow {
    Op op;
    Pinned dead;     // remote home killed before the operation
    Pinned cut;      // remote home across an active partition
    Pinned faulted;  // remote, mem_fault_prob = 1
    Pinned faulted_local;
  };
  const FaultRow rows[] = {
      {Op::kRead,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kWrite,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kFetchAdd,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kFetchAddCombining,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kFetchOr,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kTestAndSet,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kSwap,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kCas,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {2400, 0, 1, 1, 0, 2400, 0, Raised::kMemoryFault, 256},
       {800, 1, 0, 0, 0, 800, 0, Raised::kMemoryFault, 256}},
      {Op::kBlockCopy,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 0},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 0},
       {12400, 0, 1, 0, 0, 12400, 10, Raised::kMemoryFault, 0},
       {10800, 1, 0, 0, 0, 10800, 10, Raised::kMemoryFault, 0}},
      {Op::kBlockRead,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {12400, 0, 1, 0, 0, 12400, 10, Raised::kMemoryFault, 256},
       {10800, 1, 0, 0, 0, 10800, 10, Raised::kMemoryFault, 256}},
      {Op::kBlockWrite,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {12400, 0, 1, 0, 0, 12400, 10, Raised::kMemoryFault, 256},
       {10800, 1, 0, 0, 0, 10800, 10, Raised::kMemoryFault, 256}},
      {Op::kAccessWords,
       {1900, 0, 0, 0, 0, 0, 0, Raised::kNodeDead, 256},
       {1600300, 0, 0, 0, 0, 0, 0, Raised::kNetUnreachable, 256},
       {14400, 0, 6, 6, 0, 14400, 0, Raised::kNothing, 256},
       {4800, 6, 0, 0, 0, 4800, 0, Raised::kNothing, 256}},
  };
  for (const FaultRow& r : rows) {
    SCOPED_TRACE(op_name(r.op));
    EXPECT_EQ(run_op(r.op, false, Fault::kDeadHome), r.dead);
    EXPECT_EQ(run_op(r.op, false, Fault::kCutHome), r.cut);
    EXPECT_EQ(run_op(r.op, false, Fault::kMemFault), r.faulted);
    EXPECT_EQ(run_op(r.op, true, Fault::kMemFault), r.faulted_local);
  }
}

TEST(MemoryFamily, BlockCopyChecksBothEndsDeadBeforeEitherCut) {
  // The source sits across a cut and the destination is dead: block_copy
  // runs both dead-target checks before either partition check, so the
  // dead destination wins, priced as one failed round trip.
  FaultPlan plan;
  plan.kill(kSecondHome, 1);
  plan.partition({kReq}, {kRemoteHome}, 1, kSecond);
  Machine m(butterfly1(16), plan);
  const PhysAddr src = m.alloc(kRemoteHome, 64);
  const PhysAddr dst = m.alloc(kSecondHome, 64);
  Time elapsed = 0;
  bool dead = false, bad_node = false;
  m.spawn(
      kReq,
      [&] {
        // A wild address on either end fails before any charged check.
        try {
          m.block_copy(PhysAddr{99, 0}, src, kBlockBytes);
        } catch (const NodeDeadError&) {
        } catch (const NetUnreachableError&) {
        } catch (const SimError&) {
          bad_node = m.now() == kStart;
        }
        const Time t0 = m.now();
        try {
          m.block_copy(dst, src, kBlockBytes);
        } catch (const NodeDeadError&) {
          dead = true;
        }
        elapsed = m.now() - t0;
      },
      "op", kStart);
  m.run();
  EXPECT_TRUE(bad_node);
  EXPECT_TRUE(dead);
  EXPECT_EQ(elapsed, 1900u);  // issue + the trip out and the error back
  EXPECT_EQ(m.stats().dead_node_refs, 1u);
  EXPECT_EQ(m.stats().net_unreachable_refs, 0u);
}

TEST(MemoryFamily, CombiningFollowerIsPinned) {
  // Two fetch-adds to one remote word at the same instant: the first leads
  // a module transaction, the second merges into it at a switch stage.
  MachineConfig cfg = butterfly1(16);
  cfg.model_switch_contention = true;
  cfg.switch_combining = true;
  Machine m(cfg);
  const PhysAddr cell = m.alloc(kRemoteHome, 8);
  m.poke<std::uint32_t>(cell, 10);
  const NodeId who[2] = {1, 2};
  Time elapsed[2] = {};
  std::uint32_t old[2] = {};
  for (int i = 0; i < 2; ++i)
    m.spawn(who[i], [&, i] {
      const Time t0 = m.now();
      old[i] = m.fetch_add_u32(cell, 3);
      elapsed[i] = m.now() - t0;
    });
  m.run();
  EXPECT_EQ(m.fabric().combined_adds(), 1u);
  EXPECT_EQ(m.peek<std::uint32_t>(cell), 16u);
  EXPECT_EQ(old[0], 10u);
  EXPECT_EQ(old[1], 13u);
  EXPECT_EQ(elapsed[0], 2400u);
  EXPECT_EQ(elapsed[1], 2400u);
  for (int i = 0; i < 2; ++i) {
    const NodeStats& s = m.stats().node[who[i]];
    SCOPED_TRACE(i);
    EXPECT_EQ(s.remote_refs, 1u);
    EXPECT_EQ(s.local_refs, 0u);
    EXPECT_EQ(s.queue_ns, 0u);
    EXPECT_EQ(s.stall_ns, elapsed[i]);
  }
  EXPECT_EQ(m.stats().node[kRemoteHome].serviced_remote, 1u);
}

}  // namespace
}  // namespace bfly::sim
