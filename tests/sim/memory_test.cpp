#include <gtest/gtest.h>

#include <cstring>

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

}  // namespace
}  // namespace bfly::sim
