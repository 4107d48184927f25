// Unit tests for the parsim primitives (mailbox, barrier, driver) with NO
// fibers and NO Machine: everything here runs on plain host threads, so
// under ThreadSanitizer (ci/check.sh's parsim-tsan stage) a finding here is
// in the primitives themselves, never in the fiber switch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parsim/barrier.hpp"
#include "parsim/driver.hpp"
#include "parsim/mailbox.hpp"
#include "parsim/msg.hpp"

namespace bfly::parsim {
namespace {

Msg make_msg(sim::Time arrive, std::uint32_t src, std::uint64_t seq) {
  Msg m;
  m.arrive = arrive;
  m.src_node = src;
  m.seq = seq;
  m.value = arrive * 1000 + src * 10 + seq;
  return m;
}

TEST(Mailbox, DrainSortsIntoDeterministicDeliveryOrder) {
  Mailbox box;
  // Deliberately shuffled: ties on arrive break by src_node, then seq.
  box.send(make_msg(30, 1, 0));
  box.send(make_msg(10, 2, 5));
  box.send(make_msg(10, 0, 1));
  box.send(make_msg(10, 0, 0));
  box.send(make_msg(20, 3, 2));
  EXPECT_EQ(box.size(), 5u);

  std::vector<Msg> out;
  box.drain(&out);
  EXPECT_EQ(box.size(), 0u);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_TRUE(msg_before(out[i - 1], out[i]))
        << "delivery order must be strictly increasing at index " << i;
  EXPECT_EQ(out[0].src_node, 0u);
  EXPECT_EQ(out[0].seq, 0u);
  EXPECT_EQ(out[1].seq, 1u);
  EXPECT_EQ(out[2].src_node, 2u);
  EXPECT_EQ(out[4].arrive, 30u);
}

TEST(Mailbox, ConcurrentSendersAllLandAndOrderIsScheduleIndependent) {
  constexpr std::uint32_t kSenders = 4;
  constexpr std::uint32_t kPerSender = 200;
  Mailbox box;
  std::vector<std::thread> threads;
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    threads.emplace_back([&box, s] {
      for (std::uint32_t i = 0; i < kPerSender; ++i)
        box.send(make_msg(/*arrive=*/i % 17, /*src=*/s, /*seq=*/i));
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(box.size(), kSenders * kPerSender);

  std::vector<Msg> out;
  box.drain(&out);
  ASSERT_EQ(out.size(), kSenders * kPerSender);
  for (std::size_t i = 1; i < out.size(); ++i)
    EXPECT_TRUE(msg_before(out[i - 1], out[i]));
}

TEST(SpinBarrier, PublishesAllWritesAcrossRounds) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kRounds = 50;
  SpinBarrier barrier(kThreads);
  std::vector<std::uint64_t> slot(kThreads, 0);
  std::vector<int> failures(kThreads, 0);

  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t r = 1; r <= kRounds; ++r) {
        slot[t] = r;                 // write my slot...
        barrier.arrive_and_wait();   // ...publish to everyone
        for (std::uint32_t o = 0; o < kThreads; ++o)
          if (slot[o] != r) ++failures[t];
        barrier.arrive_and_wait();   // nobody starts round r+1 early
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint32_t t = 0; t < kThreads; ++t)
    EXPECT_EQ(failures[t], 0) << "thread " << t
                              << " saw a stale slot after the barrier";
}

// --- A miniature ShardProgram: token rings over mailboxes ------------------
//
// Each shard owns a sorted event list and an inbox.  Applying an event
// journals (arrive, src_node, seq) and forwards the token to the next shard
// with arrive += hop, until `limit`.  The journals are a complete record of
// the delivery order, so comparing them across thread counts is the
// determinism check.
struct RingProgram final : ShardProgram {
  struct Shard {
    std::vector<Msg> heap;  // kept sorted by msg_before
    Mailbox inbox;
    std::vector<std::uint64_t> journal;
  };

  RingProgram(std::uint32_t shards, sim::Time hop, sim::Time limit)
      : hop_(hop), limit_(limit), shard_(shards) {}

  void seed_token(std::uint32_t shard, sim::Time at, std::uint32_t src) {
    Msg m = make_msg(at, src, seq_[src]++);
    shard_[shard].inbox.send(std::move(m));
  }

  void shard_drain(std::uint32_t s) override {
    Shard& sh = shard_[s];
    sh.inbox.drain(&sh.heap);
    std::sort(sh.heap.begin(), sh.heap.end(), msg_before);
  }

  sim::Time shard_next_time(std::uint32_t s) override {
    return shard_[s].heap.empty() ? kTimeNever : shard_[s].heap.front().arrive;
  }

  void shard_window(std::uint32_t s, sim::Time edge) override {
    Shard& sh = shard_[s];
    std::size_t i = 0;
    for (; i < sh.heap.size() && sh.heap[i].arrive < edge; ++i) {
      const Msg& m = sh.heap[i];
      if (throw_at_ != 0 && m.arrive >= throw_at_)
        throw std::runtime_error("injected shard failure");
      sh.journal.push_back(m.arrive * 1000000 + m.src_node * 1000 + m.seq);
      if (m.arrive + hop_ < limit_) {
        Msg fwd = make_msg(m.arrive + hop_, m.src_node,
                           seq_local(s, m.src_node));
        shard_[(s + 1) % shard_.size()].inbox.send(std::move(fwd));
      }
    }
    sh.heap.erase(sh.heap.begin(), sh.heap.begin() + i);
  }

  // Per-(shard, token) sequence counters: only the shard holding the token
  // increments, so no synchronization — mirroring Machine's per-node seq.
  std::uint64_t seq_local(std::uint32_t s, std::uint32_t src) {
    return seq_grid_[s * 16 + src]++;
  }

  sim::Time hop_;
  sim::Time limit_;
  sim::Time throw_at_ = 0;
  std::vector<Shard> shard_;
  std::uint64_t seq_[16] = {};
  std::uint64_t seq_grid_[16 * 16] = {};
};

std::vector<std::vector<std::uint64_t>> run_ring(std::uint32_t shards,
                                                 std::uint32_t threads,
                                                 DriverStats* stats = nullptr) {
  RingProgram prog(shards, /*hop=*/7, /*limit=*/700);
  for (std::uint32_t s = 0; s < shards; ++s)
    prog.seed_token(s, /*at=*/s + 1, /*src=*/s);
  Driver d(prog, shards, threads, /*lookahead=*/7);
  d.run();
  if (stats != nullptr) *stats = d.stats();
  std::vector<std::vector<std::uint64_t>> out;
  for (auto& sh : prog.shard_) out.push_back(sh.journal);
  return out;
}

TEST(Driver, TokenRingTerminatesAndEveryHopExecutes) {
  DriverStats stats;
  auto journals = run_ring(4, 1, &stats);
  std::size_t hops = 0;
  for (const auto& j : journals) hops += j.size();
  // 4 tokens, each hopping every 7 time units from its seed until 700.
  std::size_t expected = 0;
  for (std::uint32_t s = 0; s < 4; ++s)
    for (sim::Time t = s + 1; t < 700; t += 7) ++expected;
  EXPECT_EQ(hops, expected);
  EXPECT_GT(stats.windows, 0u);
  EXPECT_GT(stats.run_wall_ns, 0u);
}

TEST(Driver, JournalsAreThreadCountInvariant) {
  const auto one = run_ring(4, 1);
  const auto two = run_ring(4, 2);
  const auto four = run_ring(4, 4);
  const auto eight_threads_clamped = run_ring(4, 8);  // clamps to 4
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, eight_threads_clamped);
}

TEST(Driver, ZeroLookaheadDegeneratesToLockstepButTerminates) {
  RingProgram prog(3, /*hop=*/5, /*limit=*/100);
  for (std::uint32_t s = 0; s < 3; ++s) prog.seed_token(s, s + 1, s);
  Driver d(prog, 3, 3, /*lookahead=*/0);
  d.run();
  std::size_t hops = 0;
  for (auto& sh : prog.shard_) hops += sh.journal.size();
  EXPECT_GT(hops, 0u);
}

TEST(Driver, WorkerExceptionPropagatesToRun) {
  RingProgram prog(4, /*hop=*/7, /*limit=*/700);
  prog.throw_at_ = 350;
  for (std::uint32_t s = 0; s < 4; ++s) prog.seed_token(s, s + 1, s);
  Driver d(prog, 4, 2, /*lookahead=*/7);
  EXPECT_THROW(d.run(), std::runtime_error);
}

TEST(Driver, IdleProgramFinishesImmediately) {
  RingProgram prog(2, 7, 700);  // no tokens seeded
  Driver d(prog, 2, 2, 7);
  d.run();
  EXPECT_EQ(d.stats().windows, 0u);
}

}  // namespace
}  // namespace bfly::parsim
