#include "smp/family.hpp"

#include <gtest/gtest.h>

#include <list>
#include <map>
#include <numeric>
#include <string>

#include "sim/observe.hpp"
#include "sim/rng.hpp"

namespace bfly::smp {
namespace {

using sim::butterfly1;
using sim::Machine;
using sim::Time;

// Boots a machine, runs `body` as the creating process, runs to completion.
void with_family_creator(std::uint32_t nodes, std::function<void(chrys::Kernel&)> body) {
  Machine m(butterfly1(nodes));
  chrys::Kernel k(m);
  k.create_process(0, [&] { body(k); }, "creator");
  m.run();
  ASSERT_FALSE(m.deadlocked());
}

TEST(Topology, Shapes) {
  Topology ring = Topology::ring(5);
  EXPECT_TRUE(ring.connected(0, 4));
  EXPECT_TRUE(ring.connected(2, 3));
  EXPECT_FALSE(ring.connected(0, 2));

  Topology tree = Topology::tree(7, 2);
  EXPECT_TRUE(tree.connected(0, 1));
  EXPECT_TRUE(tree.connected(1, 3));
  EXPECT_FALSE(tree.connected(3, 4));
  EXPECT_EQ(Topology::tree_parent(5), 2u);

  Topology torus = Topology::mesh(3, 4, true, true);
  EXPECT_TRUE(torus.connected(0, 3));   // column wrap
  EXPECT_TRUE(torus.connected(0, 8));   // row wrap
  EXPECT_TRUE(torus.connected(5, 6));

  Topology star = Topology::star(6);
  EXPECT_TRUE(star.connected(0, 5));
  EXPECT_FALSE(star.connected(1, 2));
}

TEST(Family, PingPong) {
  with_family_creator(4, [](chrys::Kernel& k) {
    std::uint32_t echoed = 0;
    Family fam(
        k, Topology::line(2),
        [&](Member& me) {
          if (me.index() == 0) {
            me.send_value<std::uint32_t>(1, 1, 0xc0ffee);
            Message r = me.receive();
            echoed = r.as<std::uint32_t>();
          } else {
            Message msg = me.receive();
            const auto v = msg.as<std::uint32_t>();
            me.send_value<std::uint32_t>(0, 2, v + 1);
          }
        });
    fam.join();
    EXPECT_EQ(echoed, 0xc0ffee + 1u);
    EXPECT_EQ(fam.messages_sent(), 2u);
  });
}

TEST(Family, NonNeighborSendThrows) {
  with_family_creator(4, [](chrys::Kernel& k) {
    int code = 0;
    Family fam(k, Topology::line(3), [&](Member& me) {
      if (me.index() == 0) {
        code = k.catch_block([&] { me.send_value<std::uint32_t>(2, 0, 1); });
      }
    });
    fam.join();
    EXPECT_EQ(code, chrys::kThrowNotConnected);
  });
}

TEST(Family, RingPassesTokenAround) {
  constexpr std::uint32_t kN = 8;
  with_family_creator(8, [](chrys::Kernel& k) {
    std::uint32_t final_sum = 0;
    Family fam(k, Topology::ring(kN), [&](Member& me) {
      const std::uint32_t next = (me.index() + 1) % kN;
      if (me.index() == 0) {
        me.send_value<std::uint32_t>(next, 0, 0);
        Message back = me.receive();
        final_sum = back.as<std::uint32_t>();
      } else {
        Message msg = me.receive();
        me.send_value<std::uint32_t>(next, 0, msg.as<std::uint32_t>() + me.index());
      }
    });
    fam.join();
    EXPECT_EQ(final_sum, (kN - 1) * kN / 2);
  });
}

TEST(Family, TreeReduction) {
  constexpr std::uint32_t kN = 15;
  with_family_creator(16, [](chrys::Kernel& k) {
    std::uint32_t total = 0;
    Family fam(k, Topology::tree(kN, 2), [&](Member& me) {
      std::uint32_t acc = me.index() + 1;  // value at this node
      for (std::uint32_t c : me.children()) {
        (void)c;
        Message msg = me.receive();
        acc += msg.as<std::uint32_t>();
      }
      if (me.index() == 0) total = acc;
      else me.send_value<std::uint32_t>(me.parent(), 0, acc);
    });
    fam.join();
    EXPECT_EQ(total, kN * (kN + 1) / 2);
  });
}

TEST(Family, LargePayloadsArriveIntact) {
  with_family_creator(4, [](chrys::Kernel& k) {
    bool ok = false;
    Family fam(k, Topology::line(2), [&](Member& me) {
      if (me.index() == 0) {
        std::vector<std::uint8_t> data(4096);
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = static_cast<std::uint8_t>(i % 251);
        me.send(1, 7, data.data(), data.size());
      } else {
        Message msg = me.receive();
        ok = msg.tag == 7 && msg.payload.size() == 4096;
        for (std::size_t i = 0; ok && i < msg.payload.size(); ++i)
          ok = msg.payload[i] == static_cast<std::uint8_t>(i % 251);
      }
    });
    fam.join();
    EXPECT_TRUE(ok);
  });
}

TEST(Family, FixedAllocationMapsMembersToNodes) {
  with_family_creator(4, [](chrys::Kernel& k) {
    std::vector<sim::NodeId> where(6, 999);
    FamilyOptions opt;
    opt.base_node = 2;
    Family fam(
        k, Topology::complete(6),
        [&](Member& me) { where[me.index()] = me.node(); }, opt);
    fam.join();
    for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(where[i], (2 + i) % 4);
  });
}

TEST(Family, TryReceiveDoesNotBlock) {
  with_family_creator(4, [](chrys::Kernel& k) {
    bool was_empty = false, got_later = false;
    Family fam(k, Topology::line(2), [&](Member& me) {
      if (me.index() == 1) {
        Message msg;
        was_empty = !me.try_receive(&msg);
        while (!me.try_receive(&msg)) k.delay(sim::kMillisecond);
        got_later = msg.as<std::uint32_t>() == 5;
      } else {
        k.delay(10 * sim::kMillisecond);
        me.send_value<std::uint32_t>(1, 0, 5);
      }
    });
    fam.join();
    EXPECT_TRUE(was_empty);
    EXPECT_TRUE(got_later);
  });
}

TEST(SarCacheT, CacheAvoidsRemapCost) {
  // Repeated sends on one channel: with the cache only the first pays the
  // map; without it every send pays map + unmap.
  auto total_time = [](std::uint32_t cache_cap) {
    Machine m(butterfly1(4));
    chrys::Kernel k(m);
    Time t = 0;
    k.create_process(0, [&] {
      FamilyOptions opt;
      opt.sar_cache_capacity = cache_cap;
      Family fam(k, Topology::line(2), [&](Member& me) {
        if (me.index() == 0) {
          const Time t0 = k.machine().now();
          for (int i = 0; i < 20; ++i)
            me.send_value<std::uint32_t>(1, 0, i);
          t = k.machine().now() - t0;
        } else {
          for (int i = 0; i < 20; ++i) (void)me.receive();
        }
      }, opt);
      fam.join();
    });
    m.run();
    return t;
  };
  const Time cached = total_time(8);
  const Time uncached = total_time(0);
  EXPECT_LT(cached * 3, uncached)
      << "the SAR cache must amortize the ~1 ms map/unmap per message";
}

TEST(SarCacheT, EvictionWhenChannelsExceedCapacity) {
  Machine m(butterfly1(2));
  SarCache cache(m, 2);
  Time spent = 0;
  m.spawn(0, [&] {
    cache.access(1);
    cache.access(2);
    cache.access(1);  // hit
    cache.access(3);  // evicts 2
    cache.access(2);  // miss again
    spent = m.now();
  });
  m.run();
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_GT(spent, 0u);
}

// The textbook LRU the flat cache must agree with access for access.
struct ListLru {
  std::uint32_t capacity;
  Time map_ns;
  std::list<std::uint64_t> lru;
  std::uint64_t hits = 0, misses = 0, evictions = 0;
  Time charged = 0;

  void access(std::uint64_t ch) {
    if (capacity == 0) {
      ++misses;
      charged += 2 * map_ns;
      return;
    }
    for (auto it = lru.begin(); it != lru.end(); ++it) {
      if (*it == ch) {
        lru.splice(lru.begin(), lru, it);
        ++hits;
        return;
      }
    }
    ++misses;
    charged += map_ns;
    if (lru.size() >= capacity) {
      lru.pop_back();
      charged += map_ns;
      ++evictions;
    }
    lru.push_front(ch);
  }
};

TEST(SarCacheT, MatchesAListLruOnARandomStream) {
  for (const std::uint32_t cap : {0u, 1u, 3u, 200u}) {
    Machine m(butterfly1(2));
    SarCache cache(m, cap);
    ListLru ref{cap, m.config().sar_map_ns, {}};
    // A working set larger than the cache, half of it hot, with channel
    // ids shaped like SMP's (sender << 32 | receiver).
    const std::uint32_t set = 2 * cap + 7;
    std::vector<std::uint64_t> channels(set);
    sim::Rng rng(77 + cap);
    for (std::uint32_t i = 0; i < set; ++i)
      channels[i] = (static_cast<std::uint64_t>(rng.below(512)) << 32) |
                    (i * 7 + 1);
    std::vector<std::uint64_t> stream;
    for (int i = 0; i < 6000; ++i) {
      const std::uint64_t pick = rng.below(2) != 0u ? rng.below(set / 2 + 1)
                                                    : rng.below(set);
      stream.push_back(channels[pick]);
    }
    Time spent = 0;
    m.spawn(0, [&] {
      for (const std::uint64_t ch : stream) {
        cache.access(ch);
        ref.access(ch);
      }
      spent = m.now();
    });
    m.run();
    EXPECT_EQ(cache.hits(), ref.hits) << "capacity " << cap;
    EXPECT_EQ(cache.misses(), ref.misses) << "capacity " << cap;
    EXPECT_EQ(cache.evictions(), ref.evictions) << "capacity " << cap;
    EXPECT_EQ(spent, ref.charged) << "capacity " << cap;
    if (cap >= 3) {
      EXPECT_GT(cache.hits(), 0u) << "capacity " << cap;
    }
    if (cap > 0) {
      EXPECT_GT(cache.evictions(), 0u) << "capacity " << cap;
    }
  }
}

// Counts the message-buffer labels a probe sees, by label text.
class LabelCounter : public sim::Probe {
 public:
  void on_label(sim::PhysAddr, std::size_t, std::string name) override {
    ++seen[name];
  }
  std::map<std::string, int> seen;
};

TEST(Family, AttachedProbeSeesOneLabelPerSend) {
  Machine m(butterfly1(4));
  LabelCounter probe;
  m.attach(&probe);
  chrys::Kernel k(m);
  std::uint64_t sent = 0;
  k.create_process(0, [&] {
    Family fam(k, Topology::complete(3), [&](Member& me) {
      for (std::uint32_t d = 0; d < 3; ++d)
        if (d != me.index()) me.send_value<std::uint32_t>(d, 0, d);
      for (int i = 0; i < 2; ++i) (void)me.receive();
      if (me.index() == 0) me.send_value<std::uint32_t>(2, 1, 9);
      if (me.index() == 2) (void)me.receive();
    });
    fam.join();
    sent = fam.messages_sent();
  });
  m.run();
  m.detach(&probe);
  ASSERT_FALSE(m.deadlocked());
  EXPECT_EQ(sent, 7u);
  std::map<std::string, int> msg;
  for (const auto& [name, count] : probe.seen)
    if (name.rfind("SMP.msg[", 0) == 0) msg[name] = count;
  const std::map<std::string, int> want = {
      {"SMP.msg[0->1]", 1}, {"SMP.msg[0->2]", 2}, {"SMP.msg[1->0]", 1},
      {"SMP.msg[1->2]", 1}, {"SMP.msg[2->0]", 1}, {"SMP.msg[2->1]", 1}};
  EXPECT_EQ(msg, want);
}

TEST(Family, ManyToOneFunnel) {
  // Star: all leaves report to the hub — the Gaussian elimination shape.
  constexpr std::uint32_t kN = 9;
  with_family_creator(16, [](chrys::Kernel& k) {
    std::uint32_t received = 0, sum = 0;
    Family fam(k, Topology::star(kN), [&](Member& me) {
      if (me.index() == 0) {
        for (std::uint32_t i = 1; i < kN; ++i) {
          Message msg = me.receive();
          ++received;
          sum += msg.as<std::uint32_t>();
        }
      } else {
        me.send_value<std::uint32_t>(0, 0, me.index());
      }
    });
    fam.join();
    EXPECT_EQ(received, kN - 1);
    EXPECT_EQ(sum, kN * (kN - 1) / 2);
  });
}

}  // namespace
}  // namespace bfly::smp
