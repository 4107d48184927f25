#include "sync/barrier.hpp"

#include <algorithm>
#include <string>

namespace bfly::sync {

// --- CentralBarrier --------------------------------------------------------

CentralBarrier::CentralBarrier(sim::Machine& m, sim::NodeId home,
                               std::uint32_t workers, sim::Time probe,
                               sim::Time probe_backoff_max)
    : m_(m),
      n_(workers),
      probe_(probe),
      probe_backoff_max_(probe_backoff_max),
      retry_(sim::retry_every(probe)),
      epoch_(workers, 0) {
  count_ = m_.alloc(home, 8);
  m_.poke<std::uint32_t>(count_, 0);
  m_.label_memory(count_, 8, "sync.cbar.count");
  sense_ = m_.alloc(home, 8);
  m_.poke<std::uint32_t>(sense_, 0);
  m_.label_memory(sense_, 8, "sync.cbar.sense");
}

void CentralBarrier::arrive(std::uint32_t w) {
  const auto sense = static_cast<std::uint32_t>((++epoch_[w]) & 1);
  m_.observe_release(sim::chan_of(sense_));
  const std::uint32_t c = sim::retry_transient(
      m_, retry_, [&] { return m_.fetch_add_u32(count_, 1); });
  if (c + 1 == n_) {
    // Last arrival: reset the counter for the next episode *before*
    // flipping the sense word (re-arrivals must see a zero count), then
    // release everyone.
    sim::retry_transient(m_, retry_, [&] { return m_.swap_u32(count_, 0); });
    sim::retry_transient(m_, retry_,
                         [&] { return m_.swap_u32(sense_, sense); });
    ++m_.stats().barrier_episodes;
  } else {
    // Spin across the switch on the shared sense word — every probe holds
    // the home module for a service slot, and a faulted probe is a miss.
    sim::Time wait = probe_;
    while (!sim::spin_probe(
        [&] { return m_.read<std::uint32_t>(sense_) == sense; }))
      sim::spin_step(m_, spins_, sim::chan_of(sense_), wait,
                     probe_backoff_max_);
  }
  m_.observe_acquire(sim::chan_of(sense_));
}

// --- TreeBarrier -----------------------------------------------------------

TreeBarrier::TreeBarrier(sim::Machine& m,
                         const std::vector<sim::NodeId>& worker_nodes,
                         std::uint32_t arity, sim::Time local_probe,
                         sim::Time probe_backoff_max)
    : m_(m),
      arity_(std::min(8u, std::max(2u, arity))),
      local_probe_(local_probe),
      probe_backoff_max_(probe_backoff_max),
      retry_(sim::retry_every(local_probe)),
      epoch_(worker_nodes.size(), 0) {
  const auto workers = static_cast<std::uint32_t>(worker_nodes.size());
  // Per-worker sense flags in each worker's own memory.
  flag_.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    const sim::PhysAddr f = m_.alloc(worker_nodes[w], 8);
    m_.poke<std::uint32_t>(f, 0);
    m_.label_memory(f, 8, "sync.tbar.flag[" + std::to_string(w) + "]");
    flag_.push_back(f);
  }
  // Arrival tree: level 0 groups `arity` workers; each level above groups
  // `arity` lower groups, down to a single root.  A group's cells live on
  // the node of its first worker, which scatters the per-subtree hot words
  // across the machine.
  std::uint32_t span = arity_;           // workers covered per group
  std::uint32_t prev = workers;          // children at this level
  for (;;) {
    const std::uint32_t groups = (prev + arity_ - 1) / arity_;
    std::vector<TreeNode> level(groups);
    for (std::uint32_t g = 0; g < groups; ++g) {
      TreeNode& nd = level[g];
      nd.fanin = std::min(arity_, prev - g * arity_);
      const std::uint32_t first = g * span;
      const sim::NodeId home = worker_nodes[std::min(first, workers - 1)];
      nd.count = m_.alloc(home, 8);
      m_.poke<std::uint32_t>(nd.count, 0);
      m_.label_memory(nd.count, 8,
                      "sync.tbar.count[" + std::to_string(tree_.size()) + "." +
                          std::to_string(g) + "]");
      if (!tree_.empty()) {
        // Internal node: record which worker represented each child group.
        nd.reps.reserve(nd.fanin);
        for (std::uint32_t s = 0; s < nd.fanin; ++s) {
          const sim::PhysAddr r = m_.alloc(home, 8);
          m_.poke<std::uint32_t>(r, 0);
          nd.reps.push_back(r);
        }
      }
    }
    tree_.push_back(std::move(level));
    if (groups == 1) break;
    prev = groups;
    span *= arity_;
  }
}

void TreeBarrier::arrive(std::uint32_t w) {
  const auto sense = static_cast<std::uint32_t>((++epoch_[w]) & 1);
  const std::uint64_t chan = sim::chan_of(root_cell());
  m_.observe_release(chan);
  const auto swap = [&](sim::PhysAddr a, std::uint32_t v) {
    return sim::retry_transient(m_, retry_, [&] { return m_.swap_u32(a, v); });
  };
  const auto read = [&](sim::PhysAddr a) {
    return sim::retry_transient(
        m_, retry_, [&] { return m_.read<std::uint32_t>(a); });
  };
  // Climb: while we are the last arrival of our group, carry the arrival a
  // level up; remember every node we closed — we own its release.
  struct Owned {
    std::uint32_t level;
    std::uint32_t group;
  };
  std::vector<Owned> owned;
  owned.reserve(tree_.size());
  std::uint32_t level = 0;
  std::uint32_t group = w / arity_;
  std::uint32_t slot = w % arity_;
  bool root_winner = false;
  for (;;) {
    TreeNode& nd = tree_[level][group];
    if (level > 0) swap(nd.reps[slot], w + 1);
    const std::uint32_t c = sim::retry_transient(
        m_, retry_, [&] { return m_.fetch_add_u32(nd.count, 1); });
    if (c + 1 < nd.fanin) break;  // someone is still below: wait for release
    owned.push_back({level, group});
    if (level + 1 == tree_.size()) {
      root_winner = true;  // the machine-wide last arrival
      break;
    }
    slot = group % arity_;
    group /= arity_;
    ++level;
  }
  if (root_winner) {
    // Nobody wakes the machine-wide winner, so nobody advances its flag;
    // bring it to the episode's sense here or the *next* episode's spin
    // would see the stale value already matching and sail through.
    swap(flag_[w], sense);
  } else {
    // Spin on my own node's flag: zero switch traffic while waiting.
    sim::Time wait = local_probe_;
    while (read(flag_[w]) != sense)
      sim::spin_step(m_, local_spins_, chan, wait, probe_backoff_max_);
  }
  // Release wave: reset and wake every node we closed, top-down.  Each
  // woken representative resumes here and releases its own subtree, so the
  // wakeup fans out with O(arity) remote writes per level per releaser.
  for (auto it = owned.rbegin(); it != owned.rend(); ++it) {
    TreeNode& nd = tree_[it->level][it->group];
    swap(nd.count, 0);  // next episode's arrivals must see zero
    if (it->level == 0) {
      const std::uint32_t base = it->group * arity_;
      for (std::uint32_t i = 0; i < nd.fanin; ++i) {
        const std::uint32_t x = base + i;
        if (x != w) swap(flag_[x], sense);
      }
    } else {
      for (std::uint32_t s = 0; s < nd.fanin; ++s) {
        const std::uint32_t r = read(nd.reps[s]);
        if (r != 0 && r - 1 != w) swap(flag_[r - 1], sense);
      }
    }
  }
  if (root_winner) ++m_.stats().barrier_episodes;
  m_.observe_acquire(chan);
}

}  // namespace bfly::sync
