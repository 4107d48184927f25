#include "layers.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace sim = bfly::sim;

// --- LayerSink ---------------------------------------------------------------

LayerSink::LayerSink(sim::Machine& m) : m_(m) { m_.set_trace_sink(this); }

LayerSink::~LayerSink() {
  if (m_.trace_sink() == this) m_.set_trace_sink(nullptr);
}

namespace {

// Spans nest per fiber; host-context spans (no fiber) get a track per node.
const void* track_of(sim::Fiber* f, sim::NodeId node) {
  if (f != nullptr) return f;
  return reinterpret_cast<const void*>(static_cast<std::uintptr_t>(node) + 1);
}

}  // namespace

void LayerSink::on_span_begin(sim::Fiber* f, sim::NodeId node,
                              const char* cat, const char* name,
                              std::uint64_t) {
  open_[track_of(f, node)].push_back(Open{cat, name, m_.now(), 0});
}

void LayerSink::on_span_end(sim::Fiber* f, sim::NodeId node) {
  auto it = open_.find(track_of(f, node));
  if (it == open_.end() || it->second.empty()) return;  // unmatched: ignore
  const Open o = it->second.back();
  it->second.pop_back();
  const sim::Time dur = m_.now() - o.begin;
  self_[o.cat] += dur - std::min(dur, o.child_ns);
  Sum& s = spans_[std::string(o.cat) + "/" + o.name];
  ++s.count;
  s.total_ns += dur;
  if (!it->second.empty()) it->second.back().child_ns += dur;
  if (it->second.empty()) open_.erase(it);
}

const std::vector<std::string>& span_categories() {
  static const std::vector<std::string> cats{"chrys", "us",    "smp",
                                             "bridge", "serve", "rescue"};
  return cats;
}

// --- MachineScope ------------------------------------------------------------

MachineScope::MachineScope(sim::Machine& m, bool spans, std::string label)
    : m_(m), label_(std::move(label)) {
  if (spans) sink_ = std::make_unique<LayerSink>(m_);
}

MachineScope::~MachineScope() = default;

void MachineScope::finish(PassResult& r) {
  const sim::MachineStats& st = m_.stats();
  r.digest.add_stats(st);
  r.digest.add(static_cast<std::uint64_t>(m_.now()));

  MetricSet& L = r.layers;
  std::uint64_t stall = 0, queue = 0;
  for (const auto& n : st.node) {
    stall += n.stall_ns;
    queue += n.queue_ns;
  }
  L.add("sim.refs_local", static_cast<double>(st.total_local_refs()), "count");
  L.add("sim.refs_remote", static_cast<double>(st.total_remote_refs()),
        "count");
  std::uint64_t words = 0;
  for (const auto& n : st.node) words += n.block_words;
  L.add("sim.block_words", static_cast<double>(words), "count");
  L.add("sim.stall_ns", static_cast<double>(stall), "sim_ns");
  L.add("sim.queue_ns", static_cast<double>(queue), "sim_ns");
  L.add("switch.combined_adds", static_cast<double>(st.combined_adds), "count");
  L.add("sync.lock_acquisitions", static_cast<double>(st.lock_acquisitions),
        "count");
  L.add("sync.lock_spins", static_cast<double>(st.lock_spins), "count");
  L.add("sync.barrier_episodes", static_cast<double>(st.barrier_episodes),
        "count");
  L.add("rescue.suspects_declared", static_cast<double>(st.suspects_declared),
        "count");
  L.add("rescue.false_suspects", static_cast<double>(st.false_suspects),
        "count");
  L.add("serve.hedges", static_cast<double>(st.serve_hedges), "count");
  L.add("serve.hedge_wins", static_cast<double>(st.serve_hedge_wins), "count");
  L.add("serve.retries", static_cast<double>(st.serve_retries), "count");
  L.add("serve.sheds", static_cast<double>(st.serve_sheds), "count");
  L.add("serve.timeouts", static_cast<double>(st.serve_timeouts), "count");
  L.add("serve.rereplications", static_cast<double>(st.serve_rereplications),
        "count");

  // Host-engine state: recorded for the envelope, never digested.
  const sim::ParallelRunStats& ps = m_.parallel_stats();
  L.add("parsim.windows", static_cast<double>(ps.windows), "count");
  L.add("parsim.barrier_wait_ns", static_cast<double>(ps.barrier_wait_ns),
        "ns");
  L.add("parsim.run_wall_ns", static_cast<double>(ps.run_wall_ns), "ns");
  const char* forfeit = m_.parallel_forfeit();
  L.add("parsim.forfeit", forfeit != nullptr ? 1.0 : 0.0, "count");
  const sim::HostPerf hp = m_.host_perf();
  char buf[240];
  std::snprintf(buf, sizeof buf,
                "%s: fastpath=%s fastpath_charges=%llu host_shards=%u "
                "parallel_forfeit=%s",
                label_.c_str(), hp.fastpath_enabled ? "on" : "off",
                static_cast<unsigned long long>(hp.fastpath_charges),
                m_.host_shards(), forfeit != nullptr ? forfeit : "none");
  r.machines.emplace_back(buf);

  if (sink_ == nullptr) {
    // Host-engine counters only from untraced machines: an attached sink
    // forfeits the fast path and would inflate them.
    L.add("sim.events", static_cast<double>(hp.events_dispatched), "count");
    L.add("sim.fiber_resumes", static_cast<double>(hp.fiber_resumes),
          "count");
    L.add("sim.fastpath_charges", static_cast<double>(hp.fastpath_charges),
          "count");
    return;
  }
  for (const std::string& cat : span_categories()) {
    const auto it = sink_->self_ns().find(cat);
    const double ns = it == sink_->self_ns().end()
                          ? 0.0
                          : static_cast<double>(it->second);
    L.add("span.self_ms." + cat, ns / 1e6, "sim_ms");
  }
  const auto span = [&](const char* key) {
    const auto it = sink_->spans().find(key);
    return it == sink_->spans().end() ? LayerSink::Sum{} : it->second;
  };
  L.add("us.tasks_run", static_cast<double>(span("us/task").count), "count");
  L.add("us.task_ms", static_cast<double>(span("us/task").total_ns) / 1e6,
        "sim_ms");
  L.add("us.wait_idle_ms",
        static_cast<double>(span("us/wait_idle").total_ns) / 1e6, "sim_ms");
  L.add("smp.messages", static_cast<double>(span("smp/send").count), "count");
  L.add("smp.recv_wait_ms",
        static_cast<double>(span("smp/recv").total_ns) / 1e6, "sim_ms");
  L.add("chrys.dq_wait_ms",
        static_cast<double>(span("chrys/dq_wait").total_ns) / 1e6, "sim_ms");
  L.add("chrys.event_wait_ms",
        static_cast<double>(span("chrys/event_wait").total_ns) / 1e6,
        "sim_ms");
  L.add("bridge.server_ms",
        static_cast<double>(span("bridge/serve").total_ns) / 1e6, "sim_ms");
  // The sink detaches with this scope; drop it now so later host work on
  // the machine (teardown) runs unobserved.
  sink_.reset();
}

}  // namespace perfbench
