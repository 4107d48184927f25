// Unit tests for bfly::scope: span bookkeeping across fiber switches, the
// event cap, exporter validity and escaping, the JSON parser / trace
// validator, and the critical-path sweep on hand-built span patterns whose
// decomposition is known exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chrysalis/kernel.hpp"
#include "scope/scope.hpp"
#include "scope/trace_check.hpp"
#include "sim/machine.hpp"

namespace bfly::scope {
namespace {

using sim::butterfly1;
using sim::kMillisecond;
using sim::Machine;

void expect_valid_trace(const Tracer& tracer, TraceCheckStats* stats) {
  std::vector<std::string> errors;
  ASSERT_TRUE(validate_chrome_trace(tracer.chrome_trace(), &errors, stats))
      << (errors.empty() ? std::string("no error detail") : errors.front());
}

TEST(ScopeSpans, NestAndInterleaveAcrossFibers) {
  Machine m(butterfly1(4));
  Tracer tracer(m);
  m.spawn(0, [&] {
    sim::TraceSpan outer(m, "t", "outer");
    m.charge(2 * kMillisecond);
    {
      sim::TraceSpan inner(m, "t", "inner");
      m.charge(2 * kMillisecond);
    }
    m.trace_instant("t", "mark", 7);
    m.charge(1 * kMillisecond);
  });
  m.spawn(1, [&] {
    sim::TraceSpan s(m, "t", "other");
    m.charge(3 * kMillisecond);
  });
  m.run();

  EXPECT_EQ(tracer.spans_begun(), 3u);
  EXPECT_EQ(tracer.spans_completed(), 3u);
  EXPECT_EQ(tracer.instants_recorded(), 1u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  EXPECT_GE(tracer.tracks(), 2u);

  TraceCheckStats stats;
  expect_valid_trace(tracer, &stats);
  EXPECT_EQ(stats.begins, 3u);
  EXPECT_EQ(stats.ends, 3u);
  EXPECT_EQ(stats.instants, 1u);
}

TEST(ScopeSpans, EventCapDropsBalanced) {
  ScopeOptions opt;
  opt.max_events = 2;
  Machine m(butterfly1(2));
  Tracer tracer(m, opt);
  m.spawn(0, [&] {
    for (int i = 0; i < 3; ++i) {
      sim::TraceSpan s(m, "t", "span");
      m.charge(kMillisecond);
    }
  });
  m.run();

  // begin+end fill the cap; the two later spans drop whole (their ends are
  // absorbed, never recorded as unmatched E events).
  EXPECT_EQ(tracer.spans_begun(), 1u);
  EXPECT_EQ(tracer.spans_completed(), 1u);
  EXPECT_EQ(tracer.dropped_events(), 2u);

  TraceCheckStats stats;
  expect_valid_trace(tracer, &stats);
  EXPECT_EQ(stats.begins, stats.ends);
}

TEST(ScopeSpans, OpenSpansCloseAtExport) {
  Machine m(butterfly1(2));
  Tracer tracer(m);
  m.spawn(0, [&] {
    m.trace_begin("t", "leftopen");
    m.charge(kMillisecond);
    // No trace_end: the fiber exits with the span open.
  });
  m.run();

  EXPECT_EQ(tracer.spans_begun(), 1u);
  EXPECT_EQ(tracer.spans_completed(), 0u);
  TraceCheckStats stats;
  expect_valid_trace(tracer, &stats);  // exporter supplies the closing E
  EXPECT_EQ(stats.begins, 1u);
  EXPECT_EQ(stats.ends, 1u);
}

TEST(ScopeExport, HostileProcessNamesStayValidJson) {
  Machine m(butterfly1(2));
  Tracer tracer(m);
  chrys::Kernel k(m);
  k.create_process(
      0, [&] { m.charge(kMillisecond); },
      "we\"ird\\name\nwith\tjunk");
  m.run();

  const std::string trace = tracer.chrome_trace();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(trace, &v, &err)) << err;
  EXPECT_TRUE(validate_chrome_trace(trace));
  ASSERT_TRUE(json_parse(tracer.metrics_json(), &v, &err)) << err;
}

TEST(TraceCheck, ParsesAndRejectsJson) {
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse("{\"a\":[1,2.5,\"x\\u0041\"],\"b\":null}", &v, &err))
      << err;
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->arr.size(), 3u);
  EXPECT_EQ(a->arr[2].str, "xA");  // A decodes to 'A'

  EXPECT_FALSE(json_parse("{\"a\":", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &v, &err));
  EXPECT_FALSE(json_parse("", &v, &err));
  EXPECT_FALSE(json_parse("{\"a\":1,\"b\":{\"c\":2,\"c\":3}}", &v, &err));
  EXPECT_NE(err.find("duplicate object key \"c\""), std::string::npos) << err;
  EXPECT_TRUE(json_parse("{\"a\":{\"c\":1},\"b\":{\"c\":2}}", &v, &err));
}

TEST(TraceCheck, ValidatorFlagsBrokenTraces) {
  const char* good =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1,\"name\":\"x\"},"
      "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":2}]}";
  EXPECT_TRUE(validate_chrome_trace(good));

  const char* non_monotone =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":2,\"name\":\"x\"},"
      "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1}]}";
  EXPECT_FALSE(validate_chrome_trace(non_monotone));

  const char* unmatched_end =
      "{\"traceEvents\":[{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":1}]}";
  EXPECT_FALSE(validate_chrome_trace(unmatched_end));

  const char* unclosed_begin =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":1,\"name\":\"x\"}]}";
  EXPECT_FALSE(validate_chrome_trace(unclosed_begin));

  EXPECT_FALSE(validate_chrome_trace("{\"foo\":1}"));
  EXPECT_FALSE(validate_chrome_trace("not json at all"));
}

TEST(CriticalPath, OverlapDecomposition) {
  Machine m(butterfly1(2));
  Tracer tracer(m);
  // Task A runs [0, 10ms); task B runs [5ms, 15ms): 5 ms of true overlap.
  m.spawn(0, [&] {
    sim::TraceSpan t(m, "us", "task");
    m.charge(10 * kMillisecond);
  });
  m.spawn(1, [&] {
    m.charge(5 * kMillisecond);
    sim::TraceSpan t(m, "us", "task");
    m.charge(10 * kMillisecond);
  });
  m.run();

  const CriticalPathReport r = tracer.critical_path();
  EXPECT_EQ(r.tasks, 2u);
  EXPECT_EQ(r.workers, 2u);
  EXPECT_EQ(r.elapsed, 15 * kMillisecond);
  EXPECT_EQ(r.task_busy, 20 * kMillisecond);
  EXPECT_EQ(r.serial_ns, 10 * kMillisecond);  // only [5,10) has 2 in flight
  ASSERT_EQ(r.phases.size(), 1u);             // no barriers: one phase
  EXPECT_EQ(r.phases[0].longest, 10 * kMillisecond);
  EXPECT_EQ(r.critical_path, 10 * kMillisecond);  // no glue, longest task
  EXPECT_EQ(r.serial_elapsed_est, 20 * kMillisecond);
  EXPECT_DOUBLE_EQ(r.speedup_bound, 2.0);
}

TEST(CriticalPath, BarriersSplitPhases) {
  Machine m(butterfly1(2));
  Tracer tracer(m);
  m.spawn(0, [&] {
    {
      sim::TraceSpan t(m, "us", "task");
      m.charge(4 * kMillisecond);
    }
    {
      sim::TraceSpan w(m, "us", "wait_idle");
      m.charge(1 * kMillisecond);
    }
    {
      sim::TraceSpan t(m, "us", "task");
      m.charge(6 * kMillisecond);
    }
  });
  m.run();

  const CriticalPathReport r = tracer.critical_path();
  ASSERT_EQ(r.phases.size(), 2u);
  EXPECT_EQ(r.phases[0].tasks, 1u);
  EXPECT_EQ(r.phases[0].longest, 4 * kMillisecond);
  EXPECT_EQ(r.phases[1].tasks, 1u);
  EXPECT_EQ(r.phases[1].longest, 6 * kMillisecond);
  // Glue is the 1 ms barrier wait; the path is glue + each phase's longest.
  EXPECT_EQ(r.critical_path, 11 * kMillisecond);
  EXPECT_EQ(r.elapsed, 11 * kMillisecond);
}

TEST(CriticalPath, CapacityDecompositionAddsUp) {
  Machine m(butterfly1(4));
  Tracer tracer(m);
  const sim::PhysAddr remote = m.alloc(2, 64);  // off-node: mem_wait > 0
  m.spawn(0, [&] {
    sim::TraceSpan t(m, "us", "task");
    m.compute(1000);
    for (int i = 0; i < 16; ++i) (void)m.read<std::uint32_t>(remote);
  });
  m.run();

  const CriticalPathReport r = tracer.critical_path();
  EXPECT_EQ(r.worker_nodes, 1u);
  EXPECT_EQ(r.capacity, r.elapsed);
  EXPECT_GT(r.compute_ns, 0u);
  EXPECT_GT(r.mem_wait_ns, 0u);
  EXPECT_EQ(r.compute_ns + r.mem_wait_ns + r.contention_ns + r.idle_ns,
            r.capacity);
  EXPECT_GT(tracer.references_seen(), 0u);

  // The occupancy series saw the remote module's service time.
  const std::string metrics = tracer.metrics_json();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(json_parse(metrics, &v, &err)) << err;
  const JsonValue* series = v.find("series");
  ASSERT_NE(series, nullptr);
  const JsonValue* nodes = series->find("node");
  ASSERT_NE(nodes, nullptr);
  EXPECT_FALSE(nodes->arr.empty());
}

}  // namespace
}  // namespace bfly::scope
