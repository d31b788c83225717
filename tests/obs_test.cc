// Tests for the cross-layer observability bus (src/obs): event-kind naming
// and round-trips, JSONL determinism, trace diffing, the Perfetto exporter,
// the stats aggregator, and the text timeline rendered from kernel events.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/obs_stats.h"
#include "src/core/runtime.h"
#include "src/kernel/kernel.h"
#include "src/obs/bus.h"
#include "src/obs/jsonl_sink.h"
#include "src/obs/perfetto_sink.h"
#include "src/obs/trace_diff.h"
#include "src/sim/mcu.h"

namespace artemis {
namespace {

constexpr EnergyUj kOnBudgetUj = 19'500.0;
constexpr SimDuration kCharge6Min = 6 * kMinute - 1 * kSecond;

// ----------------------------------------------------------- event kinds --

TEST(ObsEventTest, KindNamesRoundTripThroughKindFromName) {
  for (int i = 0; i < obs::kNumKinds; ++i) {
    const obs::Kind kind = static_cast<obs::Kind>(i);
    const std::optional<obs::Kind> parsed = obs::KindFromName(obs::KindName(kind));
    ASSERT_TRUE(parsed.has_value()) << obs::KindName(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(obs::KindFromName("kernel.not-a-kind").has_value());
}

TEST(ObsEventTest, KindNamesAreUniqueAndComponentPrefixed) {
  std::set<std::string> names;
  for (int i = 0; i < obs::kNumKinds; ++i) {
    const obs::Kind kind = static_cast<obs::Kind>(i);
    const std::string name = obs::KindName(kind);
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
    const std::string prefix = std::string(obs::ComponentName(obs::ComponentOf(kind))) + ".";
    EXPECT_EQ(name.rfind(prefix, 0), 0u) << name << " lacks prefix " << prefix;
  }
}

// ------------------------------------------------------------ JSONL sink --

TEST(JsonlSinkTest, EventLineSerializesAllFields) {
  obs::Event e{.kind = obs::Kind::kViolation,
               .time = 1500,
               .true_time = 2500,
               .task = 1,
               .path = 2,
               .attempt = 3,
               .seq = 7,
               .duration = 42,
               .value = 2.0,
               .energy_uj = 12.5,
               .energy_fraction = 0.25,
               .action = "restartPath",
               .detail = "MITD(send<-accel)"};
  EXPECT_EQ(obs::JsonlSink::EventLine(e, {"a", "b"}),
            "{\"kind\":\"kernel.violation\",\"t\":1500,\"tt\":2500,\"task\":1,"
            "\"name\":\"b\",\"path\":2,\"attempt\":3,\"seq\":7,\"dur\":42,"
            "\"value\":2.0000,\"energy_uj\":12.5000,\"frac\":0.250000,"
            "\"action\":\"restartPath\",\"detail\":\"MITD(send<-accel)\"}");
}

TEST(JsonlSinkTest, EventLineOmitsDefaultFields) {
  EXPECT_EQ(obs::JsonlSink::EventLine(obs::Event{.kind = obs::Kind::kKernelBoot}, {}),
            "{\"kind\":\"kernel.boot\",\"t\":0,\"tt\":0}");
}

TEST(JsonlSinkTest, HeaderCarriesSchemaAndMetadata) {
  std::ostringstream out;
  obs::JsonlOptions options;
  options.app = "health";
  options.schedule = "6min";
  options.task_names = {"a"};
  obs::JsonlSink sink(out, options);
  EXPECT_EQ(out.str(),
            "{\"schema\":\"artemis-trace/1\",\"app\":\"health\",\"schedule\":\"6min\","
            "\"tasks\":[\"a\"]}\n");
}

std::string RunHealthJsonl() {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithFixedCharge(kOnBudgetUj, kCharge6Min).Build();
  std::ostringstream out;
  std::vector<std::string> names;
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    names.push_back(app.graph.TaskName(t));
  }
  obs::JsonlOptions options;
  options.app = "health";
  options.task_names = names;
  obs::JsonlSink sink(out, options);
  obs::EventBus bus;
  bus.AddSink(&sink);
  ArtemisConfig config;
  config.kernel.max_wall_time = 8 * kHour;
  config.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  EXPECT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  bus.Flush();
  return out.str();
}

TEST(JsonlSinkTest, IdenticalRunsProduceByteIdenticalTraces) {
  const std::string first = RunHealthJsonl();
  const std::string second = RunHealthJsonl();
  EXPECT_EQ(first, second);
  // The stream carries all three layers.
  EXPECT_NE(first.find("\"kind\":\"sim.power-fail\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"kernel.task-end\""), std::string::npos);
  EXPECT_NE(first.find("\"kind\":\"monitor.verdict\""), std::string::npos);
  const obs::TraceDiffResult diff = obs::DiffJsonlTraces(first, second);
  EXPECT_TRUE(diff.identical());
}

// ------------------------------------------------------------ trace diff --

TEST(TraceDiffTest, ReportsChangedAndExtraLines) {
  const obs::TraceDiffResult same = obs::DiffJsonlTraces("a\nb\n", "a\nb\n");
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.left_lines, 2u);

  const obs::TraceDiffResult diff = obs::DiffJsonlTraces("a\nb\n", "a\nc\nd\n");
  ASSERT_EQ(diff.differences.size(), 2u);
  EXPECT_EQ(diff.differences[0].line, 2u);
  EXPECT_EQ(diff.differences[0].left, "b");
  EXPECT_EQ(diff.differences[0].right, "c");
  EXPECT_EQ(diff.differences[1].line, 3u);
  EXPECT_EQ(diff.differences[1].left, "");
  EXPECT_EQ(diff.differences[1].right, "d");
  const std::string rendered = obs::RenderTraceDiff(diff, "left", "right");
  EXPECT_NE(rendered.find("- b"), std::string::npos);
  EXPECT_NE(rendered.find("+ c"), std::string::npos);
  EXPECT_NE(rendered.find("2 difference(s)"), std::string::npos);
}

// --------------------------------------------------------- perfetto sink --

TEST(PerfettoSinkTest, ExportsProcessMetadataSlicesAndCounters) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithFixedCharge(kOnBudgetUj, kCharge6Min).Build();
  std::ostringstream out;
  std::vector<std::string> names;
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    names.push_back(app.graph.TaskName(t));
  }
  obs::PerfettoSink sink(out, names);
  obs::EventBus bus;
  bus.AddSink(&sink);
  ArtemisConfig config;
  config.kernel.max_wall_time = 8 * kHour;
  config.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  bus.Flush();
  const std::string json = out.str();
  // Document shape: one traceEvents array, balanced braces/brackets.
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  // Component tracks, a completed task slice, a charging slice, counters.
  EXPECT_NE(json.find("\"name\":\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,"
                      "\"args\":{\"name\":\"monitor\"}}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"accel\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"charging\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"charge-fraction\",\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"energy-uj\",\"ph\":\"C\""), std::string::npos);
}

// ------------------------------------------------------- stats aggregator --

TEST(ObsStatsTest, HistogramTracksMomentsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.Summary(), "n=0 min=0.0 mean=0.0 max=0.0");
  h.Record(0.5);
  h.Record(1.0);
  h.Record(3.0);
  h.Record(7.5);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 7.5);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_EQ(h.buckets()[0], 1u);  // 0.5 -> [0, 1)
  EXPECT_EQ(h.buckets()[1], 1u);  // 1.0 -> [1, 2)
  EXPECT_EQ(h.buckets()[2], 1u);  // 3.0 -> [2, 4)
  EXPECT_EQ(h.buckets()[3], 1u);  // 7.5 -> [4, 8)
  EXPECT_EQ(h.Summary(), "n=4 min=0.5 mean=3.0 max=7.5");
}

TEST(ObsStatsTest, AggregatorCountsEventsAndAttributesPathEnergy) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder().WithFixedCharge(kOnBudgetUj, kCharge6Min).Build();
  obs::EventBus bus;
  ObsStatsAggregator agg;
  obs::CollectingSink collected;
  bus.AddSink(&agg);
  bus.AddSink(&collected);
  ArtemisConfig config;
  config.kernel.max_wall_time = 8 * kHour;
  config.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok()) << runtime.status().ToString();
  EXPECT_TRUE(runtime.value()->Run().completed);
  bus.Flush();

  EXPECT_EQ(agg.total_events(), collected.events().size());
  for (int i = 0; i < obs::kNumKinds; ++i) {
    const obs::Kind kind = static_cast<obs::Kind>(i);
    std::size_t expected = 0;
    for (const obs::Event& e : collected.events()) {
      expected += e.kind == kind ? 1 : 0;
    }
    EXPECT_EQ(agg.CountFor(kind), expected) << obs::KindName(kind);
  }
  // The health app has three paths; all complete (path 2 via the skip).
  EXPECT_EQ(agg.completed_paths(), 3u);
  EXPECT_EQ(agg.path_energy_uj().count(), 3u);
  EXPECT_GT(agg.path_energy_uj().sum(), 0.0);
  EXPECT_GT(agg.committed_bytes(), 0u);
  EXPECT_EQ(agg.verdict_cost_us().count(), agg.CountFor(obs::Kind::kMonitorVerdict));
  EXPECT_GT(agg.verdict_cost_us().min(), 0.0);
  // Violating verdicts are a subset of all verdicts.
  EXPECT_LE(agg.violation_latency_us().count(), agg.verdict_cost_us().count());
  EXPECT_GT(agg.violation_latency_us().count(), 0u);
  const std::string report = agg.Render();
  EXPECT_NE(report.find("events: total="), std::string::npos);
  EXPECT_NE(report.find("paths: completed=3"), std::string::npos);
}

// ------------------------------------------------------- text timeline --

TEST(TimelineTest, RendersKernelLifecycleEventsOnly) {
  auto at = [](obs::Kind kind, SimTime time, std::uint32_t task) {
    obs::Event e;
    e.kind = kind;
    e.time = time;
    e.task = task;
    e.path = 1;
    return e;
  };
  std::vector<obs::Event> events = {at(obs::Kind::kSimPowerFail, 0, obs::kObsNoTask),
                                    at(obs::Kind::kTaskStart, 0, 0),
                                    at(obs::Kind::kCommit, kSecond, 0),
                                    at(obs::Kind::kMonitorVerdict, kSecond, 0),
                                    at(obs::Kind::kTaskEnd, kSecond, 0),
                                    at(obs::Kind::kViolation, kSecond, 7)};
  events[1].attempt = 1;
  events[5].action = "skipPath";
  events[5].detail = "maxTries(a)";
  EXPECT_EQ(obs::RenderTimeline(events, {"alpha"}),
            "[00:00:00.000] task-start alpha path#1 attempt=1\n"
            "[00:00:01.000] task-end alpha path#1\n"
            "[00:00:01.000] property-violation task#7 path#1 action=skipPath "
            "[maxTries(a)]\n");
  obs::CollectingSink sink;
  for (const obs::Event& e : events) {
    sink.OnEvent(e);
  }
  EXPECT_EQ(sink.Count(obs::Kind::kTaskEnd), 1u);
  EXPECT_EQ(sink.Count(obs::Kind::kTaskEnd, 0), 1u);
  EXPECT_EQ(sink.Count(obs::Kind::kTaskEnd, 7), 0u);
}


std::unique_ptr<Mcu> AlwaysOnMcu() {
  return std::make_unique<Mcu>(std::make_unique<AlwaysOnPowerModel>(), DefaultCostModel());
}

TaskDef SimpleTask(const std::string& name) {
  return TaskDef{.name = name,
                 .work = {.duration = 10 * kMillisecond, .power = 1.0},
                 .effect = nullptr,
                 .monitored_var = std::nullopt};
}

// A checker that fires one scripted verdict on the first event matching
// (kind, task); enough to trigger skipTask / completePath traces.
class OneShotChecker : public PropertyChecker {
 public:
  OneShotChecker(EventKind kind, TaskId task, MonitorVerdict verdict)
      : kind_(kind), task_(task), verdict_(verdict) {}

  void HardReset(Mcu&) override {}
  void Finalize(Mcu&) override {}
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu&) override {
    CheckOutcome outcome;
    if (!fired_ && event.kind == kind_ && event.task == task_) {
      fired_ = true;
      outcome.verdict = verdict_;
    }
    return outcome;
  }
  void OnPathRestart(PathId, Mcu&) override {}
  std::string Name() const override { return "one-shot"; }

 private:
  EventKind kind_;
  TaskId task_;
  MonitorVerdict verdict_;
  bool fired_ = false;
};

TEST(TraceRenderTest, TaskSkippedRendersResolvedTaskName) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("alpha"));
  const TaskId b = graph.AddTask(SimpleTask("beta"));
  graph.AddPath({a, b});
  auto mcu = AlwaysOnMcu();
  OneShotChecker checker(EventKind::kStartTask, a,
                         MonitorVerdict{ActionType::kSkipTask, kNoPath, "p"});
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {.observer = &bus});
  EXPECT_TRUE(kernel.Run().completed);
  const std::string rendered = obs::RenderTimeline(events.events(), {"alpha", "beta"});
  EXPECT_NE(rendered.find("task-skipped alpha"), std::string::npos) << rendered;
  EXPECT_EQ(rendered.find("task#"), std::string::npos) << rendered;
}

TEST(TraceRenderTest, PathCompleteUnmonitoredRendersFinalTaskName) {
  AppGraph graph;
  const TaskId a = graph.AddTask(SimpleTask("alpha"));
  const TaskId b = graph.AddTask(SimpleTask("beta"));
  const TaskId c = graph.AddTask(SimpleTask("gamma"));
  graph.AddPath({a, b, c});
  auto mcu = AlwaysOnMcu();
  // completePath at end(alpha): beta and gamma run unmonitored, and the
  // trace records gamma as the task that closed the unmonitored tail.
  OneShotChecker checker(EventKind::kEndTask, a,
                         MonitorVerdict{ActionType::kCompletePath, kNoPath, "p"});
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  IntermittentKernel kernel(&graph, &checker, mcu.get(), {.observer = &bus});
  EXPECT_TRUE(kernel.Run().completed);
  EXPECT_EQ(events.Count(obs::Kind::kPathCompleteUnmonitored), 1u);
  const std::string rendered =
      obs::RenderTimeline(events.events(), {"alpha", "beta", "gamma"});
  EXPECT_NE(rendered.find("path-complete-unmonitored gamma"), std::string::npos) << rendered;
}

}  // namespace
}  // namespace artemis
