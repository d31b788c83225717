// Randomized failure-injection sweeps: the kernel/monitor invariants that
// make intermittent execution safe must hold under arbitrary power traces.
//
// Invariants checked per random seed:
//  * exactly-once effects: a task's data effect runs once per committed
//    completion, never for aborted attempts;
//  * channel consistency: committed samples == committed completions for a
//    push-one-per-run producer;
//  * event discipline: seq strictly monotonic, EndTask timestamps are
//    commit-time (never inside a later outage), every EndTask is preceded by
//    a StartTask of the same task;
//  * monitor exactly-once: the MonitorSet processes each distinct event seq
//    exactly once no matter how many power failures interrupt checking.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "src/apps/health_app.h"
#include "src/core/builder.h"
#include "src/core/runtime.h"
#include "src/kernel/kernel.h"
#include "src/monitor/monitor_set.h"
#include "src/spec/parser.h"

namespace artemis {
namespace {

// Wraps a checker, recording delivered events and outcomes.
class RecordingChecker : public PropertyChecker {
 public:
  explicit RecordingChecker(PropertyChecker* inner) : inner_(inner) {}

  void HardReset(Mcu& mcu) override { inner_->HardReset(mcu); }
  void Finalize(Mcu& mcu) override { inner_->Finalize(mcu); }
  CheckOutcome OnEvent(const MonitorEvent& event, Mcu& mcu) override {
    const CheckOutcome outcome = inner_->OnEvent(event, mcu);
    if (outcome.status == 0) {
      completed_deliveries.push_back(event);
    }
    return outcome;
  }
  void OnPathRestart(PathId path, Mcu& mcu) override { inner_->OnPathRestart(path, mcu); }
  std::string Name() const override { return "recording(" + inner_->Name() + ")"; }

  std::vector<MonitorEvent> completed_deliveries;

 private:
  PropertyChecker* inner_;
};

class FailureInjectionTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FailureInjectionTest, KernelInvariantsUnderRandomPower) {
  const std::uint64_t seed = GetParam();

  AppGraph graph;
  int producer_effects = 0;
  int consumer_effects = 0;
  const TaskId producer = graph.AddTask(TaskDef{
      .name = "producer",
      .work = {.duration = 80 * kMillisecond, .power = 5.0},
      .effect =
          [&producer_effects](TaskContext& ctx) {
            ++producer_effects;
            ctx.Push(1.0);
          },
      .monitored_var = std::nullopt,
  });
  const TaskId consumer = graph.AddTask(TaskDef{
      .name = "consumer",
      .work = {.duration = 120 * kMillisecond, .power = 8.0},
      .effect = [&consumer_effects](TaskContext&) { ++consumer_effects; },
      .monitored_var = std::nullopt,
  });
  const TaskId sink = graph.AddTask(TaskDef{
      .name = "sink",
      .work = {.duration = 40 * kMillisecond, .power = 20.0},
      .effect = nullptr,
      .monitored_var = std::nullopt,
  });
  graph.AddPath({producer, consumer});
  graph.AddPath({sink});

  auto parsed = SpecParser::Parse(R"(
    consumer: { collect: 3 dpTask: producer onFail: restartPath; }
    sink: { maxTries: 6 onFail: skipPath; }
  )");
  ASSERT_TRUE(parsed.ok());
  auto monitors = std::move(BuildMonitorSet(parsed.value(), graph, MonitorBackend::kBuiltin))
                      .value();
  RecordingChecker recorder(monitors.get());

  auto mcu = PlatformBuilder()
                 .WithStochasticPower(/*mean_on=*/600 * kMillisecond,
                                      /*mean_charge=*/2 * kSecond, seed)
                 .Build();
  KernelOptions options;
  options.seed = seed;
  options.max_wall_time = kHour;
  IntermittentKernel kernel(&graph, &recorder, mcu.get(), options);
  const KernelRunResult result = kernel.Run();

  ASSERT_TRUE(result.completed) << "seed " << seed;

  // Exactly-once effects.
  EXPECT_EQ(static_cast<std::uint64_t>(producer_effects),
            kernel.channels().CompletionCount(producer));
  EXPECT_EQ(static_cast<std::uint64_t>(consumer_effects),
            kernel.channels().CompletionCount(consumer));
  // Channel consistency: one sample per committed producer run, and the
  // producer ran at least the 3 times the collect property demands.
  EXPECT_EQ(kernel.channels().Samples(producer).size(),
            kernel.channels().CompletionCount(producer));
  EXPECT_GE(kernel.channels().CompletionCount(producer), 3u);

  // Event discipline.
  std::uint64_t last_seq = 0;
  std::map<TaskId, int> live_starts;
  for (const MonitorEvent& e : recorder.completed_deliveries) {
    EXPECT_GT(e.seq, last_seq);
    last_seq = e.seq;
    if (e.kind == EventKind::kStartTask) {
      ++live_starts[e.task];
    } else {
      EXPECT_GE(live_starts[e.task], 1) << "EndTask without a preceding StartTask";
    }
  }

  // Monitor exactly-once: processed events == distinct seqs delivered.
  std::set<std::uint64_t> distinct;
  for (const MonitorEvent& e : recorder.completed_deliveries) {
    distinct.insert(e.seq);
  }
  EXPECT_EQ(monitors->events_processed(), distinct.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FailureInjectionTest,
                         ::testing::Range<std::uint64_t>(1, 26));

class HealthFailureSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HealthFailureSweepTest, HealthAppDataIntegrityUnderRandomPower) {
  HealthApp app = BuildHealthApp();
  auto mcu = PlatformBuilder()
                 .WithStochasticPower(/*mean_on=*/3 * kSecond, /*mean_charge=*/10 * kSecond,
                                      GetParam())
                 .Build();
  obs::EventBus bus;
  obs::CollectingSink events;
  bus.AddSink(&events);
  ArtemisConfig config;
  config.kernel.seed = GetParam();
  config.kernel.max_wall_time = 12 * kHour;
  config.kernel.observer = &bus;
  auto runtime = ArtemisRuntime::Create(&app.graph, HealthAppSpec(), mcu.get(), config);
  ASSERT_TRUE(runtime.ok());
  const KernelRunResult result = runtime.value()->Run();
  ASSERT_TRUE(result.completed) << "seed " << GetParam();

  const ChannelStore& channels = runtime.value()->kernel().channels();
  // calcAvg consumed the bodyTemp samples it averaged; whatever remains is
  // bounded by what later restarts produced before path #1 finished.
  if (channels.CompletionCount(app.calc_avg) > 0) {
    EXPECT_LE(channels.Samples(app.body_temp).size(), 10u);
    // Its committed average is a plausible body temperature.
    const auto avg = channels.MonitoredValue(app.calc_avg);
    ASSERT_TRUE(avg.has_value());
    EXPECT_GT(*avg, 34.0);
    EXPECT_LT(*avg, 40.0);
  }
  // Aborted task bodies never commit: completions never exceed starts.
  for (TaskId t = 0; t < app.graph.task_count(); ++t) {
    EXPECT_LE(events.Count(obs::Kind::kTaskEnd, t), events.Count(obs::Kind::kTaskStart, t))
        << app.graph.TaskName(t);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HealthFailureSweepTest,
                         ::testing::Range<std::uint64_t>(100, 115));

}  // namespace
}  // namespace artemis
