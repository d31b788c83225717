// The cross-layer event bus. Publishers (Mcu, IntermittentKernel,
// MonitorSet) hold a nullable EventBus pointer and publish only when it is
// set, so with tracing off the whole observability layer costs one null
// check per site — no simulated cycles are ever charged, which keeps the
// Figure 14/15 overhead numbers bit-identical whether tracing is on or off.
//
// Sinks are non-owning: the experiment driver (artemisc trace, a bench, a
// test) owns both the bus and its sinks and controls flush order.
#ifndef SRC_OBS_BUS_H_
#define SRC_OBS_BUS_H_

#include <vector>

#include "src/obs/event.h"

namespace artemis::obs {

class Sink {
 public:
  virtual ~Sink() = default;
  virtual void OnEvent(const Event& event) = 0;
  // Called once after the run; stream sinks finalize their output here.
  virtual void Flush() {}
};

class EventBus {
 public:
  // `sink` must outlive the bus; passing nullptr is ignored.
  void AddSink(Sink* sink) {
    if (sink != nullptr) {
      sinks_.push_back(sink);
    }
  }

  bool active() const { return !sinks_.empty(); }

  void Publish(const Event& event) {
    for (Sink* sink : sinks_) {
      sink->OnEvent(event);
    }
  }

  void Flush() {
    for (Sink* sink : sinks_) {
      sink->Flush();
    }
  }

 private:
  std::vector<Sink*> sinks_;
};

// In-memory sink for benches and tests: keeps every event in publish order.
class CollectingSink : public Sink {
 public:
  void OnEvent(const Event& event) override { events_.push_back(event); }
  const std::vector<Event>& events() const { return events_; }
  void Clear() { events_.clear(); }

  // Number of collected events of `kind` (optionally only for `task`).
  std::size_t Count(Kind kind, std::uint32_t task = kObsNoTask) const {
    std::size_t n = 0;
    for (const Event& e : events_) {
      n += e.kind == kind && (task == kObsNoTask || e.task == task) ? 1 : 0;
    }
    return n;
  }

 private:
  std::vector<Event> events_;
};

}  // namespace artemis::obs

#endif  // SRC_OBS_BUS_H_
