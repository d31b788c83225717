// Local-continuation support for power-failure-resilient step sequences,
// modelled after the ImmortalThreads library the paper uses to make
// generated monitors intermittently executable (Section 4.2.3).
//
// An ImmortalContext persists a step cursor keyed by a work-item id. A
// client processing N steps for item `id` asks Begin(id, N): if the same
// item was interrupted earlier, the saved cursor is returned and completed
// steps are skipped; otherwise the cursor starts at zero. The client calls
// CompleteStep after each durable step and Finish when the item is done.
#ifndef SRC_KERNEL_IMMORTAL_H_
#define SRC_KERNEL_IMMORTAL_H_

#include <cstdint>
#include <string>

#include "src/sim/memory.h"

namespace artemis {

class ImmortalContext {
 public:
  // Registers the persistent cursor with the NVM arena for accounting.
  ImmortalContext(NvmArena* nvm, MemOwner owner, const std::string& label);

  // Starts (or resumes) processing of work item `id`. Returns the index of
  // the first step that still needs to run (0 for a fresh item).
  std::uint32_t Begin(std::uint64_t id) {
    if (in_progress_ && item_ == id) {
      return cursor_;  // Resume the interrupted item.
    }
    item_ = id;
    cursor_ = 0;
    in_progress_ = true;
    return 0;
  }

  // Marks one more step of the current item durably complete.
  void CompleteStep() { ++cursor_; }

  // Marks the current item fully processed.
  void Finish() {
    in_progress_ = false;
    cursor_ = 0;
  }

  bool InProgress() const { return in_progress_; }
  std::uint64_t CurrentItem() const { return item_; }
  std::uint32_t Cursor() const { return cursor_; }

 private:
  // These three fields model FRAM-resident variables: they survive simulated
  // power failures because the simulation never destroys this object.
  std::uint64_t item_ = 0;
  std::uint32_t cursor_ = 0;
  bool in_progress_ = false;
};

}  // namespace artemis

#endif  // SRC_KERNEL_IMMORTAL_H_
