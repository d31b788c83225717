#include "src/kernel/immortal.h"

namespace artemis {

ImmortalContext::ImmortalContext(NvmArena* nvm, MemOwner owner, const std::string& label) {
  if (nvm != nullptr) {
    nvm->Allocate(owner, sizeof(item_) + sizeof(cursor_) + sizeof(in_progress_), label);
  }
}

}  // namespace artemis
