#include "src/sweep/spec_cache.h"

#include <utility>

namespace artemis {

StatusOr<SharedSpecArtifactPtr> CompiledSpecCache::Get(const std::string& key_scope,
                                                       const std::string& spec_text,
                                                       const AppGraph& graph,
                                                       SpecArtifactStage stage,
                                                       const LoweringOptions& lowering) {
  std::string key;
  key.reserve(key_scope.size() + spec_text.size() + 16);
  key += key_scope;
  key += '\x1f';
  key += SpecArtifactStageName(stage);
  key += '\x1f';
  key += lowering.collect_reset_on_fail ? '1' : '0';
  key += '\x1f';
  key += spec_text;

  std::shared_ptr<Entry> entry;
  bool builder = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++requests_;
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      entry = std::make_shared<Entry>();
      entries_.emplace(std::move(key), entry);
      builder = true;
      ++builds_;
      ++parses_;
      if (stage != SpecArtifactStage::kAst) {
        ++lowerings_;
      }
      if (stage == SpecArtifactStage::kCompiled) {
        ++compilations_;
      }
    } else {
      entry = it->second;
      while (!entry->ready) {
        ready_cv_.wait(lock);
      }
    }
  }

  if (builder) {
    // Pipeline runs outside the lock so unrelated keys build in parallel;
    // waiters for this key block on ready_cv_.
    StatusOr<SharedSpecArtifactPtr> built =
        BuildSpecArtifact(spec_text, graph, stage, lowering);
    std::lock_guard<std::mutex> lock(mu_);
    if (built.ok()) {
      entry->artifact = std::move(built).value();
    } else {
      entry->status = built.status();
    }
    entry->ready = true;
    ready_cv_.notify_all();
  }

  if (!entry->status.ok()) {
    return entry->status;
  }
  return entry->artifact;
}

std::uint64_t CompiledSpecCache::requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_;
}
std::uint64_t CompiledSpecCache::builds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return builds_;
}
std::uint64_t CompiledSpecCache::parses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parses_;
}
std::uint64_t CompiledSpecCache::lowerings() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lowerings_;
}
std::uint64_t CompiledSpecCache::compilations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compilations_;
}

}  // namespace artemis
