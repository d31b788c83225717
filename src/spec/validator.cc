#include "src/spec/validator.h"

#include <algorithm>

namespace artemis {
namespace {

Status ErrorAt(int line, const std::string& message) {
  return Status::Invalid("line " + std::to_string(line) + ": " + message);
}

bool NeedsDpTask(PropertyKind kind) {
  return kind == PropertyKind::kMitd || kind == PropertyKind::kCollect;
}

bool IsTimeProperty(PropertyKind kind) {
  return kind == PropertyKind::kMitd || kind == PropertyKind::kPeriod;
}

// True when `dep` appears before `task` in some path, or completes in an
// earlier path than one containing `task`.
bool DependencyReachable(const AppGraph& graph, TaskId dep, TaskId task) {
  for (PathId p = 1; p <= graph.path_count(); ++p) {
    const auto& path = graph.path(p);
    const auto dep_it = std::find(path.begin(), path.end(), dep);
    const auto task_it = std::find(path.begin(), path.end(), task);
    if (dep_it != path.end() && task_it != path.end() && dep_it < task_it) {
      return true;
    }
  }
  // Earlier-path completion also satisfies the dependency.
  const std::vector<PathId> dep_paths = graph.PathsContaining(dep);
  const std::vector<PathId> task_paths = graph.PathsContaining(task);
  for (const PathId dp : dep_paths) {
    for (const PathId tp : task_paths) {
      if (dp < tp) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

ValidationResult SpecValidator::Validate(const SpecAst& spec, const AppGraph& graph) {
  ValidationResult result;

  for (const TaskBlockAst& block : spec.blocks) {
    const std::optional<TaskId> task = graph.FindTask(block.task);
    if (!task.has_value()) {
      result.status = ErrorAt(block.line, "unknown task '" + block.task + "'");
      return result;
    }
    if (graph.PathsContaining(*task).empty()) {
      result.warnings.push_back("task '" + block.task + "' is not on any path");
    }

    for (const PropertyAst& p : block.properties) {
      const std::string label = p.Label(block.task);

      // dpTask.
      if (NeedsDpTask(p.kind)) {
        if (p.dp_task.empty()) {
          result.status = ErrorAt(p.line, label + " requires dpTask");
          return result;
        }
        const std::optional<TaskId> dep = graph.FindTask(p.dp_task);
        if (!dep.has_value()) {
          result.status = ErrorAt(p.line, label + ": unknown dpTask '" + p.dp_task + "'");
          return result;
        }
        if (!DependencyReachable(graph, *dep, *task)) {
          result.warnings.push_back(label + ": dependency task '" + p.dp_task +
                                    "' never completes before '" + block.task +
                                    "' on any path order");
        }
      } else if (!p.dp_task.empty()) {
        result.status = ErrorAt(p.line, label + " does not take dpTask");
        return result;
      }

      // onFail.
      if (!p.has_on_fail) {
        result.status = ErrorAt(p.line, label + " is missing onFail");
        return result;
      }
      if (p.max_attempt != 0 && !p.has_max_attempt_action) {
        result.status =
            ErrorAt(p.line, label + ": maxAttempt requires a second onFail action");
        return result;
      }
      if (p.max_attempt != 0 && !IsTimeProperty(p.kind)) {
        result.warnings.push_back(label +
                                  ": maxAttempt is meant for time-related properties "
                                  "(MITD, period)");
      }

      // Path: must contain the anchor task (scope + target) or, for
      // dependency properties, the dpTask (cross-path restart target).
      if (p.path != kNoPath) {
        if (p.path > graph.path_count()) {
          result.status = ErrorAt(p.line, label + ": no path #" + std::to_string(p.path));
          return result;
        }
        const auto& path = graph.path(p.path);
        const bool has_anchor = std::find(path.begin(), path.end(), *task) != path.end();
        bool has_dep = false;
        if (!p.dp_task.empty()) {
          const std::optional<TaskId> dep = graph.FindTask(p.dp_task);
          has_dep = dep.has_value() &&
                    std::find(path.begin(), path.end(), *dep) != path.end();
        }
        if (!has_anchor && !has_dep) {
          result.status = ErrorAt(
              p.line, label + ": path #" + std::to_string(p.path) + " contains neither '" +
                          block.task + "' nor its dependency");
          return result;
        }
      }

      // Per-kind value checks.
      switch (p.kind) {
        case PropertyKind::kMaxTries:
        case PropertyKind::kCollect:
          if (p.count == 0) {
            result.status = ErrorAt(p.line, label + ": count must be positive");
            return result;
          }
          break;
        case PropertyKind::kMaxDuration:
          if (p.duration == 0) {
            result.status = ErrorAt(p.line, label + ": duration must be positive");
            return result;
          }
          break;
        case PropertyKind::kMitd:
        case PropertyKind::kPeriod:
          if (p.duration == 0) {
            result.status = ErrorAt(p.line, label + ": duration must be positive");
            return result;
          }
          break;
        case PropertyKind::kDpData: {
          if (!p.has_range) {
            result.status = ErrorAt(p.line, label + " requires Range");
            return result;
          }
          if (p.range_lo > p.range_hi) {
            result.status = ErrorAt(p.line, label + ": Range lower bound exceeds upper bound");
            return result;
          }
          const auto& var = graph.task(*task).monitored_var;
          if (!var.has_value()) {
            result.status = ErrorAt(
                p.line, label + ": task '" + block.task + "' declares no monitored variable");
            return result;
          }
          if (*var != p.dp_data_var) {
            result.status =
                ErrorAt(p.line, label + ": task monitors '" + *var + "', not '" +
                                    p.dp_data_var + "'");
            return result;
          }
          break;
        }
        case PropertyKind::kMinEnergy:
          if (p.min_energy <= 0.0 || p.min_energy > 1.0) {
            result.status = ErrorAt(p.line, label + ": energy fraction must be in (0, 1]");
            return result;
          }
          break;
      }
    }
  }
  return result;
}

}  // namespace artemis
