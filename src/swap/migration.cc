#include "src/swap/migration.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/analysis/analyzer.h"
#include "src/ir/compile.h"

namespace artemis {
namespace {

// The literal target name that marks an explicit conservative reset in a
// `state M: Old -> initial;` rule.
constexpr char kInitialTarget[] = "initial";

int IndexOf(const std::vector<std::string>& names, const std::string& name) {
  const auto it = std::find(names.begin(), names.end(), name);
  return it == names.end() ? -1 : static_cast<int>(it - names.begin());
}

Diagnostic MigrationDiag(DiagSeverity severity, const std::string& machine,
                         const std::string& property, SourceSpan span, std::string message,
                         std::string note = {}) {
  Diagnostic d;
  d.code = diag::kMigrationMismatch;
  d.severity = severity;
  d.machine = machine;
  d.property = property;
  d.span = span;
  d.message = std::move(message);
  d.note = std::move(note);
  return d;
}

const char* RuleKindName(MigrationRuleAst::Kind kind) {
  switch (kind) {
    case MigrationRuleAst::Kind::kMachine:
      return "machine";
    case MigrationRuleAst::Kind::kState:
      return "state";
    case MigrationRuleAst::Kind::kSlot:
      return "slot";
  }
  return "?";
}

}  // namespace

std::size_t MigrationPlan::StagedBytes() const {
  std::size_t bytes = 0;
  for (const MachineMigration& m : machines) {
    bytes += 2 + 8 * m.slot_sources.size();
  }
  return bytes;
}

MigrationPlan PlanMigration(const MonitorImage& old_image, const MonitorImage& new_image,
                            const AppGraph& graph, DiagnosticEngine* engine) {
  const std::vector<CompiledMachine>& oldc = old_image.artifact->compiled;
  const std::vector<CompiledMachine>& newc = new_image.artifact->compiled;
  const MigrationAst& mig = new_image.artifact->ast.migration;

  std::map<std::string, int> old_by_name;
  for (std::size_t i = 0; i < oldc.size(); ++i) {
    old_by_name[oldc[i].name] = static_cast<int>(i);
  }
  std::map<std::string, int> new_by_name;
  for (std::size_t i = 0; i < newc.size(); ++i) {
    new_by_name[newc[i].name] = static_cast<int>(i);
  }

  // ---- pass 1: validate rules, collect overrides ------------------------
  // machine rules keyed by NEW machine name; state/slot rules keyed by
  // (new machine name, old source name).
  std::map<std::string, const MigrationRuleAst*> machine_rules;
  std::map<std::pair<std::string, std::string>, const MigrationRuleAst*> state_rules;
  std::map<std::pair<std::string, std::string>, const MigrationRuleAst*> slot_rules;
  std::set<std::string> dup_keys;
  for (const MigrationRuleAst& rule : mig.rules) {
    const std::string dup_key = std::string(RuleKindName(rule.kind)) + "\x1f" + rule.machine +
                                "\x1f" + rule.from;
    if (!dup_keys.insert(dup_key).second) {
      engine->Report(MigrationDiag(
          DiagSeverity::kError, rule.machine.empty() ? rule.from : rule.machine, "",
          rule.Span(),
          std::string("duplicate migrate rule: `") + RuleKindName(rule.kind) + "` already maps `" +
              rule.from + "`",
          "each old machine/state/slot may be the source of at most one rule"));
      continue;
    }
    switch (rule.kind) {
      case MigrationRuleAst::Kind::kMachine: {
        const bool from_ok = old_by_name.count(rule.from) != 0;
        const bool to_ok = new_by_name.count(rule.to) != 0;
        if (!from_ok || !to_ok) {
          engine->Report(MigrationDiag(
              DiagSeverity::kError, !from_ok ? rule.from : rule.to, "", rule.Span(),
              std::string("migrate rule names unknown machine `") +
                  (!from_ok ? rule.from : rule.to) + "`",
              !from_ok ? "the installed image has no machine with this name"
                       : "the replacement image has no machine with this name"));
          break;
        }
        machine_rules[rule.to] = &rule;
        break;
      }
      case MigrationRuleAst::Kind::kState:
        state_rules[{rule.machine, rule.from}] = &rule;
        break;
      case MigrationRuleAst::Kind::kSlot:
        slot_rules[{rule.machine, rule.from}] = &rule;
        break;
    }
  }

  // ---- pass 2: pair machines --------------------------------------------
  MigrationPlan plan;
  plan.machines.resize(newc.size());
  std::vector<bool> old_claimed(oldc.size(), false);
  for (std::size_t j = 0; j < newc.size(); ++j) {
    const auto explicit_rule = machine_rules.find(newc[j].name);
    if (explicit_rule != machine_rules.end()) {
      const int oi = old_by_name[explicit_rule->second->from];
      plan.machines[j].old_index = oi;
      old_claimed[oi] = true;
    }
  }
  for (std::size_t j = 0; j < newc.size(); ++j) {
    if (plan.machines[j].old_index >= 0) {
      continue;
    }
    const auto it = old_by_name.find(newc[j].name);
    if (it != old_by_name.end() && !old_claimed[it->second]) {
      plan.machines[j].old_index = it->second;
      old_claimed[it->second] = true;
    }
  }

  // ---- pass 3: per-machine state and slot maps ---------------------------
  std::set<const MigrationRuleAst*> used_rules;
  for (std::size_t j = 0; j < newc.size(); ++j) {
    MachineMigration& m = plan.machines[j];
    const CompiledMachine& nm = newc[j];
    m.slot_sources.assign(nm.var_names.size(), -1);
    if (m.old_index < 0) {
      continue;  // Fresh machine: initial state, initial slots.
    }
    const CompiledMachine& om = oldc[m.old_index];
    const StateMachine& old_ir = old_image.artifact->machines[m.old_index];
    const StateMachine& new_ir = new_image.artifact->machines[j];
    const MachineFacts old_facts = ComputeMachineFacts(old_ir, graph);

    m.state_map.assign(om.state_names.size(), nm.initial);
    for (std::size_t s = 0; s < om.state_names.size(); ++s) {
      const std::string& state_name = om.state_names[s];
      const auto rule_it = state_rules.find({nm.name, state_name});
      if (rule_it != state_rules.end()) {
        used_rules.insert(rule_it->second);
        const MigrationRuleAst& rule = *rule_it->second;
        if (rule.to == kInitialTarget) {
          continue;  // Explicit conservative reset; no warning.
        }
        const int to = IndexOf(nm.state_names, rule.to);
        if (to < 0) {
          engine->Report(MigrationDiag(
              DiagSeverity::kError, nm.name, nm.property_label, rule.Span(),
              "migrate rule maps state `" + state_name + "` to unknown state `" + rule.to + "`",
              "the replacement machine has states: use `initial` for an explicit reset"));
          continue;
        }
        m.state_map[s] = static_cast<std::uint16_t>(to);
        continue;
      }
      const int to = IndexOf(nm.state_names, state_name);
      if (to >= 0) {
        m.state_map[s] = static_cast<std::uint16_t>(to);
        continue;
      }
      // No image in the new machine: the plan resets this state. Warn only
      // when losing it could lose live progress — it is reachable and not
      // the initial state.
      const int ir_idx = IndexOf(old_ir.states, state_name);
      const bool reachable =
          ir_idx >= 0 && static_cast<std::size_t>(ir_idx) < old_facts.reachable_state.size() &&
          old_facts.reachable_state[ir_idx];
      if (reachable && s != om.initial) {
        engine->Report(MigrationDiag(
            DiagSeverity::kWarning, nm.name, nm.property_label, new_ir.source,
            "live state `" + state_name + "` has no image in the replacement machine",
            "a device swapped while in it restarts the property from `" +
                nm.state_names[nm.initial] + "`; silence with `state " + nm.name + ": " +
                state_name + " -> initial;`"));
      }
    }

    // Slots: explicit rules first, then name+type matches.
    std::vector<bool> old_slot_used(om.var_names.size(), false);
    for (std::size_t t = 0; t < nm.var_names.size(); ++t) {
      const std::string& slot_name = nm.var_names[t];
      int source = -1;
      for (const auto& [key, rule] : slot_rules) {
        if (key.first != nm.name || rule->to != slot_name) {
          continue;
        }
        used_rules.insert(rule);
        source = IndexOf(om.var_names, rule->from);
        if (source < 0) {
          engine->Report(MigrationDiag(
              DiagSeverity::kError, nm.name, nm.property_label, rule->Span(),
              "migrate rule carries unknown slot `" + rule->from + "`",
              "the installed machine has no slot with this name"));
          break;
        }
        const SlotType from_type = om.slot_types[source];
        const SlotType to_type = nm.slot_types[t];
        if (from_type != to_type) {
          engine->Report(MigrationDiag(
              DiagSeverity::kError, nm.name, nm.property_label, rule->Span(),
              std::string("migrate rule carries slot `") + rule->from + "` (" +
                  SlotTypeName(from_type) + ") into `" + slot_name + "` (" +
                  SlotTypeName(to_type) + ")",
              "the on-device widths differ; values cannot be carried across slot types"));
          source = -1;
        }
        break;
      }
      if (source < 0) {
        const int implicit = IndexOf(om.var_names, slot_name);
        if (implicit >= 0) {
          if (om.slot_types[implicit] == nm.slot_types[t]) {
            source = implicit;
          } else {
            engine->Report(MigrationDiag(
                DiagSeverity::kWarning, nm.name, nm.property_label, new_ir.source,
                "slot `" + slot_name + "` changed type from " +
                    SlotTypeName(om.slot_types[implicit]) + " to " +
                    SlotTypeName(nm.slot_types[t]),
                "the value is NOT carried; the slot resets to its initial value"));
            old_slot_used[implicit] = true;  // Accounted for; not "dropped".
          }
        }
      }
      if (source >= 0) {
        m.slot_sources[t] = source;
        old_slot_used[source] = true;
      }
    }
    for (std::size_t s = 0; s < om.var_names.size(); ++s) {
      if (!old_slot_used[s]) {
        engine->Report(MigrationDiag(
            DiagSeverity::kWarning, nm.name, nm.property_label, new_ir.source,
            "slot `" + om.var_names[s] + "` of the installed machine is dropped",
            "its value is lost at the swap; map it with `slot " + nm.name + ": " +
                om.var_names[s] + " -> <new slot>;` to carry it"));
      }
    }
  }

  // ---- pass 4: rules that resolved to nothing, dropped machines ----------
  for (const auto& [key, rule] : state_rules) {
    if (used_rules.count(rule) != 0) {
      continue;
    }
    engine->Report(MigrationDiag(
        DiagSeverity::kError, key.first, "", rule->Span(),
        "migrate rule matches nothing: no machine `" + key.first + "` with old state `" +
            key.second + "`",
        "state rules name the REPLACEMENT machine and an installed-image state"));
  }
  for (const auto& [key, rule] : slot_rules) {
    if (used_rules.count(rule) != 0) {
      continue;
    }
    engine->Report(MigrationDiag(
        DiagSeverity::kError, key.first, "", rule->Span(),
        "migrate rule matches nothing: no machine `" + key.first + "` with a slot carried to `" +
            rule->to + "`",
        "slot rules name the REPLACEMENT machine, an old slot, and a new slot"));
  }
  for (std::size_t i = 0; i < oldc.size(); ++i) {
    if (!old_claimed[i]) {
      // Spanless: findings render against the replacement spec, and this
      // machine lives in the installed one, so its position goes in the note.
      engine->Report(MigrationDiag(
          DiagSeverity::kWarning, oldc[i].name, oldc[i].property_label, {},
          "installed machine `" + oldc[i].name + "` has no counterpart in the replacement",
          "declared at " + old_image.artifact->machines[i].source.ToString() +
              " of the installed spec; its state is discarded; rename with `machine " +
              oldc[i].name + " -> <new machine>;` if the property survived under a new name"));
    }
  }
  return plan;
}

}  // namespace artemis
