#include "src/analysis/diagnostics.h"

#include <sstream>

#include "src/base/json.h"

namespace artemis {

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kNote:
      return "note";
    case DiagSeverity::kWarning:
      return "warning";
    case DiagSeverity::kError:
      return "error";
  }
  return "?";
}

std::string RenderDiagnosticText(const Diagnostic& d, const std::string& file) {
  std::ostringstream out;
  out << file;
  if (d.span.valid()) {
    out << ":" << d.span.line << ":" << d.span.column;
  }
  out << ": " << DiagSeverityName(d.severity) << "[" << d.code << "]: machine '" << d.machine
      << "'";
  if (!d.property.empty()) {
    out << " (" << d.property << ")";
  }
  out << ": " << d.message << "\n";
  if (!d.note.empty()) {
    out << "    note: " << d.note << "\n";
  }
  return out.str();
}

std::string RenderDiagnosticsJson(const std::vector<Diagnostic>& diagnostics) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "  {\n";
    out << "    \"code\": \"" << JsonEscape(d.code) << "\",\n";
    out << "    \"severity\": \"" << DiagSeverityName(d.severity) << "\",\n";
    out << "    \"machine\": \"" << JsonEscape(d.machine) << "\",\n";
    out << "    \"property\": \"" << JsonEscape(d.property) << "\",\n";
    out << "    \"state\": \"" << JsonEscape(d.state) << "\",\n";
    out << "    \"transition\": ";
    if (d.transition >= 0) {
      out << d.transition;
    } else {
      out << "null";
    }
    out << ",\n";
    out << "    \"line\": " << d.span.line << ",\n";
    out << "    \"column\": " << d.span.column << ",\n";
    out << "    \"message\": \"" << JsonEscape(d.message) << "\",\n";
    out << "    \"note\": \"" << JsonEscape(d.note) << "\"\n";
    out << "  }";
  }
  out << (diagnostics.empty() ? "]\n" : "\n]\n");
  return out.str();
}

void DiagnosticEngine::Report(Diagnostic d) {
  if (promote_warnings_ && d.severity == DiagSeverity::kWarning) {
    d.severity = DiagSeverity::kError;
    if (d.note.empty()) {
      d.note = "promoted from warning by -Werror";
    } else {
      d.note += " (promoted from warning by -Werror)";
    }
  }
  diagnostics_.push_back(std::move(d));
}

std::size_t DiagnosticEngine::ErrorCount() const {
  std::size_t count = 0;
  for (const Diagnostic& d : diagnostics_) {
    count += d.severity == DiagSeverity::kError ? 1 : 0;
  }
  return count;
}

std::size_t DiagnosticEngine::WarningCount() const {
  std::size_t count = 0;
  for (const Diagnostic& d : diagnostics_) {
    count += d.severity == DiagSeverity::kWarning ? 1 : 0;
  }
  return count;
}

std::string DiagnosticEngine::RenderText(const std::string& file) const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += RenderDiagnosticText(d, file);
  }
  return out;
}

}  // namespace artemis
