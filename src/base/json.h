// The JSON writer. Every JSON export in the tree (sweep and fleet reports,
// analyzer diagnostics, the JSONL/Perfetto exporters and the forensics
// dump) escapes strings through it, so they all agree on one encoding.
//
// The Append* functions write straight into a caller's string, so a
// renderer can build a large document in one reserved buffer with no
// per-field temporaries. Number formats match the printf conversions
// ("%" PRIu64, "%" PRId64, "%.*f") byte for byte, so an export moved onto
// them keeps its bytes.
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace artemis {

// Escapes `s` for use inside a JSON string literal: quote, backslash, \n
// and \t get their short forms; every other control byte becomes \u00XX.
std::string JsonEscape(std::string_view s);

// Appends `s` as a quoted JSON string literal, escaped as JsonEscape does.
void AppendJsonString(std::string& out, std::string_view s);

// Appends `v` in decimal, like printf("%" PRIu64) / ("%" PRId64).
void AppendUint(std::string& out, std::uint64_t v);
void AppendInt(std::string& out, std::int64_t v);

// Appends `v` with exactly `digits` (>= 0) fractional digits, like
// printf("%.*f", digits, v), including "inf", "-inf", "nan" and "-0.000".
void AppendFixed(std::string& out, double v, int digits);

}  // namespace artemis

#endif  // SRC_BASE_JSON_H_
