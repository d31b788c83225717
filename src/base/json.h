// JSON string escaping shared by every JSON writer in the tree (sweep and
// fleet reports, analyzer diagnostics, the JSONL/Perfetto exporters and the
// forensics dump), so they all agree on one encoding.
#ifndef SRC_BASE_JSON_H_
#define SRC_BASE_JSON_H_

#include <string>

namespace artemis {

// Escapes `s` for use inside a JSON string literal: quote, backslash, \n
// and \t get their short forms; every other control byte becomes \u00XX.
std::string JsonEscape(const std::string& s);

}  // namespace artemis

#endif  // SRC_BASE_JSON_H_
