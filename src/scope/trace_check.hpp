// Validation for exported Chrome trace-event JSON.
//
// Used by the scope unit tests and by tools/trace_validate (the ci/check.sh
// gate): the trace must parse as JSON, its timestamps must be monotone
// non-decreasing, and every duration begin ("B") must balance with an end
// ("E") on the same (pid, tid) track.  The parser is a tiny recursive
// descent over the full JSON grammar — self-contained so the gate does not
// depend on any host tooling beyond the C++ toolchain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace bfly::scope {

/// A parsed JSON value (enough structure for validation and tests).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  const JsonValue* find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

/// Parse `text` as a JSON document.  Returns false (with a message in
/// `error` when given) on any syntax violation, including trailing junk and
/// a key repeated within one object.
bool json_parse(std::string_view text, JsonValue* out,
                std::string* error = nullptr);

struct TraceCheckStats {
  std::size_t events = 0;
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t instants = 0;
  std::size_t counters = 0;
  std::size_t metadata = 0;
};

/// Validate a Chrome trace-event JSON document: parses, "traceEvents" is an
/// array, timestamps are monotone non-decreasing, B/E events balance per
/// (pid, tid).  Appends human-readable problems to `errors` (first few
/// only) and fills `stats` when given.  Returns true when clean.
bool validate_chrome_trace(std::string_view text,
                           std::vector<std::string>* errors = nullptr,
                           TraceCheckStats* stats = nullptr);

}  // namespace bfly::scope
