// Minimal JSON text helpers: the one writer for the fleet-sweep stores
// (receipt lines, merged trend output) and sweep_driver's stream jsonl.
//
// The stores are *canonical*: the same logical record must serialize to the
// same bytes on every host and in every process, because the merge tool
// compares sharded runs to single-process runs with a byte equality check.
// That rules out std::to_string for doubles (locale-dependent) and demands a
// fixed round-trip format, so the helpers live here instead of each caller
// improvising.
#ifndef SRC_TOOLS_SWEEP_JSONL_H_
#define SRC_TOOLS_SWEEP_JSONL_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace wcores {

// "quoted" JSON string with the mandatory escapes.
inline std::string QuoteJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

// Shortest %g rendering that round-trips the double exactly; falls back to
// %.17g when %g loses bits. Non-finite values serialize as null.
inline std::string NumberJson(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = std::strtod(buf, nullptr);
  bool exact = !(back < v) && !(v < back);  // bitwise-equal magnitudes round-trip.
  if (!exact) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

// uint64 values (seeds, fingerprints, trace hashes) as fixed-width hex
// strings: JSON numbers are doubles and silently lose bits above 2^53.
inline std::string HexJson(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string Hex16(uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Strict parse of a 16-digit hex string (the HexJson payload).
inline bool ParseHex16(const std::string& s, uint64_t* out) {
  if (s.size() != 16) {
    return false;
  }
  uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_JSONL_H_
