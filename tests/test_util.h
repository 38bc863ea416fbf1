// Small helpers shared across test translation units. Header-only:
// CMake globs tests/*_test.cc, so anything here must be inline.
#ifndef FASTOD_TESTS_TEST_UTIL_H_
#define FASTOD_TESTS_TEST_UTIL_H_

#include <cctype>
#include <string>

namespace fastod {

/// Masks the wall-clock "seconds" values in a report JSON so two runs of
/// identical discovery output compare equal bit-for-bit.
inline std::string MaskSeconds(std::string json) {
  size_t pos = 0;
  const std::string key = "\"seconds\": ";
  while ((pos = json.find(key, pos)) != std::string::npos) {
    size_t start = pos + key.size();
    size_t end = start;
    while (end < json.size() &&
           (std::isdigit(static_cast<unsigned char>(json[end])) != 0 ||
            json[end] == '.' || json[end] == 'e' || json[end] == '-' ||
            json[end] == '+')) {
      ++end;
    }
    json.replace(start, end - start, "X");
    pos = start;
  }
  return json;
}

/// Masks the wall-clock " in 0.123s" figure of a text report's summary
/// line, the text counterpart of MaskSeconds.
inline std::string MaskTextSeconds(std::string text) {
  size_t pos = 0;
  const std::string key = " in ";
  while ((pos = text.find(key, pos)) != std::string::npos) {
    size_t start = pos + key.size();
    size_t end = start;
    while (end < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[end])) != 0 ||
            text[end] == '.')) {
      ++end;
    }
    if (end > start && end < text.size() && text[end] == 's') {
      text.replace(start, end - start, "X");
    }
    pos = start;
  }
  return text;
}

/// Removes the ,"trace": {...} member that ends /result bodies while
/// metrics are enabled. Traces carry wall-clock spans and
/// source-dependent cache counters (a dataset-bound session skips the
/// csv.parse span and copies its prebuilt level-1 partitions), so bit-for-bit
/// comparisons of the discovery output strip the trace first.
inline std::string StripTrace(std::string json) {
  size_t pos = json.find(",\"trace\":");
  if (pos == std::string::npos) return json;
  // The trace is the last member, immediately before the final brace.
  size_t end = json.rfind('}');
  if (end == std::string::npos || end <= pos) return json;
  json.erase(pos, end - pos);
  return json;
}

}  // namespace fastod

#endif  // FASTOD_TESTS_TEST_UTIL_H_
