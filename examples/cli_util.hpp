// Shared checked CLI parsing for the example programs.
//
// The seed examples parsed sizes/threads with bare strtoul/atof: a negative
// value wraps to a huge unsigned ("-5" becomes 18446744073709551611
// chiplets), trailing garbage is silently ignored ("12abc" parses as 12),
// and overflow saturates without any error. PR 4 hardened
// arrangement_explorer only; this header hoists that checked parser so
// every example rejects malformed input with a diagnostic and exit code 1
// instead of crashing or silently exploding (CI runs each example with
// malformed args and requires a clean non-zero exit).
//
// Header-only on purpose: the examples are standalone binaries linked only
// against the hm library, and the parsers are a few lines each. The
// bool-returning parse_* functions are the testable core
// (tests/test_cli_util.cpp); the require_* wrappers add the
// print-usage-and-exit(1) behavior the example main()s want.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "telemetry/telemetry.hpp"
#include "telemetry/trace.hpp"

namespace hm::cli {

/// Parses a non-negative integer in [min_value, max_value]. Rejects empty
/// strings, any '-' (strtoull would wrap negatives), trailing garbage,
/// non-decimal input and overflow. Returns false without touching *out on
/// rejection.
[[nodiscard]] inline bool parse_size(const char* s, std::size_t min_value,
                                     std::size_t max_value,
                                     std::size_t* out) {
  if (s == nullptr || *s == '\0' || std::strchr(s, '-') != nullptr ||
      std::isspace(static_cast<unsigned char>(*s)) != 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  if constexpr (sizeof(std::size_t) < sizeof(unsigned long long)) {
    if (parsed > std::numeric_limits<std::size_t>::max()) return false;
  }
  const auto value = static_cast<std::size_t>(parsed);
  if (value < min_value || value > max_value) return false;
  *out = value;
  return true;
}

/// parse_size for unsigned (thread counts and similar small knobs).
[[nodiscard]] inline bool parse_unsigned(const char* s, unsigned min_value,
                                         unsigned max_value, unsigned* out) {
  std::size_t wide = 0;
  if (!parse_size(s, min_value, max_value, &wide)) return false;
  *out = static_cast<unsigned>(wide);
  return true;
}

/// parse_size for 64-bit seeds (full unsigned long long range).
[[nodiscard]] inline bool parse_u64(const char* s, unsigned long long* out) {
  if (s == nullptr || *s == '\0' || std::strchr(s, '-') != nullptr ||
      std::isspace(static_cast<unsigned char>(*s)) != 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = parsed;
  return true;
}

/// Parses a finite double in [min_value, max_value]. Rejects empty
/// strings, trailing garbage, inf/nan and out-of-range values (atof's
/// silent 0.0 fallback accepted anything).
[[nodiscard]] inline bool parse_double(const char* s, double min_value,
                                       double max_value, double* out) {
  if (s == nullptr || *s == '\0' ||
      std::isspace(static_cast<unsigned char>(*s)) != 0) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  if (!(parsed >= min_value) || !(parsed <= max_value)) return false;  // NaN
  *out = parsed;
  return true;
}

/// parse_size or print "<what> must be ... in [min, max]" and exit(1).
inline std::size_t require_size(const char* s, const char* what,
                                std::size_t min_value,
                                std::size_t max_value) {
  std::size_t value = 0;
  if (!parse_size(s, min_value, max_value, &value)) {
    std::fprintf(stderr, "%s must be an integer in [%zu, %zu] (got \"%s\")\n",
                 what, min_value, max_value, s == nullptr ? "" : s);
    std::exit(1);
  }
  return value;
}

inline unsigned require_unsigned(const char* s, const char* what,
                                 unsigned min_value, unsigned max_value) {
  unsigned value = 0;
  if (!parse_unsigned(s, min_value, max_value, &value)) {
    std::fprintf(stderr, "%s must be an integer in [%u, %u] (got \"%s\")\n",
                 what, min_value, max_value, s == nullptr ? "" : s);
    std::exit(1);
  }
  return value;
}

inline unsigned long long require_u64(const char* s, const char* what) {
  unsigned long long value = 0;
  if (!parse_u64(s, &value)) {
    std::fprintf(stderr, "%s must be a non-negative integer (got \"%s\")\n",
                 what, s == nullptr ? "" : s);
    std::exit(1);
  }
  return value;
}

inline double require_double(const char* s, const char* what,
                             double min_value, double max_value) {
  double value = 0.0;
  if (!parse_double(s, min_value, max_value, &value)) {
    std::fprintf(stderr, "%s must be a number in [%g, %g] (got \"%s\")\n",
                 what, min_value, max_value, s == nullptr ? "" : s);
    std::exit(1);
  }
  return value;
}

/// The thread-count ceiling of every `--threads` flag and HM_THREADS: far
/// above any real core count, low enough that a typo cannot ask the
/// ThreadPool for a billion threads.
inline constexpr unsigned kMaxThreads = 4096;

/// The chiplet-count ceiling shared by every example (hoisted from PR 4's
/// arrangement_explorer hardening): large enough for any plausible demo,
/// small enough that a typo cannot allocate the machine away.
inline constexpr std::size_t kMaxChiplets = 100000;

/// Shared `--telemetry` / `--trace FILE` handling for the example mains
/// (the flag-based twin of the HM_TELEMETRY / HM_TRACE_FILE env knobs in
/// telemetry/). extract() strips the two flags out of argv *before* the
/// example's own loop runs — the examples address positionals by argv
/// index, so the flags must not still be there — then begin() arms the
/// metrics registry and the Chrome tracer and finish() flushes the trace
/// file and prints the telemetry::snapshot() JSON. The trace flag name is
/// a parameter because search_arrangement already owns `--trace` for its
/// deterministic search-step CSV; it passes "--chrome-trace" instead.
struct TelemetryCli {
  bool telemetry = false;
  std::string trace_path;

  [[nodiscard]] static TelemetryCli extract(
      int& argc, char** argv, const char* trace_flag = "--trace") {
    TelemetryCli t;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--telemetry") == 0) {
        t.telemetry = true;
      } else if (std::strcmp(argv[i], trace_flag) == 0) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", trace_flag);
          std::exit(1);
        }
        t.trace_path = argv[++i];
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
    argv[argc] = nullptr;
    return t;
  }

  /// Arms the registry and (when a path was given) the tracer. Tracing
  /// switches the registry on too: a trace without its counters is only
  /// half a flight recording.
  void begin() const {
    if (telemetry || !trace_path.empty()) hm::telemetry::set_enabled(true);
    if (!trace_path.empty() && !hm::telemetry::trace_start(trace_path)) {
      std::fprintf(stderr,
                   "warning: tracing already armed (HM_TRACE_FILE?); "
                   "%s ignored\n",
                   trace_path.c_str());
    }
  }

  /// Writes the trace file and prints the metrics snapshot (stdout, so it
  /// can be piped into jq/python). Call on the success paths of main();
  /// skipping it on error exits just loses the report, never corrupts
  /// anything.
  void finish() const {
    if (!trace_path.empty() && hm::telemetry::trace_stop()) {
      std::fprintf(stderr, "chrome trace written: %s (load in Perfetto)\n",
                   trace_path.c_str());
    }
    if (telemetry) {
      std::printf("telemetry snapshot:\n%s\n",
                  hm::telemetry::snapshot_json().c_str());
    }
  }
};

}  // namespace hm::cli
