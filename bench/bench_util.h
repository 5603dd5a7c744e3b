// Shared console-table and JSON-emission helpers for the paper-reproduction benches.
#ifndef HIPEC_BENCH_BENCH_UTIL_H_
#define HIPEC_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/json.h"
#include "obs/probe.h"

// Sanitizer detection for the provenance stamp below. GCC defines __SANITIZE_*__; clang
// only exposes __has_feature. UBSan defines neither, so it cannot be detected here — in
// this repo's CI it always rides combined with ASan (-fsanitize=address,undefined), so
// "asan" in a provenance stamp means the ASan+UBSan job.
#if defined(__SANITIZE_ADDRESS__)
#define HIPEC_BENCH_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define HIPEC_BENCH_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HIPEC_BENCH_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define HIPEC_BENCH_TSAN 1
#endif
#endif

namespace hipec::bench {

// Build/run configuration provenance, stamped into every JSON line the benches Emit() so
// check_perf_regression.py can refuse to compare runs from mismatched configurations
// (probes compiled out vs in, sanitizer vs release, JIT default on vs off) instead of
// silently gating apples against oranges.
//
//   cfg_jit         1 when the HIPEC_JIT environment variable selects DispatchMode::kJit
//                   as the process default (same parse as mach::DefaultJitMode)
//   cfg_probes      the HIPEC_OBS_PROBES compile-time gate: 0 means every probe was
//                   compiled out, so per-fault numbers are not comparable to a probed build
//   cfg_sanitizer   "asan", "tsan", or "none" (UBSan is not macro-detectable; see above)
inline const std::string& ConfigProvenanceFields() {
  static const std::string fields = [] {
    const char* jit_env = std::getenv("HIPEC_JIT");
    const bool jit = jit_env != nullptr && jit_env[0] != '\0' && jit_env[0] != '0';
#if defined(HIPEC_BENCH_ASAN)
    const char* sanitizer = "asan";
#elif defined(HIPEC_BENCH_TSAN)
    const char* sanitizer = "tsan";
#else
    const char* sanitizer = "none";
#endif
    std::string out;
    out += "\"cfg_jit\":";
    out += jit ? '1' : '0';
    out += ",\"cfg_probes\":";
    out += obs::ProbesCompiledIn() ? '1' : '0';
    out += ",\"cfg_sanitizer\":\"";
    out += sanitizer;
    out += '"';
    return out;
  }();
  return fields;
}

// Builds one machine-readable JSON object per line, keys in insertion order — the format the
// benches print after their human-readable tables and scripts/CI consume by grepping for
// lines starting with '{'. Escaping delegates to obs::AppendJsonEscaped (src/obs/json.h),
// the single writer-side escaper in the tree, so bench output and flight-recorder dumps can
// never drift apart.
class JsonLine {
 public:
  JsonLine& Str(const char* key, const std::string& value) {
    Key(key);
    buf_ += '"';
    obs::AppendJsonEscaped(&buf_, value);
    buf_ += '"';
    return *this;
  }
  JsonLine& Int(const char* key, long long value) {
    char num[32];
    std::snprintf(num, sizeof(num), "%lld", value);
    Key(key);
    buf_ += num;
    return *this;
  }
  JsonLine& Num(const char* key, double value, int precision = 3) {
    char num[64];
    std::snprintf(num, sizeof(num), "%.*f", precision, value);
    Key(key);
    buf_ += num;
    return *this;
  }
  // Prints the finished object — with the config-provenance stamp appended — on its own
  // line and resets for reuse.
  void Emit() {
    std::printf("%s\n", FinishWithProvenance().c_str());
    std::fflush(stdout);
  }

  // Returns the finished object and resets for reuse (tests use this instead of Emit).
  std::string Finish() {
    std::string out = buf_ + "}";
    Reset();
    return out;
  }

  // What Emit() prints: the object with the cfg_* provenance fields appended.
  std::string FinishWithProvenance() {
    std::string out = buf_;
    if (out.size() > 1) {
      out += ',';
    }
    out += ConfigProvenanceFields();
    out += '}';
    Reset();
    return out;
  }

 private:
  // clear+push_back instead of assigning a literal: GCC 12's -Wrestrict false-positives on
  // the inlined const char* assignment when Emit() is called from some loop shapes.
  void Reset() {
    buf_.clear();
    buf_.push_back('{');
  }

  void Key(const char* key) {
    if (buf_.size() > 1) {
      buf_ += ',';
    }
    buf_ += '"';
    obs::AppendJsonEscaped(&buf_, key);
    buf_ += "\":";
  }

  std::string buf_ = "{";
};

inline void Title(const std::string& text) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", text.c_str());
  std::printf("==============================================================\n");
}

inline void Note(const std::string& text) { std::printf("%s\n", text.c_str()); }

inline void Rule() {
  std::printf("--------------------------------------------------------------\n");
}

}  // namespace hipec::bench

#endif  // HIPEC_BENCH_BENCH_UTIL_H_
