// report.cpp — clocks, statistics, environment capture and JSON output.
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include "common.h"

namespace perf {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string esc(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char b[8];
          std::snprintf(b, sizeof(b), "\\u%04x", c);
          out += b;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string str(const std::string& s) { return "\"" + esc(s) + "\""; }

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string env_or(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string metrics_json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) out += ", ";
    first = false;
    out += str(name) + ": {\"value\": " + num(metric.value) +
           ", \"unit\": " + str(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }

CtxSwitches ctx_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return CtxSwitches{ru.ru_nvcsw, ru.ru_nivcsw};
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return {};
  HostCpu h;
  for (std::uint64_t& x : v) {
    if (!(in >> x)) return {};
    h.total += x;
  }
  h.steal = v[7];  // user nice system idle iowait irq softirq steal
  return h;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

void check_clean_regime(const Snap& before, const Snap& after,
                        const std::string& window, Result& r) {
  // Growth of any of these inside a timed window means the run measured
  // overload, fault recovery or circuit re-establishment instead of the
  // steady state it claims to measure.
  static const char* const kCounters[] = {
      "lcm.shed",           "simnet.inbox_shed",  "lcm.busy_frames",
      "lcm.admission_rejects", "lcm.address_faults", "ip.ivcs_opened",
      "gw.fairness_drops",  "analysis.lock_inversions"};
  for (const std::string name : kCounters) {
    const std::uint64_t d = after.value(name) - before.value(name);
    if (d != 0) {
      r.fail("clean-regime guard: " + name + " grew by " + std::to_string(d) +
             " in the " + window + " window");
    }
  }
}

std::string environment_json(const Options& opts) {
#if defined(NTCS_LOCK_RANK_CHECKS)
  const bool lock_checks = true;
#else
  const bool lock_checks = false;
#endif
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  const std::string build_type = PERF_BUILD_TYPE;
  // A number is a baseline only when it came from an optimised,
  // uninstrumented tree.
  const bool baseline = (build_type == "Release" ||
                         build_type == "RelWithDebInfo") &&
                        std::string(sanitizer) == "none";
  utsname u{};
  uname(&u);
  std::ostringstream o;
  o << "{\"build_type\": " << str(build_type)
    << ", \"ndebug\": " << (ndebug ? "true" : "false")
    << ", \"ntcs_lock_checks\": " << (lock_checks ? "true" : "false")
    << ", \"sanitizer\": " << str(sanitizer)
    << ", \"compiler\": " << str(PERF_COMPILER)
    << ", \"baseline_eligible\": " << (baseline ? "true" : "false")
    << ", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"cpu\": " << str(cpu_model())
    << ", \"kernel\": " << str(std::string(u.sysname) + " " + u.release)
    << ", \"git_rev\": " << str(env_or("PERF_GIT_REV", "unknown"))
    << ", \"source_digest\": " << str(env_or("PERF_SOURCE_DIGEST", "unknown"))
    << ", \"workload\": " << str(opts.workload)
    << ", \"seed\": " << opts.seed << ", \"seconds\": " << num(opts.seconds)
    << ", \"trace\": " << (opts.trace ? "true" : "false") << "}";
  return o.str();
}

std::string result_line(const Result& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": " << metrics_json(r.metrics) << "}";
  return o.str();
}

std::string write_artifact(const Options& opts, const Result& r) {
  const std::string path = opts.out_dir + "/" + opts.workload + "-seed" +
                           std::to_string(opts.seed) + "-trace" +
                           (opts.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  if (!f) return "";
  f << "{\n\"environment\": " << environment_json(opts) << ",\n";
  f << "\"substrate\": {";
  bool first = true;
  for (const auto& [k, v] : r.substrate) {
    f << (first ? "" : ", ") << str(k) << ": " << str(v);
    first = false;
  }
  f << "},\n\"result\": " << result_line(r) << ",\n\"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    f << (i ? ", " : "") << str(r.problems[i]);
  }
  f << "],\n\"extra\": {";
  first = true;
  for (const auto& [k, v] : r.extra) {
    f << (first ? "" : ", ") << str(k) << ": " << num(v);
    first = false;
  }
  const auto& spans = r.spans.spans();
  f << "},\n\"spans\": [\n";
  const std::size_t n = spans.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    f << "{\"name\": " << str(s.name) << ", \"id\": " << s.id
      << ", \"parent\": " << s.parent << ", \"op\": " << s.op
      << ", \"start_ns\": " << s.start << ", \"end_ns\": " << s.end << "}"
      << (i + 1 < n ? ",\n" : "\n");
  }
  f << "]\n}\n";
  return f ? path : "";
}

}  // namespace perf
