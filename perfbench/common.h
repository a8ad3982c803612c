// common.h — shared types of the NTCS benchmark binary.
//
// Everything here is benchmark-side: clocks, sample statistics, the
// per-operation records the workloads fill, the in-memory span list of the
// traced run, and the result that main() prints. The program under test
// (src/) is only ever called through its public headers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perf {

// ---- clocks ---------------------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
std::int64_t thread_cpu_ns();
std::int64_t process_cpu_ns();

struct CtxSwitches {
  std::int64_t voluntary = 0;
  std::int64_t involuntary = 0;
};
CtxSwitches ctx_switches();

/// Host-wide CPU time from /proc/stat, in clock ticks: all states, and the
/// share the hypervisor ran someone else on this guest's CPUs ("steal").
/// Zero when /proc/stat is unreadable.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpu host_cpu();

// ---- allocation counting (alloc_count.cpp) -------------------------------

struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
/// Turn counting in the replacement operator new on or off. Off by default,
/// so untraced runs pay one relaxed load per allocation and nothing else.
void set_alloc_counting(bool on);
AllocTotals alloc_totals();

// ---- sample statistics ----------------------------------------------------

/// Quantile q in [0,1] of `v` by nearest rank on a sorted copy. 0 if empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

// ---- run description -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

/// One completed benchmark-level operation (a ComMod request, a pipelined
/// request, or a UrsaHost call).
struct OpRecord {
  std::uint64_t id = 0;   // operation ID, also carried in echo payloads
  std::int64_t start = 0; // caller entry, steady ns
  std::int64_t end = 0;   // caller return
  std::int64_t issue_end = -1;  // request_async return (pipelined ops only)
  std::int64_t await_start = -1;  // await entry (pipelined ops only)
  std::uint8_t kind = 0;        // workload-defined class (search, fetch, ...)
  std::uint32_t bytes = 0;      // payload bytes verified by this op
  double latency_us() const { return static_cast<double>(end - start) / 1e3; }
};

/// Server-side stamps of one echoed request, keyed by the operation ID the
/// caller wrote into the payload.
struct ServerStamp {
  std::uint64_t id = 0;
  std::int64_t recv_return = 0;  // ComMod::receive returned
  std::int64_t reply_entry = 0;  // about to call ComMod::reply
  std::int64_t reply_exit = 0;   // ComMod::reply returned
};

/// A span of the traced run: name, interval, parent span and the ID of the
/// operation it belongs to (0 for probe spans).
struct Span {
  const char* name = "";  // a string literal
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
};

class SpanLog {
 public:
  std::uint64_t add(const char* name, std::int64_t start, std::int64_t end,
                    std::uint64_t parent = 0, std::uint64_t op = 0) {
    spans_.push_back(Span{name, start, end, spans_.size() + 1, parent, op});
    return spans_.size();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports, plus what goes into its artifact file only.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> problems;  // why `correct` is false
  std::map<std::string, std::string> substrate;  // artifact: topology facts
  std::map<std::string, double> extra;  // artifact-only numbers
  SpanLog spans;

  void put(const std::string& name, double v, const std::string& unit) {
    metrics[name] = Metric{v, unit};
  }
  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

// ---- registry access ------------------------------------------------------

using Snap = ntcs::metrics::Snapshot;
inline Snap snap() {
  return ntcs::metrics::MetricsRegistry::instance().snapshot();
}

/// The clean-regime guard: mark `r` invalid for every overload, fault or
/// circuit-establishment counter that moved between the two snapshots,
/// naming the counter and the window.
void check_clean_regime(const Snap& before, const Snap& after,
                        const std::string& window, Result& r);

// ---- entry points ---------------------------------------------------------

/// Run one workload (measure phase, and with opts.trace the traced phase
/// and the layer probes). Fills `r`.
void run_workload(const Options& opts, std::int64_t process_start_ns,
                  Result& r);

/// Names accepted by --workload.
const std::vector<std::string>& workload_names();

/// The build and host facts recorded in every artifact, as a JSON object.
std::string environment_json(const Options& opts);

/// Write the artifact file (environment, metrics, problems, spans) and
/// return its path, or "" on failure.
std::string write_artifact(const Options& opts, const Result& r);

/// The one-line JSON result, printed as the last line of standard output.
std::string result_line(const Result& r);

}  // namespace perf
