// main.cpp — command line of the NTCS benchmark binary.
//
//   ntcs_perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Prints the environment as one JSON line, then the result as the last
// line of standard output, and writes the same (plus spans) as an artifact
// file in --out. Exits non-zero when any operation failed, an output was
// wrong, or the clean-regime guard tripped.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ntcs_perf --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\nworkloads:");
  for (const std::string& w : perf::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t process_start = perf::now_ns();
  perf::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        opts.workload = v;
      } else if (k == "--seed") {
        opts.seed = std::stoull(v);
      } else if (k == "--seconds") {
        opts.seconds = std::stod(v);
      } else if (k == "--trace") {
        opts.trace = v == "1";
      } else if (k == "--out") {
        opts.out_dir = v;
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  bool known = false;
  for (const std::string& w : perf::workload_names()) known |= w == opts.workload;
  if (!known || argc % 2 != 1 || opts.seconds <= 0) {
    usage();
    return 2;
  }

  std::printf("%s\n", perf::environment_json(opts).c_str());
  perf::Result r;
  try {
    perf::run_workload(opts, process_start, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntcs_perf: %s\n", e.what());
    return 1;
  }
  const std::string path = perf::write_artifact(opts, r);
  if (path.empty()) {
    std::fprintf(stderr, "ntcs_perf: cannot write the artifact in %s\n",
                 opts.out_dir.c_str());
    return 1;
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "ntcs_perf: %s\n", p.c_str());
  }
  std::printf("%s\n", perf::result_line(r).c_str());
  std::fflush(stdout);
  return r.correct && r.failed == 0 ? 0 : 1;
}
