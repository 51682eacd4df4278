// perfbench_harness — runs one benchmark workload and prints its result
// line (see report.h).  Normally launched by perfbench/run.py:
//
//   perfbench_harness --workload outbreak|study|ingest --seed N
//                     --seconds S --trace 0|1 [--size full|tiny]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "outbreak|study|ingest [--seed N] [--seconds S] [--trace 0|1] "
               "[--size full|tiny]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') Usage("--seed: integer expected");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        Usage("--seconds: number in (0, 3600] expected");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace: 0 or 1 expected");
      }
      options.trace = value[0] == '1';
    } else if (flag == "--size") {
      if (std::strcmp(value, "full") != 0 && std::strcmp(value, "tiny") != 0) {
        Usage("--size: full or tiny expected");
      }
      options.tiny = std::strcmp(value, "tiny") == 0;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::Report report;
  try {
    if (workload == "outbreak") {
      perfbench::RunOutbreak(options, report);
    } else if (workload == "study") {
      perfbench::RunStudy(options, report);
    } else if (workload == "ingest") {
      perfbench::RunIngest(options, report);
    } else {
      Usage("--workload: outbreak, study or ingest expected");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
    return 1;
  }
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
