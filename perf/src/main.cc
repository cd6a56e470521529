// xmark_perf: runs one benchmark workload and prints its metrics.
//
//   xmark_perf --workload <table3_serial|serve_corpus|ingest_churn>
//              --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Lines starting with "#" record the set-up and every latency with its
// sample count; the last line is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics". --trace 0 prints the
// end-to-end metrics, --trace 1 the per-layer metrics of a traced run.
// Errors print to stderr and exit with code 1, without a result line.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "perf/src/workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, xmark::perf::Config* config) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      config->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(config->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      config->trace = value == "1";
    } else if (flag == "--trace-dir") {
      config->trace_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  xmark::perf::Config config;
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n",
                 argv[0]);
    return 1;
  }
  auto report = xmark::perf::RunWorkload(config);
  if (!report.ok()) {
    std::fprintf(stderr, "%s: %s\n", config.workload.c_str(),
                 report.status().ToString().c_str());
    return 1;
  }
  for (const std::string& line : report->notes) {
    std::printf("# %s\n", line.c_str());
  }
  std::printf("%s\n", xmark::perf::ResultLine(*report).c_str());
  return 0;
}
