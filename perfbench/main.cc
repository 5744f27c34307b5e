// perfbench: runs one benchmark workload and writes what it measured.
//
//   perfbench --workload <annotate_batch|search_serve|mixed_serve>
//             --seed <n> --seconds <s> --trace <0|1> --out-dir <dir>
//             [--mixed-rate <requests/s>]
//
// Writes <out-dir>/raw.json (raw samples, counters, verification
// findings, output digest) and, when traced, <out-dir>/spans.tsv.
// perfbench/run.py builds this program, runs it and reports metrics.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--mixed-rate") {
      args->mixed_rate = std::strtod(value.c_str(), nullptr);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out_dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--mixed-rate R]\n");
    return 2;
  }
  std::filesystem::create_directories(args.out_dir);
  perfbench::RawResult raw;
  std::vector<std::unique_ptr<perfbench::SpanLog>> logs;
  if (args.workload == "annotate_batch") {
    perfbench::RunAnnotateBatch(args, &raw, &logs);
  } else if (args.workload == "search_serve") {
    perfbench::RunSearchServe(args, &raw, &logs);
  } else if (args.workload == "mixed_serve") {
    perfbench::RunMixedServe(args, &raw, &logs);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    std::vector<const perfbench::SpanLog*> views;
    for (const auto& log : logs) views.push_back(log.get());
    if (!perfbench::WriteSpans(views, args.out_dir + "/spans.tsv")) {
      std::fprintf(stderr, "cannot write spans\n");
      return 1;
    }
  }
  if (!raw.WriteJson(args.out_dir + "/raw.json")) {
    std::fprintf(stderr, "cannot write raw.json\n");
    return 1;
  }
  return 0;
}
