// The repo benchmark's binary. run.py builds and invokes it:
//
//   pprl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work <dir> --out <raw.json>
//
// It generates the workload's inputs from the seed, drives the system
// through its user entry points, checks every output against an in-process
// reference (exit code 3 on a mismatch), and writes its raw measurements to
// --out. run.py turns them into the printed metrics.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "common/logging.h"
#include "workloads.h"

namespace pprl::perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pprl_perfbench --workload <csv-keyed|ship-single|ship-sharded|"
               "online-durable> --seed <n> --seconds <s> --trace <0|1> --work <dir> "
               "--out <file>\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work") {
      args.work_dir = value;
    } else if (flag == "--out") {
      args.out_path = value;
    } else {
      return Usage();
    }
  }
  if (args.work_dir.empty() || args.out_path.empty() || args.seconds <= 0) return Usage();
  if (!IsBatchWorkload(args.workload) && args.workload != "online-durable") return Usage();

  // Daemon start/stop chatter would drown the benchmark's own output.
  SetLogLevel(LogLevel::kWarning);
  MakeDir(args.work_dir, /*fresh=*/true);
  const RunRecord record = IsBatchWorkload(args.workload) ? RunBatch(args) : RunOnline(args);
  RemoveDir(args.work_dir);
  if (!WriteRunRecord(args.out_path, record)) Fatal("cannot write " + args.out_path);
  return 0;
}

}  // namespace
}  // namespace pprl::perfbench

int main(int argc, char** argv) { return pprl::perfbench::Main(argc, argv); }
