// Repository benchmark binary. Usually launched by perfbench/run.py:
//
//   albic_perfbench --workload <wiki_replay|wiki_ft|airline_albic>
//                   --seed N --seconds S --trace 0|1 [--offered-rate R]
//                   [--workdir DIR] [--commit ID]
//   albic_perfbench --selftest [--workdir DIR]
//
// Prints the capture environment, "metric <name> <value> <unit>" lines and
// a "status attempted=.. failed=.." line; exits 1 when any call failed or
// any output disagreed with its reference.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

const int64_t g_process_start_ns = NowNs();

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (!(a->seconds > 0 && a->seconds <= 600)) return false;
    } else if (k == "--trace") {
      a->trace = std::strcmp(v, "1") == 0;
      if (!a->trace && std::strcmp(v, "0") != 0) return false;
    } else if (k == "--offered-rate") {
      a->offered_rate = std::strtod(v, &end);
      if (!(a->offered_rate >= 0)) return false;
    } else if (k == "--workdir") {
      a->workdir = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return a->selftest || !a->workload.empty();
}

}  // namespace

int64_t ProcessStartNs() { return g_process_start_ns; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT: brevity
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--offered-rate R] [--workdir DIR] [--commit ID] | "
                 "--selftest\n",
                 argv[0]);
    return 2;
  }
  // A measurement from an unoptimized or assert-enabled build must never
  // pass for one from the optimized build.
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "refusing to measure: built without NDEBUG/optimization (%s)\n",
               PERFBENCH_FLAGS);
  return 3;
#endif
  std::printf(
      "env {\"nproc\": %u, \"compiler\": \"%s\", \"flags\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"offered_rate\": %g, \"commit\": \"%s\"}\n",
      std::thread::hardware_concurrency(), __VERSION__, PERFBENCH_FLAGS,
      args.selftest ? "selftest" : args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, args.offered_rate, args.commit.c_str());
  std::fflush(stdout);

  std::error_code ec;
  std::filesystem::create_directories(args.workdir, ec);
  Report report;
  InitLayerMetrics(&report);
  if (args.selftest) {
    RunSelfTest(args, &report);
  } else if (args.workload == "wiki_replay") {
    RunWikiReplay(args, &report);
  } else if (args.workload == "wiki_ft") {
    RunWikiFt(args, &report);
  } else if (args.workload == "airline_albic") {
    RunAirlineAlbic(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  report.Print();
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
