// deshbench: one workload per invocation, end to end through the library's
// public entry points, with output checks and one JSON result line.
//
//   deshbench --workload replay|storm|raw|train --seed N --seconds S
//             --trace 0|1 [--small] [--corrupt none|drop|shift|delay|truncate]
//
// Normally started through deshbench/run.py, which builds it first.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "deshbench: " << problem
            << "\nusage: deshbench --workload replay|storm|raw|train --seed N"
               " --seconds S --trace 0|1 [--small]"
               " [--corrupt none|drop|shift|delay|truncate]\n";
  std::exit(2);
}

deshbench::Options parse(int argc, char** argv) {
  deshbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--corrupt") {
      using deshbench::Corrupt;
      if (value == "none") options.corrupt = Corrupt::kNone;
      else if (value == "drop") options.corrupt = Corrupt::kDrop;
      else if (value == "shift") options.corrupt = Corrupt::kShift;
      else if (value == "delay") options.corrupt = Corrupt::kDelay;
      else if (value == "truncate") options.corrupt = Corrupt::kTruncate;
      else usage("unknown --corrupt " + value);
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0)) usage("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  // The matmul loops in tensor::ops are OpenMP-parallel; a full team inside
  // every ThreadPool worker oversubscribes the cores and made fit times
  // vary twofold. One OpenMP thread, so the pools are the only parallelism.
  // omp_set_num_threads() would reach only this thread, not the pool
  // workers, so the setting goes through the environment, read once when
  // the OpenMP runtime loads: re-execute with it when it is missing.
  const char* omp = std::getenv("OMP_NUM_THREADS");
  if (omp == nullptr || std::string(omp) != "1") {
    ::setenv("OMP_NUM_THREADS", "1", 1);
    ::execv("/proc/self/exe", argv);
    std::cerr << "deshbench: cannot re-execute with OMP_NUM_THREADS=1\n";
    return 2;
  }
  const auto process_start = deshbench::Clock::now();
  deshbench::Options options = parse(argc, argv);
  std::filesystem::create_directories(options.out_dir);

  deshbench::Report report;
  deshbench::Tracer tracer(options.trace);
  report.info("workload " + options.workload + ", seed " +
              std::to_string(options.seed) + ", " +
              std::to_string(options.seconds) + " s" +
              (options.small ? ", small" : "") +
              (options.trace ? ", traced" : ""));
  if (options.workload == "replay")
    deshbench::run_replay(options, report, tracer, process_start);
  else if (options.workload == "storm")
    deshbench::run_storm(options, report, tracer, process_start);
  else if (options.workload == "raw")
    deshbench::run_raw(options, report, tracer, process_start);
  else if (options.workload == "train")
    deshbench::run_train(options, report, tracer, process_start);
  else
    usage("unknown workload '" + options.workload + "'");
  report.metric("peak_rss_mb", deshbench::peak_rss_mb(), "MB");

  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    report.check(tracer.write(path), "trace file " + path + " written");
    report.info("trace written to " + path);
  }
  std::cerr << (options.trace ? "end-to-end" : "per-layer")
            << " metrics of this run:\n";
  report.echo_other(options.trace);
  std::cout << report.json(options.trace) << std::endl;
  return 0;
}
