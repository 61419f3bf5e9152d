// layerbench: the repository's benchmark program.
//
//   layerbench --workload serve-read|batch-scan|churn --seed N
//              --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload (see README.md) on inputs generated from the seed,
// checks the program's answers, and prints as its last stdout line one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
// the per-layer ledger and the metrics are the per-layer ones.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.h"
#include "filter/probe_filter.h"
#include "minhash/hash_kernel.h"
#include "trace.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace layerbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: layerbench --workload serve-read|batch-scan|churn "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return have_workload && argc % 2 == 1 && args->seconds > 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void PrintResult(const Report& report, bool trace) {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string ops;
  for (const char* type : {"threshold", "topk", "insert", "remove"}) {
    const auto it = report.ops.find(type);
    const OpCounts c = it == report.ops.end() ? OpCounts{} : it->second;
    attempted += c.attempted;
    failed += c.failed;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"attempted\": %llu, \"failed\": %llu}",
                  ops.empty() ? "" : ", ", type,
                  static_cast<unsigned long long>(c.attempted),
                  static_cast<unsigned long long>(c.failed));
    ops += buf;
  }
  std::printf("ops: {%s}\n", ops.c_str());
  for (const std::string& f : report.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  // Per-layer metrics are namespaced "<module>.<name>"; end-to-end ones
  // are not. Each run prints the set its mode asks for.
  std::string metrics;
  for (const auto& [name, m] : report.metrics) {
    const bool per_layer = name.find('.') != std::string::npos;
    if (per_layer != trace) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", JsonEscape(name).c_str(),
                  m.value, m.unit.c_str());
    metrics += buf;
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "{%s}}\n",
      report.correct ? "true" : "false",
      static_cast<unsigned long long>(attempted == 0 ? 1 : attempted),
      static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  g_process_start_ns = NowNs();
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  bool (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "serve-read") run = RunServeRead;
  if (args.workload == "batch-scan") run = RunBatchScan;
  if (args.workload == "churn") run = RunChurn;
  if (run == nullptr) return Usage();

  // The engine's pool width is part of the fixed shape: 2 workers plus
  // the calling thread, unless the caller pins it explicitly.
  setenv("LSHE_THREADS", "2", /*overwrite=*/0);
  std::printf(
      "env: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
      "LSHE_THREADS=%s (pool workers %zu + caller) kernel=%s "
      "filter_probe=%s cpu=\"%s\"\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      std::getenv("LSHE_THREADS"),
      lshensemble::ThreadPool::Shared().num_threads(),
      lshensemble::ActiveKernelOps().name,
      lshensemble::probe_filter_internal::ActiveBlockProbeName(),
      CpuModel().c_str());

  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s\n", args.out_dir.c_str());
    return 1;
  }
  Tracer::Get().Enable(args.trace);
  Report report;
  const bool completed = run(args, &report);
  if (!completed) report.Fail(args.workload + " did not run to its end");
  // Snapshots live in a per-process directory removed on every exit path.
  std::filesystem::remove_all(
      args.out_dir + "/" + args.workload + "-" + std::to_string(getpid()), ec);
  PrintResult(report, args.trace);
  return completed ? 0 : 1;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) { return layerbench::Main(argc, argv); }
