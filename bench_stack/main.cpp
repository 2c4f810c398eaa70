// main.cpp — the stack benchmark's command line.
//
//   stack_bench --workload casper|sor|serve --seed N --seconds S --trace 0|1
//
// Runs one workload for S seconds of measuring (after its set-up), checks
// every output, and prints a meta line followed by the result line: one JSON
// object with `correct`, `attempted`, `failed` and `metrics` — the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 0 only when every check passed and every metric was measured.
#define PAX_ALLOC_STATS_IMPLEMENT
#include "common/alloc_stats.hpp"

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "stack_bench: %s\nusage: stack_bench --workload casper|sor|serve "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace stackbench;
  // A fixed mmap threshold: large blocks are mapped and unmapped rather
  // than carved from heaps whose retained size depends on the order in
  // which threads happened to free. Left dynamic (glibc's default),
  // peak_rss_mb moved by a third from run to run on the same input.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    if (i + 1 >= argc) return usage("every flag takes a value");
    const std::string flag = argv[i];
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0) || args.seconds > 600.0)
        return usage("--seconds takes a number in (0, 600]");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace takes 0 or 1");
      args.trace = value[0] == '1';
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Outcome out;
  if (args.workload == "casper") {
    out = run_casper(args);
  } else if (args.workload == "sor") {
    out = run_sor(args);
  } else if (args.workload == "serve") {
    out = run_serve(args);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }

  std::string meta = "{\"meta\": {\"workload\": \"" + json_escape(args.workload) +
                     "\", \"seed\": " + std::to_string(args.seed) +
                     ", \"seconds\": " + std::to_string(args.seconds) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"build_type\": \"" STACK_BENCH_BUILD_TYPE "\"" +
                     ", \"compiler\": \"" + json_escape(__VERSION__) + "\"" +
                     ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                     ", \"fail_frac\": " + std::to_string(out.tally.fail_frac());
  for (const auto& [k, v] : out.meta) meta += ", \"" + json_escape(k) + "\": " + v;
  meta += "}}";
  std::printf("%s\n%s\n", meta.c_str(), out.report.result_line(args.trace, out.tally).c_str());
  std::fflush(stdout);
  const bool ok = out.tally.failed == 0 && out.report.complete(args.trace);
  return ok ? 0 : 1;
}
