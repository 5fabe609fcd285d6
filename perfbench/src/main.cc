// xprel benchmark binary (xprel_perfbench). One process runs one workload
// for a fixed time, checks every answer against the xpatheval oracle, and
// prints one JSON result line (the last line of stdout):
//
//   xprel_perfbench --workload <fig4-small|xmark-large-service|update-mix>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--scale-factor <f>] [--corrupt-one-answer]
//                   [--out-dir <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a run whose timed phase alternates untraced and traced
// segments. BENCHMARK.json is the one list of metric names and units;
// perfbench/run.py checks this binary's output against it. The line before the result is "# record <json>": the host/run
// fingerprint (CPU model, nproc, compiler, build type, seed, scale) and the
// per-query result node counts; the same record is written to --out-dir.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench.h"

namespace perfbench {
namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: xprel_perfbench --workload "
               "<fig4-small|xmark-large-service|update-mix> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale-factor <f>] "
               "[--corrupt-one-answer] [--out-dir <dir>]\n",
               msg);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Fingerprint(const Args& args, const std::string& scales) {
  return std::string("{\"cpu\": ") + JsonString(CpuModel()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
         ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) +
         ", \"workload\": " + JsonString(args.workload) +
         ", \"seed\": " + std::to_string(args.seed) +
         ", \"scale\": " + JsonString(scales) + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-one-answer") {
      args.corrupt_one_answer = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      have_seed = *v != '\0' && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      args.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--scale-factor") {
      args.scale_factor = std::strtod(v, &end);
      if (*end != '\0' || args.scale_factor <= 0 || args.scale_factor > 1) {
        return Usage("--scale-factor must be in (0, 1]");
      }
    } else if (flag == "--out-dir") {
      args.out_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  RunResult (*run)(const Args&) = nullptr;
  if (args.workload == "fig4-small") {
    run = RunFig4Small;
  } else if (args.workload == "xmark-large-service") {
    run = RunXMarkLargeService;
  } else if (args.workload == "update-mix") {
    run = RunUpdateMix;
  } else {
    return Usage(("unknown workload " + args.workload).c_str());
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);

  RunResult res = run(args);

  // The workload sets the metrics of the requested kind; run.py checks
  // them against BENCHMARK.json and fills in per-layer metrics of layers the
  // workload does not exercise.
  MetricSet& out = res.metrics;
  if (args.trace) {
    out.Set("failed_frac",
            static_cast<double>(res.failed) /
                static_cast<double>(std::max<uint64_t>(res.attempted, 1)),
            "ratio");
  }

  std::string nodes = "{";
  for (size_t i = 0; i < res.result_nodes.size(); ++i) {
    if (i > 0) nodes += ", ";
    nodes += JsonString(res.result_nodes[i].first) + ": " +
             std::to_string(res.result_nodes[i].second);
  }
  nodes += "}";
  const std::string record =
      "{\"fingerprint\": " + Fingerprint(args, res.scales) +
      ", \"trace\": " + (args.trace ? "1" : "0") +
      ", \"attempted\": " + std::to_string(res.attempted) +
      ", \"failed\": " + std::to_string(res.failed) +
      ", \"wrong_answers\": " + std::to_string(res.wrong) +
      ", \"result_nodes\": " + nodes + ", \"metrics\": " + out.Json() + "}";
  {
    std::ofstream f(args.out_dir + "/record-" + args.workload + "-seed" +
                    std::to_string(args.seed) + "-trace" +
                    (args.trace ? "1" : "0") + ".json");
    f << record << "\n";
  }
  std::printf("# record %s\n", record.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              res.wrong == 0 ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), out.Json().c_str());
  std::fflush(stdout);
  return 0;
}
