// dknn_perfbench — runs one benchmark workload and prints its result as one
// JSON line on stdout.  perfbench/run.py builds this binary and turns the
// line into the benchmark's result; see perfbench/README.md.
//
//   dknn_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--small]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "data/simd/dispatch.hpp"

namespace {

using perfbench::Options;
using perfbench::RunResult;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dknn_perfbench: %s\nusage: dknn_perfbench --workload "
               "offline_classify_d64|online_churn_k16_d8|approx_clustered_d16 --seed N "
               "--seconds S --trace 0|1 [--small]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--small") {
      options.small = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

/// Numbers with all their digits; a non-finite value is a harness bug and
/// fails the run rather than printing invalid JSON.
std::string number(double value, RunResult& result, const std::string& name) {
  if (!std::isfinite(value)) {
    result.fail("non-finite value for " + name);
    value = 0.0;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n') ? ' ' : c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  RunResult result;
  try {
    if (options.workload == "offline_classify_d64") {
      result = perfbench::run_offline(options);
    } else if (options.workload == "online_churn_k16_d8") {
      result = perfbench::run_online(options);
    } else if (options.workload == "approx_clustered_d16") {
      result = perfbench::run_approx(options);
    } else {
      usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dknn_perfbench: %s\n", error.what());
    return 1;
  }

  std::string metrics;
  for (const auto& [name, measured] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += quoted(name) + ": {\"value\": " + number(measured.first, result, name) +
               ", \"unit\": " + quoted(measured.second) + "}";
  }
  std::string fingerprint;
  for (const auto& [name, value] : result.fingerprint) {
    if (!fingerprint.empty()) fingerprint += ", ";
    fingerprint += quoted(name) + ": " + number(value, result, name);
  }
  std::string errors;
  for (const std::string& error : result.errors) {
    if (!errors.empty()) errors += ", ";
    errors += quoted(error);
  }
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"nproc\": %u, \"isa\": %s, "
      "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"fingerprint\": {%s}, "
      "\"metrics\": {%s}, \"errors\": [%s]}\n",
      quoted(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, std::thread::hardware_concurrency(),
      quoted(dknn::simd::isa_name(dknn::simd::active_isa())).c_str(),
      result.failed == 0 ? "true" : "false", static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), fingerprint.c_str(), metrics.c_str(),
      errors.c_str());
  return result.failed == 0 ? 0 : 1;
}
