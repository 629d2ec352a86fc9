// servebench: the serving benchmark's program.
//
//   servebench --workload single_stream|cluster_open|degraded_ladder
//              --seed N --seconds S --trace 0|1 --cluster-rate FPS
//
// Prints a `host` line (the fingerprint every result carries) and, as its
// last line, one JSON object with correct/attempted/failed and every metric
// the run produced as {value, unit, samples}. run.py selects the metrics
// BENCHMARK.json names for the requested mode. With --trace 1 the span log
// is written to .bench_out/spans_<workload>_seed<N>.json.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"
#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

namespace servebench {
namespace {

Options parse_args(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (arg == "--trace") {
      opts.trace = value == "1";
    } else if (arg == "--cluster-rate") {
      opts.cluster_rate_fps = std::stod(value);
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!(opts.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (!(opts.cluster_rate_fps > 0.0)) throw std::invalid_argument("--cluster-rate must be positive");
  return opts;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                  &regs[leaf * 4 + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.substr(0, brand.find('\0'));
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

double limit_ms(const std::string& workload) {
  return workload == "cluster_open"      ? kClusterLimitMs
         : workload == "degraded_ladder" ? kLadderLimitMs
                                         : kSingleStreamLimitMs;
}

void print_host(const Options& opts) {
  std::printf(
      "host {\"cpu\":\"%s\",\"nproc\":%u,\"gemm_kernel\":\"%s\",\"gemm_int8_kernel\":\"%s\","
      "\"pool_threads\":%d,\"cluster_replicas\":%lld,\"build_type\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%.17g,\"trace\":%d,\"cluster_rate_fps\":%.17g,"
      "\"latency_limit_ms\":%.17g}\n",
      json_escape(cpu_model()).c_str(), std::thread::hardware_concurrency(),
      salnov::gemm_kernel_name(salnov::active_gemm_kernel()),
      salnov::gemm_int8_kernel_name(salnov::active_gemm_int8_kernel()),
      salnov::parallel::num_threads(), static_cast<long long>(cluster_replicas()),
      SERVEBENCH_BUILD_TYPE, opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      opts.seconds, opts.trace ? 1 : 0, opts.cluster_rate_fps, limit_ms(opts.workload));
}

void print_result(const RunResult& result) {
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{",
              result.correct ? "true" : "false", static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  bool first = true;
  for (const auto& [name, m] : result.report.metrics()) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%lld}", first ? "" : ",",
                name.c_str(), m.value, m.unit.c_str(), static_cast<long long>(m.samples));
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  try {
    const Options opts = parse_args(argc, argv);
    std::filesystem::create_directories(opts.out_dir);
    SpanLog spans;
    RunResult result;
    if (opts.workload == "single_stream") {
      result = run_single_stream(opts, spans);
    } else if (opts.workload == "cluster_open") {
      result = run_cluster_open(opts, spans);
    } else if (opts.workload == "degraded_ladder") {
      result = run_degraded_ladder(opts, spans);
    } else {
      throw std::invalid_argument("unknown workload '" + opts.workload + "'");
    }
    for (const std::string& note : result.notes) std::fprintf(stderr, "servebench: %s\n", note.c_str());
    if (opts.trace) {
      spans.write_json(opts.out_dir + "/spans_" + opts.workload + "_seed" +
                       std::to_string(opts.seed) + ".json");
    }
    print_host(opts);
    print_result(result);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
