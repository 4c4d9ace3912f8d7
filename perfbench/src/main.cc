// perfbench_client — the repository benchmark's load generator.
//
//   perfbench_client --workload <merge_wide|merge_storm|artifact_io>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --server-bin <path> --run-dir <dir> [--trace-out <file>]
//
// Prints the workload's own end-to-end table for humans, then, as the last
// line of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With --trace 0 the metrics are the end-to-end set below, with
// --trace 1 the per-layer set. Exits 1 on a wrong winner, a corrupt read, a
// wait past its deadline + epsilon, or any untyped error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "trace.h"

namespace perfbench {
namespace {

/// Metric names every workload reports, in BENCHMARK.json order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "latency_p50_ms",   "latency_p90_ms",
    "read_p50_ms", "throughput_per_s", "server_rss_mb",
};

/// Per-layer metrics. A layer a workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"service.submit_ms", "ms"},
    {"service.poll_ms", "ms"},
    {"service.polls_per_session", "count"},
    {"service.queue_wait_ms", "ms"},
    {"service.coalesced_ratio", "ratio"},
    {"service.shed_ratio", "ratio"},
    {"service.expired_ratio", "ratio"},
    {"service.overhead_ms", "ms"},
    {"sim.deploy_ms", "ms"},
    {"sim.scenario_ms", "ms"},
    {"merge.merge_ms", "ms"},
    {"merge.drain_ms", "ms"},
    {"merge.drain_parallelism", "ratio"},
    {"merge.shard_imbalance", "ratio"},
    {"merge.executions", "count"},
    {"merge.candidates", "count"},
    {"merge.pruned", "count"},
    {"merge.exec_per_candidate", "ratio"},
    {"pipeline.pools_per_merge", "count"},
    {"pipeline.cache_peak_mb", "MiB"},
    {"pipeline.cache_evictions", "count"},
    {"storage.router.put_ms", "ms"},
    {"storage.router.get_ms", "ms"},
    {"storage.router.meta_put_ms", "ms"},
    {"storage.codec.put_ms", "ms"},
    {"storage.codec.get_ms", "ms"},
    {"storage.transport.put_ms", "ms"},
    {"storage.transport.get_ms", "ms"},
    {"storage.transport.chunk_frames_per_op", "count"},
    {"storage.transport.peak_buffer_kb", "KiB"},
    {"storage.transport.retries", "count"},
    {"storage.server.handle_put_ms", "ms"},
    {"storage.server.handle_get_ms", "ms"},
    {"storage.server.residual_ms", "ms"},
    {"storage.engine.put_ms", "ms"},
    {"storage.engine.get_ms", "ms"},
    {"storage.engine.dedup_ratio", "ratio"},
    {"storage.engine.chunk_mb_per_s", "MB/s"},
    {"storage.engine.stored_per_logical", "ratio"},
    {"client.small_call_p50_ms", "ms"},
    {"client.fail_ratio", "ratio"},
    {"client.lateness_p99_ms", "ms"},
    {"client.rss_mb", "MiB"},
    {"trace.overhead_p50_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_client --workload <merge_wide|merge_storm|"
               "artifact_io> --seed <n> --seconds <s> --trace <0|1> "
               "--server-bin <path> --run-dir <dir> [--trace-out <file>]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
      have_seconds = config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--server-bin") {
      config.server_binary = value;
    } else if (arg == "--run-dir") {
      config.run_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || !have_seconds || !have_trace ||
      config.server_binary.empty() || config.run_dir.empty()) {
    return Usage();
  }

  RunResult result;
  if (config.workload == "merge_wide") {
    result = RunMergeWide(config);
  } else if (config.workload == "merge_storm") {
    result = RunMergeStorm(config);
  } else if (config.workload == "artifact_io") {
    result = RunArtifactIo(config);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  for (const auto& [name, metric] : result.report) {
    std::printf("  %-28s %14.4f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  result.Set("client.fail_ratio", "ratio",
             Ratio(static_cast<double>(result.failed),
                   static_cast<double>(result.attempted)));
  std::vector<std::pair<std::string, Metric>> out;
  if (config.trace) {
    for (const auto& [name, unit] : kPerLayer) {
      auto it = result.metrics.find(name);
      out.emplace_back(name, it != result.metrics.end() ? it->second
                                                        : Metric{unit, 0});
    }
    if (!config.trace_out.empty() &&
        !Tracer::Instance().WriteJson(config.trace_out)) {
      result.Fail("cannot write spans to " + config.trace_out);
    }
  } else {
    for (const std::string& name : kEndToEnd) {
      auto it = result.metrics.find(name);
      if (it == result.metrics.end()) {
        result.Fail("workload did not report " + name);
        continue;
      }
      out.emplace_back(name, it->second);
    }
  }
  if (result.attempted == 0) result.Fail("no operation attempted");
  for (const std::string& error : result.errors) {
    std::printf("  ERROR: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char value[64];
    const double v = std::isfinite(out[i].second.value) ? out[i].second.value
                                                         : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i ? ", " : "") + std::string("\"") + out[i].first +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(out[i].second.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
