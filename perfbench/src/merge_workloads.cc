// The two merge-session workloads: merge_wide (closed loop, one client,
// widened Fig. 11 spec) and merge_storm (open loop on a fixed saturation
// schedule, default Fig. 9 spec). Both drive one real `mlcask_server
// --serve-merge` process and check every winner against an in-process
// reference merge of the same spec.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <time.h>

#include "bench.h"
#include "merge/merge_op.h"
#include "pipeline/execution_core.h"
#include "servers.h"
#include "service/merge_client.h"
#include "service/merge_service.h"
#include "service/service_codec.h"
#include "sim/saturation.h"
#include "sim/scenario.h"
#include "storage/deadline.h"
#include "trace.h"

namespace perfbench {
namespace {

using mlcask::Hash256;
using mlcask::Status;
using mlcask::StatusCode;
using mlcask::StatusOr;
namespace service = mlcask::service;
namespace sim = mlcask::sim;
namespace storage = mlcask::storage;

/// Set-ups per run; setup_s is their median. A set-up here is a few
/// hundred milliseconds, so five cost little and steady the median.
constexpr int kSetupRepetitions = 5;
/// Request ids of reference merges sit far above session ids.
constexpr uint64_t kReferenceRequestBase = uint64_t{1} << 40;

uint64_t NextReferenceRequest() {
  static std::atomic<uint64_t> next{kReferenceRequestBase};
  return next++;
}

double ProcessCpuSeconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// One in-process reference merge and the layer numbers it exposes.
struct Reference {
  Hash256 fingerprint;
  double execute_ms = 0;
  double deploy_ms = 0;
  double scenario_ms = 0;
  double merge_ms = 0;
  double drain_ms = 0;
  double drain_parallelism = 0;  ///< Process CPU ÷ wall across Merge.
  double shard_imbalance = 1;    ///< max ÷ mean of shard_candidates.
  double executions = 0;
  double candidates = 0;
  double pruned = 0;
  double pools = 0;  ///< ExecutionCore instances created by this merge.
  double cache_peak_mb = 0;
  double cache_evictions = 0;
};

/// Mirrors MergeService::Execute call for call (deployment, scenario,
/// MergeOperation::Merge, WinnerFromReport), with spans around the sim and
/// merge calls.
StatusOr<Reference> RunReference(const service::MergeJobSpec& spec,
                                 bool traced) {
  RequestScope scope(NextReferenceRequest(), traced);
  ScopedSpan root("reference.execute");
  Reference ref;
  const uint64_t pools_before =
      mlcask::pipeline::ExecutionCore::instances_created();
  const auto t0 = Clock::now();
  sim::DeploymentConfig config;
  config.num_workers = std::max<uint32_t>(1, spec.num_workers);
  config.storage_shards = spec.storage_shards;
  StatusOr<std::unique_ptr<sim::Deployment>> deployment =
      Status::Internal("unset");
  {
    ScopedSpan span("sim.deploy");
    deployment = sim::MakeDeployment(spec.workload, spec.scale, config);
  }
  ref.deploy_ms = MsSince(t0, Clock::now());
  if (!deployment.ok()) return deployment.status();
  auto d = *std::move(deployment);
  StatusOr<sim::ScenarioInfo> scenario = Status::Internal("unset");
  {
    ScopedSpan span("sim.scenario");
    const auto s0 = Clock::now();
    scenario = sim::BuildDistributedMergeScenario(
        d.get(), spec.extra_extractor_versions, spec.extra_model_versions);
    ref.scenario_ms = MsSince(s0, Clock::now());
  }
  if (!scenario.ok()) return scenario.status();
  mlcask::merge::MergeOperation op(d->repo.get(), d->libraries.get(),
                                   d->registry.get(), d->engine.get(),
                                   d->clock.get());
  mlcask::merge::MergeOptions options;
  options.shards = spec.merge_shards;
  options.num_workers = std::max<uint32_t>(1, spec.num_workers);
  options.optimize_metric = spec.optimize_metric;
  options.seed = spec.seed;
  if (spec.merge_shards <= 1) options.core = d->core.get();
  StatusOr<mlcask::merge::MergeReport> report = Status::Internal("unset");
  {
    ScopedSpan span("merge.merge");
    const double cpu0 = ProcessCpuSeconds();
    const auto m0 = Clock::now();
    report = op.Merge(scenario->head_branch, scenario->merge_branch, options);
    ref.merge_ms = MsSince(m0, Clock::now());
    ref.drain_parallelism =
        Ratio(ProcessCpuSeconds() - cpu0, ref.merge_ms / 1e3);
  }
  if (!report.ok()) return report.status();
  auto winner = service::WinnerFromReport(*report, d->repo.get(),
                                          scenario->head_branch);
  if (!winner.ok()) return winner.status();
  ref.execute_ms = MsSince(t0, Clock::now());
  ref.fingerprint = winner->Fingerprint();
  ref.drain_ms = report->drain_wall_ms;
  ref.executions = static_cast<double>(report->component_executions);
  ref.candidates = static_cast<double>(report->candidates_considered);
  ref.pruned = static_cast<double>(report->pruned_by_compatibility);
  if (!report->shard_candidates.empty()) {
    double sum = 0, peak = 0;
    for (size_t c : report->shard_candidates) {
      sum += static_cast<double>(c);
      peak = std::max(peak, static_cast<double>(c));
    }
    ref.shard_imbalance = Ratio(
        peak, sum / static_cast<double>(report->shard_candidates.size()));
  }
  ref.pools = static_cast<double>(
      mlcask::pipeline::ExecutionCore::instances_created() - pools_before);
  ref.cache_peak_mb =
      static_cast<double>(report->cache_stats.peak_bytes) / (1 << 20);
  ref.cache_evictions = static_cast<double>(report->cache_stats.evictions);
  return ref;
}

/// One set-up: the server, its connection, and a reference per spec.
struct MergeSetup {
  std::unique_ptr<ServerFleet> fleet;
  std::unique_ptr<storage::SocketTransport> transport;
  std::map<uint64_t, Reference> references;  ///< By spec seed.
};

/// Runs kSetupRepetitions complete set-ups, keeps the last, and records
/// setup_s as their median. Every repetition must reproduce the same
/// reference fingerprints; the last (warm) repetition's references are
/// appended to `all_refs` for the per-layer figures.
MergeSetup SetUp(const RunConfig& config, const ServerFleet::Options& fleet,
                 const std::vector<service::MergeJobSpec>& specs,
                 RunResult* result, std::vector<Reference>* all_refs) {
  std::vector<double> setup_s;
  MergeSetup kept;
  for (int rep = 0; rep < kSetupRepetitions && result->correct; ++rep) {
    MergeSetup setup;
    const auto t0 = Clock::now();
    setup.fleet = std::make_unique<ServerFleet>();
    Status started = setup.fleet->Start(1, fleet);
    if (!started.ok()) {
      result->Fail("server start: " + started.ToString());
      break;
    }
    auto transport = storage::SocketTransport::Connect(
        setup.fleet->endpoints()[0], ClientTransportOptions());
    if (!transport.ok()) {
      result->Fail("connect: " + transport.status().ToString());
      break;
    }
    setup.transport = *std::move(transport);
    for (const service::MergeJobSpec& spec : specs) {
      auto ref = RunReference(spec, config.trace);
      if (!ref.ok()) {
        result->Fail("reference merge: " + ref.status().ToString());
        break;
      }
      if (rep == kSetupRepetitions - 1) all_refs->push_back(*ref);
      setup.references.emplace(spec.seed, *ref);
      if (rep > 0 &&
          kept.references.at(spec.seed).fingerprint != ref->fingerprint) {
        result->Fail("reference merge is not reproducible for seed " +
                     std::to_string(spec.seed));
      }
    }
    setup_s.push_back(MsSince(t0, Clock::now()) / 1e3);
    if (kept.fleet != nullptr) {
      kept.transport.reset();
      Status stopped = kept.fleet->Stop();
      if (!stopped.ok()) result->Fail("server stop: " + stopped.ToString());
    }
    kept = std::move(setup);
  }
  result->Set("setup_s", "s", Median(setup_s));
  return kept;
}

/// Service-layer tallies of the timed window.
struct ServiceTally {
  std::vector<double> queue_wait_ms, polls_per_session, overhead_ms;
  std::vector<double> poll_rpc_ms, fetch_rpc_ms;  ///< Untraced sessions.
  uint64_t accepted = 0, coalesced = 0, shed = 0, expired = 0;
};

/// One session that reached a verified winner.
struct SessionRecord {
  bool traced = false;
  bool counted = false;  ///< Inside the timed window (not warm-up).
  double latency_ms = 0;
};

/// How a typed non-OK outcome counts: shed and expired go to `failed`;
/// any other code is a defect that fails the run.
enum class Typed { kNone, kShed, kExpired };

Typed TypedOf(StatusCode code) {
  if (code == StatusCode::kResourceExhausted) return Typed::kShed;
  if (code == StatusCode::kDeadlineExceeded) return Typed::kExpired;
  return Typed::kNone;
}

void CountTyped(Typed typed, RunResult* result, ServiceTally* tally) {
  ++result->failed;
  ++(typed == Typed::kShed ? tally->shed : tally->expired);
}

// The service calls of one session, each inside its layer span.

StatusOr<service::SubmitResult> SubmitSpanned(
    service::MergeServiceClient* client, const service::MergeJobSpec& spec,
    uint64_t deadline_ms) {
  ScopedSpan span("service.submit");
  storage::DeadlineBudget budget(deadline_ms);
  storage::DeadlineScope deadline(&budget);
  return client->Submit(spec);
}

StatusOr<service::PollResult> PollSpanned(service::MergeServiceClient* client,
                                          const std::string& session_id) {
  ScopedSpan span("service.poll");
  return client->Poll(session_id);
}

/// The defect a terminal, not-done poll stands for, or "" when it is a
/// typed shed / expiry (reported through `typed`).
std::string FailedDefect(const service::PollResult& poll, Typed* typed) {
  *typed = Typed::kNone;
  if (poll.state == service::SessionState::kFailed) {
    *typed = TypedOf(poll.error_code);
    if (*typed != Typed::kNone) return "";
    return "session failed untyped: " + poll.error_message;
  }
  return "session ended " +
         std::string(service::SessionStateName(poll.state));
}

/// Fetches a done session's winner and compares its fingerprint with the
/// reference. Returns the defect, or "" for a right winner.
std::string FetchAndVerify(service::MergeServiceClient* client,
                           const std::string& session_id,
                           const Reference& reference, double* fetch_ms) {
  const auto t0 = Clock::now();
  StatusOr<service::MergeWinner> winner = Status::Internal("unset");
  {
    ScopedSpan span("service.fetch");
    winner = client->Fetch(session_id);
  }
  *fetch_ms = MsSince(t0, Clock::now());
  if (!winner.ok()) return "fetch: " + winner.status().ToString();
  if (winner->Fingerprint() != reference.fingerprint) {
    return "wrong winner: fingerprint differs from the reference merge";
  }
  return "";
}

void SetReferenceLayers(const std::vector<Reference>& refs,
                        RunResult* result) {
  struct Field {
    const char* name;
    const char* unit;
    double (*get)(const Reference&);
  };
  static const Field kFields[] = {
      {"sim.deploy_ms", "ms", [](const Reference& r) { return r.deploy_ms; }},
      {"sim.scenario_ms", "ms",
       [](const Reference& r) { return r.scenario_ms; }},
      {"merge.merge_ms", "ms", [](const Reference& r) { return r.merge_ms; }},
      {"merge.drain_ms", "ms", [](const Reference& r) { return r.drain_ms; }},
      {"merge.drain_parallelism", "ratio",
       [](const Reference& r) { return r.drain_parallelism; }},
      {"merge.shard_imbalance", "ratio",
       [](const Reference& r) { return r.shard_imbalance; }},
      {"merge.executions", "count",
       [](const Reference& r) { return r.executions; }},
      {"merge.candidates", "count",
       [](const Reference& r) { return r.candidates; }},
      {"merge.pruned", "count", [](const Reference& r) { return r.pruned; }},
      {"merge.exec_per_candidate", "ratio",
       [](const Reference& r) { return Ratio(r.executions, r.candidates); }},
      {"pipeline.pools_per_merge", "count",
       [](const Reference& r) { return r.pools; }},
      {"pipeline.cache_peak_mb", "MiB",
       [](const Reference& r) { return r.cache_peak_mb; }},
      {"pipeline.cache_evictions", "count",
       [](const Reference& r) { return r.cache_evictions; }},
  };
  for (const Field& field : kFields) {
    std::vector<double> values;
    for (const Reference& r : refs) values.push_back(field.get(r));
    result->Set(field.name, field.unit, Median(values));
  }
}

/// The traced run's per-layer figures for the service, sim, merge and
/// pipeline layers. Runs after the timed phase: two more in-process
/// reference merges of every spec, so those figures rest on more than one
/// warm sample per spec without perturbing the timed phase.
void SetMergeLayers(const std::vector<service::MergeJobSpec>& specs,
                    const ServiceTally& t,
                    const std::vector<SessionRecord>& sessions,
                    std::vector<Reference> refs, RunResult* result) {
  std::map<std::string, std::vector<double>> calls;
  for (const Span& s : Tracer::Instance().Snapshot()) {
    if (s.request < kReferenceRequestBase) calls[s.name].push_back(s.ms());
  }
  const double attempted = static_cast<double>(result->attempted);
  result->Set("service.submit_ms", "ms", Median(calls["service.submit"]));
  result->Set("service.poll_ms", "ms", Median(calls["service.poll"]));
  result->Set("service.polls_per_session", "count",
              Median(t.polls_per_session));
  result->Set("service.queue_wait_ms", "ms", Median(t.queue_wait_ms));
  result->Set("service.coalesced_ratio", "ratio",
              Ratio(static_cast<double>(t.coalesced),
                    static_cast<double>(t.accepted)));
  result->Set("service.shed_ratio", "ratio",
              Ratio(static_cast<double>(t.shed), attempted));
  result->Set("service.expired_ratio", "ratio",
              Ratio(static_cast<double>(t.expired), attempted));
  result->Set("service.overhead_ms", "ms", Median(t.overhead_ms));

  for (int round = 0; round < 2; ++round) {
    for (const service::MergeJobSpec& spec : specs) {
      auto ref = RunReference(spec, /*traced=*/true);
      if (!ref.ok()) {
        result->Fail("reference probe: " + ref.status().ToString());
        return;
      }
      refs.push_back(*ref);
    }
  }
  SetReferenceLayers(refs, result);

  // Sessions alternate traced / untraced: the difference of their medians
  // is the tracing overhead on the headline latency.
  std::vector<double> on, off;
  for (const SessionRecord& s : sessions) {
    if (s.counted) (s.traced ? on : off).push_back(s.latency_ms);
  }
  const double delta = Median(on) - Median(off);
  result->Set("trace.overhead_p50_ms", "ms", delta);
  result->Set("trace.overhead_ratio", "ratio", Ratio(delta, Median(off)));
  result->Set("client.rss_mb", "MiB", VmHwmMb(0));
}

/// End-to-end metrics shared by both merge workloads, plus their table;
/// `rate_name` is the workload's own name for throughput_per_s.
void SetSessionMetrics(const MergeSetup& setup, const ServiceTally& t,
                       const std::vector<SessionRecord>& sessions,
                       const char* rate_name, double completed_per_s,
                       RunResult* result) {
  std::vector<double> latencies;
  for (const SessionRecord& s : sessions) {
    if (s.counted && !s.traced) latencies.push_back(s.latency_ms);
  }
  const double rss = setup.fleet->PeakRssMb();
  result->Set("latency_p50_ms", "ms", Percentile(latencies, 0.5));
  result->Set("latency_p90_ms", "ms", Percentile(latencies, 0.9));
  result->Set("read_p50_ms", "ms", Median(t.fetch_rpc_ms));
  result->Set("throughput_per_s", "1/s", completed_per_s);
  result->Set("server_rss_mb", "MiB", rss);
  result->Set("client.small_call_p50_ms", "ms", Median(t.poll_rpc_ms));

  result->Report("setup_s", "s", result->metrics["setup_s"].value);
  result->Report("session_p50_ms", "ms", Percentile(latencies, 0.5));
  result->Report("session_p90_ms", "ms", Percentile(latencies, 0.9));
  result->Report("session_p99_ms", "ms", Percentile(latencies, 0.99));
  result->Report("session_samples", "count",
                 static_cast<double>(latencies.size()));
  result->Report(rate_name, "1/s", completed_per_s);
  result->Report("fail_ratio", "ratio",
                 Ratio(static_cast<double>(result->failed),
                       static_cast<double>(result->attempted)));
  result->Report("server_rss_mb", "MiB", rss);
  result->Report("client_rss_mb", "MiB", VmHwmMb(0));
}

void TearDown(MergeSetup* setup, RunResult* result) {
  setup->transport.reset();
  Status stopped = setup->fleet->Stop();
  if (!stopped.ok()) result->Fail("server stop: " + stopped.ToString());
}

}  // namespace

// ----------------------------------------------------------- merge_wide ---

RunResult RunMergeWide(const RunConfig& config) {
  RunResult result;
  constexpr uint64_t kSessionDeadlineMs = 10000;
  constexpr int kDistinctSeeds = 4;
  std::vector<service::MergeJobSpec> specs;
  for (int i = 0; i < kDistinctSeeds; ++i) {
    service::MergeJobSpec spec;
    spec.workload = "readmission";
    spec.scale = 0.12;
    spec.extra_extractor_versions = 2;
    spec.extra_model_versions = 4;
    spec.merge_shards = 4;
    spec.storage_shards = 1;
    spec.seed = config.seed * kDistinctSeeds + static_cast<uint64_t>(i) + 1;
    specs.push_back(spec);
  }
  ServerFleet::Options fleet_options;
  fleet_options.binary = config.server_binary;
  fleet_options.run_dir = config.run_dir;
  fleet_options.serve_merge = true;
  fleet_options.merge_workers = 1;
  std::vector<Reference> refs;
  MergeSetup setup = SetUp(config, fleet_options, specs, &result, &refs);
  if (!result.correct) return result;

  service::MergeServiceClient client(setup.transport.get(), "wide");
  ServiceTally tally;
  std::vector<SessionRecord> sessions;
  const auto wedge_bound =
      std::chrono::milliseconds(kSessionDeadlineMs + kEpsilonMs);
  // One closed-loop session: submit, poll every millisecond until
  // terminal, fetch and verify the winner.
  auto run_session = [&](size_t index, bool counted) {
    const service::MergeJobSpec& spec = specs[index % specs.size()];
    SessionRecord record;
    record.counted = counted;
    record.traced = config.trace && counted && index % 2 == 0;
    const bool sampled = counted && !record.traced;
    RequestScope scope(index + 1, record.traced);
    if (counted) ++result.attempted;
    const auto t0 = Clock::now();
    auto submitted = SubmitSpanned(&client, spec, kSessionDeadlineMs);
    if (!submitted.ok()) {
      const Typed typed = TypedOf(submitted.status().code());
      if (typed == Typed::kNone) {
        result.Fail("submit: " + submitted.status().ToString());
      } else if (counted) {
        CountTyped(typed, &result, &tally);
      }
      return;
    }
    const auto ack = Clock::now();
    if (counted) {
      ++tally.accepted;
      if (submitted->coalesced) ++tally.coalesced;
    }
    size_t polls = 0;
    bool saw_running = false;
    service::PollResult poll;
    for (;;) {
      const auto p0 = Clock::now();
      auto polled = PollSpanned(&client, submitted->session_id);
      const auto now = Clock::now();
      ++polls;
      if (sampled) tally.poll_rpc_ms.push_back(MsSince(p0, now));
      if (!polled.ok()) {
        result.Fail("poll: " + polled.status().ToString());
        return;
      }
      poll = *polled;
      if (!saw_running && poll.state != service::SessionState::kQueued) {
        saw_running = true;
        if (record.traced) tally.queue_wait_ms.push_back(MsSince(ack, now));
      }
      if (service::IsTerminal(poll.state)) break;
      if (now - t0 > wedge_bound) {
        result.Fail("session wedged past deadline + epsilon");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (poll.state != service::SessionState::kDone) {
      Typed typed;
      const std::string defect = FailedDefect(poll, &typed);
      if (!defect.empty()) {
        result.Fail(defect);
      } else if (counted) {
        CountTyped(typed, &result, &tally);
      }
      return;
    }
    const Reference& reference = setup.references.at(spec.seed);
    double fetch_ms = 0;
    const std::string defect =
        FetchAndVerify(&client, submitted->session_id, reference, &fetch_ms);
    const auto done = Clock::now();
    if (!defect.empty()) {
      result.Fail(defect + " (seed " + std::to_string(spec.seed) + ")");
      return;
    }
    if (done - t0 > wedge_bound) {
      result.Fail("session overran deadline + epsilon");
      return;
    }
    if (sampled) tally.fetch_rpc_ms.push_back(fetch_ms);
    record.latency_ms = MsSince(t0, done);
    if (record.traced) {
      tally.polls_per_session.push_back(static_cast<double>(polls));
      tally.overhead_ms.push_back(record.latency_ms - reference.execute_ms);
    }
    sessions.push_back(record);
  };

  // Warm-up: one untimed session per distinct spec.
  size_t index = 0;
  for (; index < specs.size() && result.correct; ++index) {
    run_session(index, /*counted=*/false);
  }
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(config.seconds));
  while (Clock::now() < stop && result.correct) run_session(index++, true);
  const double elapsed_s = MsSince(start, Clock::now()) / 1e3;

  size_t completed = 0;
  for (const SessionRecord& s : sessions) completed += s.counted ? 1 : 0;
  if (config.trace && result.correct) {
    SetMergeLayers(specs, tally, sessions, refs, &result);
  }
  SetSessionMetrics(setup, tally, sessions, "sessions_per_s",
                    Ratio(static_cast<double>(completed), elapsed_s),
                    &result);
  TearDown(&setup, &result);
  return result;
}

// ---------------------------------------------------------- merge_storm ---

RunResult RunMergeStorm(const RunConfig& config) {
  RunResult result;
  constexpr uint64_t kSessionDeadlineMs = 3000;
  constexpr double kOfferedPerS = 60;
  constexpr double kWarmupS = 2;
  constexpr size_t kDistinctSpecs = 6;
  constexpr double kLatenessBoundMs = 100;

  // Spec seeds 1..1+kDistinctSpecs come from the schedule; the workload
  // seed offsets them so every run seed merges its own specs.
  std::vector<service::MergeJobSpec> specs;
  for (uint64_t s = 1; s <= 1 + kDistinctSpecs; ++s) {
    service::MergeJobSpec spec;  // default Fig. 9 spec
    spec.seed = config.seed * 16 + s;
    specs.push_back(spec);
  }
  sim::SaturationConfig schedule_config;
  schedule_config.tenants = {
      {"gold", 3, 600, 0.3, kDistinctSpecs},
      {"silver", 2, 300, 0.3, kDistinctSpecs},
      {"free", 1, 100, 0.3, kDistinctSpecs},
  };
  schedule_config.duration_s = kWarmupS + config.seconds;
  schedule_config.base_rps = kOfferedPerS;
  schedule_config.diurnal_amplitude = 0.4;
  // Many short storms rather than a few long ones: the tail then averages
  // over many storm overlaps instead of hinging on where three land.
  schedule_config.storm_fraction = 0.15;
  schedule_config.storm_count = 10;
  schedule_config.storm_width_s = 0.15;
  schedule_config.seed = config.seed;
  const std::vector<sim::SaturationEvent> schedule =
      sim::BuildSaturationSchedule(schedule_config);

  ServerFleet::Options fleet_options;
  fleet_options.binary = config.server_binary;
  fleet_options.run_dir = config.run_dir;
  fleet_options.serve_merge = true;
  fleet_options.merge_workers = 2;
  fleet_options.tenant_weights = "gold=3,silver=2,free=1";
  std::vector<Reference> refs;
  MergeSetup setup = SetUp(config, fleet_options, specs, &result, &refs);
  if (!result.correct) return result;

  // One accepted session awaiting its terminal state.
  struct Flight {
    size_t event = 0;
    std::string session_id;
    Clock::time_point due, ack;
    bool saw_running = false;
    size_t polls = 0;
  };
  std::mutex mu;  // guards everything below that both threads touch
  std::deque<Flight> live;
  std::vector<SessionRecord> sessions;
  std::vector<double> lateness_ms;
  ServiceTally tally;
  std::atomic<bool> submitting{true};
  std::atomic<bool> abort{false};
  const auto wedge_bound =
      std::chrono::milliseconds(kSessionDeadlineMs + kEpsilonMs);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double offset_s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset_s));
  };
  auto counted = [&](size_t event) {
    return schedule[event].at_s >= kWarmupS;
  };
  auto traced = [&](size_t event) {
    return config.trace && counted(event) && event % 2 == 0;
  };
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    result.Fail(why);
    abort.store(true);
  };
  auto count_typed = [&](size_t event, Typed typed) {
    if (!counted(event)) return;
    std::lock_guard<std::mutex> lock(mu);
    CountTyped(typed, &result, &tally);
  };
  // MergeServiceClient's replay-token sequence is not synchronized, so each
  // thread keeps its own client per tenant over the shared transport.
  using Clients =
      std::map<std::string, std::unique_ptr<service::MergeServiceClient>>;
  auto client_for = [&](Clients* clients, const std::string& tenant) {
    auto& client = (*clients)[tenant];
    if (!client) {
      client = std::make_unique<service::MergeServiceClient>(
          setup.transport.get(), tenant);
    }
    return client.get();
  };

  // Releases every submit at its due time, whatever the service's backlog.
  std::thread submitter([&] {
    Clients clients;
    for (size_t i = 0; i < schedule.size() && !abort.load(); ++i) {
      const sim::SaturationEvent& event = schedule[i];
      const auto due = at(event.at_s);
      std::this_thread::sleep_until(due);
      RequestScope scope(i + 1, traced(i));
      const auto sent = Clock::now();
      auto submitted =
          SubmitSpanned(client_for(&clients, event.tenant),
                        specs[event.spec_seed - 1], kSessionDeadlineMs);
      const auto ack = Clock::now();
      if (counted(i)) {
        std::lock_guard<std::mutex> lock(mu);
        ++result.attempted;
        lateness_ms.push_back(MsSince(due, sent));
      }
      if (!submitted.ok()) {
        const Typed typed = TypedOf(submitted.status().code());
        if (typed == Typed::kNone) {
          fail("submit: " + submitted.status().ToString());
        } else {
          count_typed(i, typed);
        }
        continue;
      }
      std::lock_guard<std::mutex> lock(mu);
      if (counted(i)) {
        ++tally.accepted;
        if (submitted->coalesced) ++tally.coalesced;
      }
      live.push_back(Flight{i, submitted->session_id, due, ack, false, 0});
    }
    submitting.store(false);
  });

  // Sweeps every live session once per millisecond until it is terminal.
  std::thread poller([&] {
    Clients clients;
    for (;;) {
      std::deque<Flight> sweep;
      {
        std::lock_guard<std::mutex> lock(mu);
        sweep.swap(live);
        if (sweep.empty() && (!submitting.load() || abort.load())) return;
      }
      std::deque<Flight> keep;
      for (Flight& f : sweep) {
        if (abort.load()) break;
        const sim::SaturationEvent& event = schedule[f.event];
        service::MergeServiceClient* client =
            client_for(&clients, event.tenant);
        const bool sampled = counted(f.event) && !traced(f.event);
        RequestScope scope(f.event + 1, traced(f.event));
        const auto p0 = Clock::now();
        auto polled = PollSpanned(client, f.session_id);
        const auto now = Clock::now();
        ++f.polls;
        if (!polled.ok()) {
          fail("poll: " + polled.status().ToString());
          break;
        }
        std::unique_lock<std::mutex> lock(mu);
        if (sampled) tally.poll_rpc_ms.push_back(MsSince(p0, now));
        if (!f.saw_running && polled->state != service::SessionState::kQueued) {
          f.saw_running = true;
          if (traced(f.event)) tally.queue_wait_ms.push_back(MsSince(f.ack, now));
        }
        lock.unlock();
        if (!service::IsTerminal(polled->state)) {
          if (now - f.due > wedge_bound) {
            fail("session wedged past deadline + epsilon");
            break;
          }
          keep.push_back(std::move(f));
          continue;
        }
        if (polled->state != service::SessionState::kDone) {
          Typed typed;
          const std::string defect = FailedDefect(*polled, &typed);
          if (!defect.empty()) {
            fail(defect);
          } else {
            count_typed(f.event, typed);
          }
          continue;
        }
        const Reference& reference =
            setup.references.at(specs[event.spec_seed - 1].seed);
        double fetch_ms = 0;
        const std::string defect =
            FetchAndVerify(client, f.session_id, reference, &fetch_ms);
        const auto done = Clock::now();
        if (!defect.empty()) {
          fail(defect);
          continue;
        }
        if (done - f.due > wedge_bound) {
          fail("session overran deadline + epsilon");
          continue;
        }
        SessionRecord record;
        record.counted = counted(f.event);
        record.traced = traced(f.event);
        record.latency_ms = MsSince(f.due, done);
        lock.lock();
        if (sampled) tally.fetch_rpc_ms.push_back(fetch_ms);
        if (record.traced) {
          tally.polls_per_session.push_back(static_cast<double>(f.polls));
          tally.overhead_ms.push_back(MsSince(f.ack, done) -
                                      reference.execute_ms);
        }
        sessions.push_back(record);
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        for (Flight& f : keep) live.push_back(std::move(f));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  submitter.join();
  poller.join();

  size_t winners = 0;
  for (const SessionRecord& s : sessions) winners += s.counted ? 1 : 0;
  const double window_s = MsSince(at(kWarmupS), Clock::now()) / 1e3;
  const double lateness_p99 = Percentile(lateness_ms, 0.99);
  if (lateness_p99 > kLatenessBoundMs) {
    result.Fail("generator lateness p99 " + std::to_string(lateness_p99) +
                " ms exceeds the " + std::to_string(kLatenessBoundMs) +
                " ms bound: run invalid");
  }
  if (config.trace && result.correct) {
    SetMergeLayers(specs, tally, sessions, refs, &result);
    result.Set("client.lateness_p99_ms", "ms", lateness_p99);
  }
  SetSessionMetrics(setup, tally, sessions, "goodput_per_s",
                    Ratio(static_cast<double>(winners), window_s), &result);
  result.Report("offered_per_s", "1/s", kOfferedPerS);
  result.Report("generator_lateness_p99_ms", "ms", lateness_p99);
  TearDown(&setup, &result);
  return result;
}

}  // namespace perfbench
