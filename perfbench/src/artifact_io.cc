// artifact_io: 8 MiB artifact puts and gets, each followed by a small
// replicated `pipeline/` put (a two-phase commit across both shards),
// against two real `mlcask_server` storage shards. Two client threads own
// eight keys each; every read is checked by SHA-256 against the bytes that
// client last wrote.
//
// Flush policy: none. The servers run the in-memory ForkBase backend with
// no --data-dir, so writes stay in server memory and nothing is fsynced.

#include <algorithm>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "bench.h"
#include "common/sha256.h"
#include "layers.h"
#include "servers.h"
#include "storage/deadline.h"
#include "storage/forkbase_engine.h"
#include "storage/remote_engine.h"
#include "storage/server_cluster.h"
#include "storage/sharded_engine.h"
#include "storage/socket_transport.h"
#include "storage/wire_codec.h"
#include "trace.h"

namespace perfbench {
namespace {

using mlcask::Hash256;
using mlcask::Sha256;
using mlcask::Status;
using mlcask::StatusOr;
namespace storage = mlcask::storage;
namespace wire = mlcask::storage::wire;

constexpr int kSetupRepetitions = 3;
constexpr size_t kThreads = 2;
constexpr size_t kKeysPerThread = 8;
constexpr size_t kArtifactBytes = 8u << 20;
constexpr size_t kWindowBytes = 256u << 10;
constexpr size_t kMetaBytes = 1024;
/// Ops per client thread per requested second. The op count is fixed by
/// the run length, never by how fast the servers answer, so stored bytes
/// and server RSS are the same on every commit.
constexpr size_t kOpsPerThreadPerSecond = 5;
constexpr uint64_t kOpDeadlineMs = 10000;
/// Shadow-replay sample: requests captured for one key per client thread.
constexpr size_t kShadowPuts = 8;
constexpr size_t kShadowGets = 16;

enum class OpKind { kGet, kWindowPut, kFreshPut };

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void FillRandom(char* dst, size_t n, uint64_t seed) {
  uint64_t state = seed;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint64_t v = SplitMix(&state);
    std::memcpy(dst + i, &v, 8);
  }
  for (; i < n; ++i) dst[i] = static_cast<char>(SplitMix(&state));
}

struct KeyState {
  std::string key;
  std::string content;  ///< The bytes this client last wrote.
  Hash256 sha;
};

/// One client thread's inputs and observations.
struct Worker {
  size_t index = 0;
  uint64_t rng = 0;
  std::vector<KeyState> keys;
  std::string meta_key;
  std::vector<OpKind> ops;
  // Untraced samples (ms) and traced-op latencies, for the overhead figure.
  std::vector<double> put_ms, get_ms, meta_ms, traced_put_ms;
  uint64_t put_logical = 0, put_new_physical = 0;
  uint64_t payload_bytes = 0;
  uint64_t done_ops = 0;
};

/// Request bytes sampled for the server-side shadow replay, in send order.
struct ShadowSample {
  std::mutex mu;
  std::set<std::string> keys;
  std::vector<std::string> puts, gets;

  void Capture(std::string_view request) {
    auto decoded = wire::DecodeRequest(request);
    if (!decoded.ok()) return;
    const bool put = decoded->method == wire::Method::kPut;
    const bool get = decoded->method == wire::Method::kGet;
    if (!put && !get) return;
    std::lock_guard<std::mutex> lock(mu);
    if (keys.count(std::string(decoded->key)) == 0) return;
    std::vector<std::string>& into = put ? puts : gets;
    if (into.size() < (put ? kShadowPuts : kShadowGets)) {
      into.emplace_back(request);
    }
  }
};

/// The servers and one cluster client per worker thread: each thread owns
/// its connections, so one thread's 8 MiB streams never queue on the other
/// thread's sockets; the threads still share the servers' workers,
/// admission queues and engines.
struct ArtifactSetup {
  std::unique_ptr<ServerFleet> fleet;
  std::vector<std::unique_ptr<storage::StorageEngine>> clusters;
  std::vector<storage::SocketTransport*> sockets;  ///< Traced runs only.
  std::unique_ptr<ShadowSample> shadow;
};

/// Untraced runs connect exactly as applications do (ConnectCluster);
/// traced runs build the same composition by hand with the span
/// decorators on each shard proxy and each transport.
StatusOr<std::unique_ptr<storage::StorageEngine>> Connect(
    const RunConfig& config, ArtifactSetup* setup) {
  if (!config.trace) {
    MLCASK_ASSIGN_OR_RETURN(
        auto cluster,
        storage::ConnectCluster(setup->fleet->endpoints(),
                                storage::ShardedStorageEngine::Options(),
                                ClientTransportOptions()));
    return std::unique_ptr<storage::StorageEngine>(std::move(cluster));
  }
  ShadowSample* shadow = setup->shadow.get();
  std::vector<std::unique_ptr<storage::StorageEngine>> proxies;
  for (const std::string& endpoint : setup->fleet->endpoints()) {
    MLCASK_ASSIGN_OR_RETURN(
        auto socket,
        storage::SocketTransport::Connect(endpoint, ClientTransportOptions()));
    setup->sockets.push_back(socket.get());
    auto transport = std::make_unique<TracingTransport>(
        std::move(socket),
        [shadow](std::string_view request) { shadow->Capture(request); });
    proxies.push_back(std::make_unique<TracingEngine>(
        std::make_unique<storage::RemoteStorageEngine>(std::move(transport))));
  }
  return std::unique_ptr<storage::StorageEngine>(
      std::make_unique<storage::ShardedStorageEngine>(
          std::move(proxies), storage::ShardedStorageEngine::Options()));
}

Status Preload(storage::StorageEngine* cluster, const Worker& w) {
  for (const KeyState& k : w.keys) {
    MLCASK_RETURN_IF_ERROR(cluster->Put(k.key, k.content).status());
  }
  return cluster->Put(w.meta_key, std::string(kMetaBytes, 'm')).status();
}

/// Runs one client thread's fixed op list.
void RunWorker(storage::StorageEngine* cluster, const RunConfig& config,
               Worker* w, RunResult* result, std::mutex* result_mu) {
  auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(*result_mu);
    result->Fail(why);
  };
  const auto overrun =
      std::chrono::milliseconds(kOpDeadlineMs + kEpsilonMs);
  std::string meta(kMetaBytes, '\0');
  for (size_t i = 0; i < w->ops.size(); ++i) {
    const OpKind kind = w->ops[i];
    KeyState& k = w->keys[SplitMix(&w->rng) % w->keys.size()];
    const bool traced = config.trace && i % 2 == 0;
    const uint64_t request = (w->index * 1000000 + i) * 2 + 1;
    if (kind == OpKind::kWindowPut) {
      const size_t offset =
          SplitMix(&w->rng) % (kArtifactBytes - kWindowBytes + 1);
      FillRandom(k.content.data() + offset, kWindowBytes, SplitMix(&w->rng));
      k.sha = Sha256::Digest(k.content);
    } else if (kind == OpKind::kFreshPut) {
      FillRandom(k.content.data(), kArtifactBytes, SplitMix(&w->rng));
      k.sha = Sha256::Digest(k.content);
    }
    double op_ms = 0;
    {
      RequestScope scope(request, traced);
      storage::DeadlineBudget budget(kOpDeadlineMs);
      storage::DeadlineScope deadline(&budget);
      const auto t0 = Clock::now();
      if (kind == OpKind::kGet) {
        StatusOr<std::string> got = Status::Internal("unset");
        {
          ScopedSpan span("storage.router.get");
          got = cluster->Get(k.key);
        }
        op_ms = MsSince(t0, Clock::now());
        if (!got.ok()) {
          fail("get " + k.key + ": " + got.status().ToString());
          return;
        }
        if (Sha256::Digest(*got) != k.sha) {
          fail("corrupt read of " + k.key + ": SHA-256 differs from the "
               "last put");
          return;
        }
        if (!traced) w->get_ms.push_back(op_ms);
      } else {
        StatusOr<storage::PutResult> put = Status::Internal("unset");
        {
          ScopedSpan span("storage.router.put");
          put = cluster->Put(k.key, k.content);
        }
        op_ms = MsSince(t0, Clock::now());
        if (!put.ok()) {
          fail("put " + k.key + ": " + put.status().ToString());
          return;
        }
        w->put_logical += put->logical_bytes;
        w->put_new_physical += put->new_physical_bytes;
        (traced ? w->traced_put_ms : w->put_ms).push_back(op_ms);
      }
    }
    if (op_ms > static_cast<double>(overrun.count())) {
      fail("8 MiB op overran deadline + epsilon");
      return;
    }
    w->payload_bytes += kArtifactBytes;
    ++w->done_ops;

    FillRandom(meta.data(), meta.size(), SplitMix(&w->rng));
    {
      RequestScope scope(request + 1, traced);
      storage::DeadlineBudget budget(kOpDeadlineMs);
      storage::DeadlineScope deadline(&budget);
      const auto t0 = Clock::now();
      StatusOr<storage::PutResult> put = Status::Internal("unset");
      {
        ScopedSpan span("storage.router.meta_put");
        put = cluster->Put(w->meta_key, meta);
      }
      const double ms = MsSince(t0, Clock::now());
      if (!put.ok()) {
        fail("replicated put: " + put.status().ToString());
        return;
      }
      if (ms > static_cast<double>(overrun.count())) {
        fail("replicated put overran deadline + epsilon");
        return;
      }
      if (!traced) w->meta_ms.push_back(ms);
    }
  }
}

/// Per-layer self times of traced requests, keyed by root span name.
struct LayerSamples {
  std::vector<double> router_put, router_get, router_meta;
  std::vector<double> codec_put, codec_get, transport_put, transport_get;
};

LayerSamples ReduceSpans() {
  const std::vector<Span> spans = Tracer::Instance().Snapshot();
  const std::map<uint64_t, double> self = SelfTimesMs(spans);
  LayerSamples out;
  for (const auto& [request, group] : ByRequest(spans)) {
    const Span* root = nullptr;
    for (const Span* s : group) {
      if (s->parent == 0) root = s;
    }
    if (root == nullptr || request == 0) continue;
    double codec = 0, transport = 0;
    for (const Span* s : group) {
      const std::string name = s->name;
      if (name.rfind("storage.codec.", 0) == 0) codec += self.at(s->id);
      if (name == "storage.transport") transport += s->ms();
    }
    const std::string root_name = root->name;
    const double router = self.at(root->id);
    if (root_name == "storage.router.put") {
      out.router_put.push_back(router);
      out.codec_put.push_back(codec);
      out.transport_put.push_back(transport);
    } else if (root_name == "storage.router.get") {
      out.router_get.push_back(router);
      out.codec_get.push_back(codec);
      out.transport_get.push_back(transport);
    } else if (root_name == "storage.router.meta_put") {
      out.router_meta.push_back(router);
    }
  }
  return out;
}

/// Replays the sampled request bytes through an in-process
/// StorageEngineService::Handle and a bare ForkBaseEngine, after the timed
/// phase, so the servers' handler and engine costs are seen without the
/// wire.
void ShadowProbe(const ShadowSample& sample, RunResult* result,
                 double* handle_put_p50, double* handle_get_p50) {
  std::vector<double> handle_put, handle_get, engine_put, engine_get;
  {
    storage::StorageEngineService service(
        std::make_unique<storage::ForkBaseEngine>());
    for (const std::string& request : sample.puts) {
      const auto t0 = Clock::now();
      const std::string response = service.Handle(request);
      handle_put.push_back(MsSince(t0, Clock::now()));
      if (!wire::DecodePutResponse(response).ok()) {
        result->Fail("shadow put replay failed");
      }
    }
    for (const std::string& request : sample.gets) {
      const auto t0 = Clock::now();
      const std::string response = service.Handle(request);
      handle_get.push_back(MsSince(t0, Clock::now()));
      if (!wire::DecodeDataResponse(response).ok()) {
        result->Fail("shadow get replay failed");
      }
    }
  }
  storage::ForkBaseEngine engine;
  double chunk_s = 0;
  uint64_t chunk_bytes = 0;
  for (const std::string& request : sample.puts) {
    auto decoded = wire::DecodeRequest(request);
    if (!decoded.ok()) continue;
    const std::string key(decoded->key);
    auto t0 = Clock::now();
    auto put = engine.Put(key, decoded->body);
    engine_put.push_back(MsSince(t0, Clock::now()));
    if (!put.ok()) result->Fail("shadow engine put failed");
    t0 = Clock::now();
    const auto cuts = wire::WireChunker().Split(decoded->body);
    chunk_s += MsSince(t0, Clock::now()) / 1e3;
    chunk_bytes += decoded->body.size();
    if (cuts.empty()) result->Fail("wire chunker produced no cuts");
  }
  for (const std::string& request : sample.gets) {
    auto decoded = wire::DecodeRequest(request);
    if (!decoded.ok()) continue;
    const auto t0 = Clock::now();
    auto got = engine.Get(std::string(decoded->key));
    engine_get.push_back(MsSince(t0, Clock::now()));
    if (!got.ok()) result->Fail("shadow engine get failed");
  }
  *handle_put_p50 = Median(handle_put);
  *handle_get_p50 = Median(handle_get);
  result->Set("storage.server.handle_put_ms", "ms", *handle_put_p50);
  result->Set("storage.server.handle_get_ms", "ms", *handle_get_p50);
  result->Set("storage.engine.put_ms", "ms", Median(engine_put));
  result->Set("storage.engine.get_ms", "ms", Median(engine_get));
  result->Set("storage.engine.chunk_mb_per_s", "MB/s",
              Ratio(static_cast<double>(chunk_bytes) / 1e6, chunk_s));
}

storage::TransportStats SumStats(
    const std::vector<storage::SocketTransport*>& sockets, uint64_t* retries) {
  storage::TransportStats total;
  *retries = 0;
  for (const storage::SocketTransport* s : sockets) {
    const storage::TransportStats st = s->stats();
    total.chunk_frames_sent += st.chunk_frames_sent;
    total.chunk_frames_received += st.chunk_frames_received;
    total.transport_errors += st.transport_errors;
    total.peak_decoder_buffer_bytes =
        std::max(total.peak_decoder_buffer_bytes, st.peak_decoder_buffer_bytes);
    *retries += st.transport_errors + s->redials();
  }
  return total;
}

}  // namespace

RunResult RunArtifactIo(const RunConfig& config) {
  RunResult result;
  const size_t ops_per_thread = std::max<size_t>(
      8, static_cast<size_t>(config.seconds * kOpsPerThreadPerSecond));

  // Inputs: base content per key and an exact, shuffled op mix per thread
  // (50% get, 35% window rewrite, 15% fresh content), all from the seed.
  std::vector<Worker> workers(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    Worker& w = workers[t];
    w.index = t;
    w.rng = config.seed * 0x100000001B3ull + t * 7919 + 1;
    for (size_t j = 0; j < kKeysPerThread; ++j) {
      KeyState k;
      k.key = "artifact/t" + std::to_string(t) + "/k" + std::to_string(j);
      k.content.resize(kArtifactBytes);
      FillRandom(k.content.data(), kArtifactBytes, SplitMix(&w.rng));
      k.sha = Sha256::Digest(k.content);
      w.keys.push_back(std::move(k));
    }
    w.meta_key = "pipeline/perfbench/t" + std::to_string(t);
    const size_t gets = ops_per_thread / 2;
    const size_t windows = ops_per_thread * 35 / 100;
    w.ops.assign(gets, OpKind::kGet);
    w.ops.insert(w.ops.end(), windows, OpKind::kWindowPut);
    w.ops.insert(w.ops.end(), ops_per_thread - gets - windows,
                 OpKind::kFreshPut);
    for (size_t i = w.ops.size(); i > 1; --i) {
      std::swap(w.ops[i - 1], w.ops[SplitMix(&w.rng) % i]);
    }
  }

  // Set-up, kSetupRepetitions times: spawn, connect, preload 128 MiB.
  std::vector<double> setup_s;
  ArtifactSetup setup;
  for (int rep = 0; rep < kSetupRepetitions && result.correct; ++rep) {
    if (setup.fleet != nullptr) {
      setup.clusters.clear();
      Status stopped = setup.fleet->Stop();
      if (!stopped.ok()) result.Fail("server stop: " + stopped.ToString());
      setup = ArtifactSetup();
    }
    const auto t0 = Clock::now();
    setup.fleet = std::make_unique<ServerFleet>();
    ServerFleet::Options fleet_options;
    fleet_options.binary = config.server_binary;
    fleet_options.run_dir = config.run_dir;
    Status started = setup.fleet->Start(2, fleet_options);
    if (!started.ok()) {
      result.Fail("server start: " + started.ToString());
      break;
    }
    if (config.trace) {
      setup.shadow = std::make_unique<ShadowSample>();
      for (const Worker& w : workers) setup.shadow->keys.insert(w.keys[0].key);
    }
    for (size_t t = 0; t < kThreads && result.correct; ++t) {
      auto cluster = Connect(config, &setup);
      if (!cluster.ok()) {
        result.Fail("connect: " + cluster.status().ToString());
        break;
      }
      setup.clusters.push_back(*std::move(cluster));
    }
    if (!result.correct) break;
    std::vector<Status> preloaded(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        preloaded[t] = Preload(setup.clusters[t].get(), workers[t]);
      });
    }
    for (std::thread& th : threads) th.join();
    for (const Status& s : preloaded) {
      if (!s.ok()) result.Fail("preload: " + s.ToString());
    }
    setup_s.push_back(MsSince(t0, Clock::now()) / 1e3);
  }
  result.Set("setup_s", "s", Median(setup_s));
  if (!result.correct) return result;

  uint64_t retries_before = 0;
  const storage::TransportStats before = SumStats(setup.sockets, &retries_before);
  std::mutex result_mu;
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        RunWorker(setup.clusters[t].get(), config, &workers[t], &result,
                  &result_mu);
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const double elapsed_s = MsSince(start, Clock::now()) / 1e3;

  std::vector<double> put_ms, get_ms, meta_ms, traced_put_ms;
  uint64_t payload = 0, ops = 0, logical = 0, new_physical = 0;
  for (const Worker& w : workers) {
    put_ms.insert(put_ms.end(), w.put_ms.begin(), w.put_ms.end());
    get_ms.insert(get_ms.end(), w.get_ms.begin(), w.get_ms.end());
    meta_ms.insert(meta_ms.end(), w.meta_ms.begin(), w.meta_ms.end());
    traced_put_ms.insert(traced_put_ms.end(), w.traced_put_ms.begin(),
                         w.traced_put_ms.end());
    payload += w.payload_bytes;
    ops += w.done_ops;
    logical += w.put_logical;
    new_physical += w.put_new_physical;
  }
  result.attempted = ops_per_thread * kThreads;
  const storage::EngineStats stored = setup.clusters[0]->stats();
  const double stored_per_logical =
      Ratio(static_cast<double>(stored.physical_bytes),
            static_cast<double>(stored.logical_bytes));
  const double server_rss = setup.fleet->PeakRssMb();

  if (config.trace && result.correct) {
    uint64_t retries_after = 0;
    const storage::TransportStats after =
        SumStats(setup.sockets, &retries_after);
    const LayerSamples layers = ReduceSpans();
    result.Set("storage.router.put_ms", "ms", Median(layers.router_put));
    result.Set("storage.router.get_ms", "ms", Median(layers.router_get));
    result.Set("storage.router.meta_put_ms", "ms",
               Median(layers.router_meta));
    result.Set("storage.codec.put_ms", "ms", Median(layers.codec_put));
    result.Set("storage.codec.get_ms", "ms", Median(layers.codec_get));
    const double transport_put = Median(layers.transport_put);
    const double transport_get = Median(layers.transport_get);
    result.Set("storage.transport.put_ms", "ms", transport_put);
    result.Set("storage.transport.get_ms", "ms", transport_get);
    result.Set("storage.transport.chunk_frames_per_op", "count",
               Ratio(static_cast<double>(
                         after.chunk_frames_sent + after.chunk_frames_received -
                         before.chunk_frames_sent -
                         before.chunk_frames_received),
                     static_cast<double>(ops)));
    result.Set("storage.transport.peak_buffer_kb", "KiB",
               static_cast<double>(after.peak_decoder_buffer_bytes) / 1024);
    result.Set("storage.transport.retries", "count",
               static_cast<double>(retries_after - retries_before));
    result.Set("storage.engine.dedup_ratio", "ratio",
               1 - Ratio(static_cast<double>(new_physical),
                         static_cast<double>(logical)));
    result.Set("storage.engine.stored_per_logical", "ratio",
               stored_per_logical);
    double handle_put = 0, handle_get = 0;
    ShadowProbe(*setup.shadow, &result, &handle_put, &handle_get);
    result.Set("storage.server.residual_ms", "ms",
               ((transport_put - handle_put) + (transport_get - handle_get)) /
                   2);
    const double delta = Median(traced_put_ms) - Median(put_ms);
    result.Set("trace.overhead_p50_ms", "ms", delta);
    result.Set("trace.overhead_ratio", "ratio", Ratio(delta, Median(put_ms)));
    result.Set("client.rss_mb", "MiB", VmHwmMb(0));
  }

  result.Set("latency_p50_ms", "ms", Percentile(put_ms, 0.5));
  result.Set("latency_p90_ms", "ms", Percentile(put_ms, 0.9));
  result.Set("read_p50_ms", "ms", Percentile(get_ms, 0.5));
  result.Set("client.small_call_p50_ms", "ms", Percentile(meta_ms, 0.5));
  result.Set("throughput_per_s", "1/s",
             Ratio(static_cast<double>(ops), elapsed_s));
  result.Set("server_rss_mb", "MiB", server_rss);

  result.Report("setup_s", "s", result.metrics["setup_s"].value);
  result.Report("put_p50_ms", "ms", Percentile(put_ms, 0.5));
  result.Report("put_p90_ms", "ms", Percentile(put_ms, 0.9));
  result.Report("put_samples", "count", static_cast<double>(put_ms.size()));
  result.Report("get_p50_ms", "ms", Percentile(get_ms, 0.5));
  result.Report("get_p90_ms", "ms", Percentile(get_ms, 0.9));
  result.Report("get_samples", "count", static_cast<double>(get_ms.size()));
  result.Report("meta_p50_ms", "ms", Percentile(meta_ms, 0.5));
  result.Report("meta_samples", "count", static_cast<double>(meta_ms.size()));
  result.Report("io_mb_per_s", "MB/s",
                Ratio(static_cast<double>(payload) / 1e6, elapsed_s));
  result.Report("stored_per_logical", "ratio", stored_per_logical);
  result.Report("fail_ratio", "ratio",
                Ratio(static_cast<double>(result.failed),
                      static_cast<double>(result.attempted)));
  result.Report("server_rss_mb", "MiB", server_rss);
  result.Report("client_rss_mb", "MiB", VmHwmMb(0));

  setup.clusters.clear();
  Status stopped = setup.fleet->Stop();
  if (!stopped.ok()) result.Fail("server stop: " + stopped.ToString());
  return result;
}

}  // namespace perfbench
