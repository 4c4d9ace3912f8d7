#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Benchmark-owned decorators around the public storage interfaces. Each
// forwards every call unchanged and, on a traced request, records a span:
//
//   TracingEngine     around each shard proxy (RemoteStorageEngine): the
//                     codec layer's span ("storage.codec.<op>");
//   TracingTransport  around each socket transport: the transport layer's
//                     span ("storage.transport"), which covers frames,
//                     socket, the server's admission wait and handler.
//
// Asynchronous transport calls (the router's 2PC fan-outs) end on a watcher
// thread, so their spans close when the response arrives, not when the
// caller gets round to collecting it.

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "storage/storage_engine.h"
#include "storage/transport.h"
#include "trace.h"

namespace perfbench {

class TracingTransport : public mlcask::storage::Transport {
 public:
  /// Sees every request before it is sent (used to sample request bytes
  /// for the server-side shadow replay).
  using Capture = std::function<void(std::string_view)>;

  TracingTransport(std::unique_ptr<mlcask::storage::Transport> inner,
                   Capture capture);
  ~TracingTransport() override;

  mlcask::StatusOr<std::string> Call(std::string_view request) override;
  mlcask::storage::TransportFuture AsyncCall(
      std::string_view request) override;
  std::vector<mlcask::StatusOr<std::string>> CallMany(
      const std::vector<std::string>& requests) override;

  mlcask::storage::TransportStats stats() const override {
    return inner_->stats();
  }
  std::string Name() const override { return inner_->Name(); }
  uint64_t call_timeout_ms() const override {
    return inner_->call_timeout_ms();
  }
  uint8_t wire_version() const override { return inner_->wire_version(); }
  void set_wire_version(uint8_t version) override {
    inner_->set_wire_version(version);
  }

 private:
  struct Pending {
    mlcask::storage::TransportFuture future;
    std::promise<mlcask::StatusOr<std::string>> promise;
    Span span;
  };

  void WatchLoop();

  std::unique_ptr<mlcask::storage::Transport> inner_;
  Capture capture_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> pending_;
  bool stopping_ = false;
  std::thread watcher_;
};

class TracingEngine : public mlcask::storage::StorageEngine {
 public:
  explicit TracingEngine(std::unique_ptr<mlcask::storage::StorageEngine> inner)
      : inner_(std::move(inner)) {}

  mlcask::StatusOr<mlcask::storage::PutResult> Put(
      const std::string& key, std::string_view data) override {
    ScopedSpan span("storage.codec.put");
    return inner_->Put(key, data);
  }
  mlcask::StatusOr<std::vector<mlcask::storage::PutResult>> PutMany(
      const std::vector<mlcask::storage::PutRequest>& batch) override {
    ScopedSpan span("storage.codec.put_many");
    return inner_->PutMany(batch);
  }
  mlcask::StatusOr<std::string> Get(const std::string& key) override {
    ScopedSpan span("storage.codec.get");
    return inner_->Get(key);
  }
  mlcask::StatusOr<std::string> GetVersion(
      const mlcask::Hash256& id) override {
    ScopedSpan span("storage.codec.get_version");
    return inner_->GetVersion(id);
  }
  bool HasVersion(const mlcask::Hash256& id) const override {
    ScopedSpan span("storage.codec.has_version");
    return inner_->HasVersion(id);
  }
  std::vector<mlcask::Hash256> Versions(
      const std::string& key) const override {
    ScopedSpan span("storage.codec.versions");
    return inner_->Versions(key);
  }
  std::vector<std::pair<std::string, mlcask::Hash256>> ListAllVersions()
      const override {
    return inner_->ListAllVersions();
  }
  mlcask::StatusOr<uint64_t> DeleteVersion(
      const mlcask::Hash256& id) override {
    ScopedSpan span("storage.codec.delete");
    return inner_->DeleteVersion(id);
  }
  mlcask::StatusOr<mlcask::storage::MigrateBatchResult> MigrateBatch(
      const std::vector<mlcask::storage::MigrateKeyVersions>& batch) override {
    return inner_->MigrateBatch(batch);
  }
  mlcask::storage::EngineStats stats() const override {
    return inner_->stats();
  }
  std::string Name() const override { return inner_->Name(); }
  double ReadCost(uint64_t bytes) const override {
    return inner_->ReadCost(bytes);
  }

  // The asynchronous surface forwards untouched: encoding happens at issue,
  // and the round trip is the transport span the decorator below records.
  mlcask::storage::Deferred<mlcask::storage::PutResult> AsyncPut(
      const std::string& key, std::string_view data) override {
    return inner_->AsyncPut(key, data);
  }
  mlcask::storage::Deferred<std::vector<mlcask::storage::PutResult>>
  AsyncPutMany(const std::vector<mlcask::storage::PutRequest>& batch) override {
    return inner_->AsyncPutMany(batch);
  }
  mlcask::storage::Deferred<std::string> AsyncGetVersion(
      const mlcask::Hash256& id) override {
    return inner_->AsyncGetVersion(id);
  }
  mlcask::storage::Deferred<bool> AsyncHasVersion(
      const mlcask::Hash256& id) const override {
    return inner_->AsyncHasVersion(id);
  }
  mlcask::storage::Deferred<uint64_t> AsyncDeleteVersion(
      const mlcask::Hash256& id) override {
    return inner_->AsyncDeleteVersion(id);
  }
  mlcask::storage::Deferred<mlcask::storage::MigrateBatchResult>
  AsyncMigrateBatch(
      const std::vector<mlcask::storage::MigrateKeyVersions>& batch) override {
    return inner_->AsyncMigrateBatch(batch);
  }

 private:
  std::unique_ptr<mlcask::storage::StorageEngine> inner_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
