#include "layers.h"

#include <chrono>

namespace perfbench {

using mlcask::StatusOr;
using mlcask::storage::TransportFuture;

TracingTransport::TracingTransport(
    std::unique_ptr<mlcask::storage::Transport> inner, Capture capture)
    : inner_(std::move(inner)), capture_(std::move(capture)) {
  watcher_ = std::thread([this] { WatchLoop(); });
}

TracingTransport::~TracingTransport() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  watcher_.join();
}

StatusOr<std::string> TracingTransport::Call(std::string_view request) {
  if (capture_) capture_(request);
  ScopedSpan span("storage.transport");
  return inner_->Call(request);
}

std::vector<StatusOr<std::string>> TracingTransport::CallMany(
    const std::vector<std::string>& requests) {
  if (capture_) {
    for (const std::string& request : requests) capture_(request);
  }
  ScopedSpan span("storage.transport");
  return inner_->CallMany(requests);
}

TransportFuture TracingTransport::AsyncCall(std::string_view request) {
  if (capture_) capture_(request);
  if (!TracingActive()) return inner_->AsyncCall(request);
  Pending pending;
  pending.span.name = "storage.transport";
  pending.span.id = Tracer::Instance().NextId();
  pending.span.parent = CurrentSpan();
  pending.span.request = CurrentRequest();
  pending.span.start_ns = NowNs();
  pending.future = inner_->AsyncCall(request);
  TransportFuture out = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(std::move(pending));
  }
  cv_.notify_all();
  return out;
}

void TracingTransport::WatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) return;  // stopping, nothing left in flight
    // Resolve whichever responses have arrived, in any order, so one slow
    // call never delays another's completion.
    bool progressed = false;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      Pending done = std::move(*it);
      it = pending_.erase(it);
      lock.unlock();
      done.span.end_ns = NowNs();
      Tracer::Instance().Record(done.span);
      done.promise.set_value(done.future.get());
      lock.lock();
      progressed = true;
      it = pending_.begin();
    }
    if (!progressed) {
      lock.unlock();
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      lock.lock();
    }
  }
}

}  // namespace perfbench
