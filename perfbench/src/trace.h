#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. Spans are opened
// around calls into each layer's public functions (by the benchmark, never
// inside the program), kept in memory, written to a JSON file at exit, and
// reduced to per-layer self times: a span's self time is its duration minus
// the union of its direct children's intervals.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

int64_t NowNs();

struct Span {
  const char* name = "";  ///< Static string: "<layer>.<op>".
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root span of its request.
  uint64_t request = 0;  ///< The benchmark op / session the span belongs to.

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Process-wide span store. Recording happens only on threads inside an
/// active RequestScope, so untraced work pays one thread-local test.
class Tracer {
 public:
  static Tracer& Instance();

  uint64_t NextId();
  void Record(const Span& span);
  std::vector<Span> Snapshot() const;
  /// Writes every span as one JSON document. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Marks the calling thread as working on `request`; spans are recorded
/// only while `traced` is true. Restores the previous context on exit.
class RequestScope {
 public:
  RequestScope(uint64_t request, bool traced);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  uint64_t saved_request_;
  uint64_t saved_span_;
  bool saved_active_;
};

/// RAII span: a no-op outside an active RequestScope.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Span span_;
  uint64_t saved_span_ = 0;
  bool active_ = false;
};

/// The current thread's innermost open span and request (0 when none), for
/// spans that end on another thread (asynchronous calls).
uint64_t CurrentSpan();
uint64_t CurrentRequest();
bool TracingActive();

/// Self time of every span, by span id.
std::map<uint64_t, double> SelfTimesMs(const std::vector<Span>& spans);

/// Spans grouped by request id, each group in recording order.
std::map<uint64_t, std::vector<const Span*>> ByRequest(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
