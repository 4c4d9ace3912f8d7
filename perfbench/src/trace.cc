#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {
namespace {

struct ThreadContext {
  uint64_t request = 0;
  uint64_t span = 0;
  bool active = false;
};

thread_local ThreadContext tls;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"spans\": [\n");
  const std::vector<Span> spans = Snapshot();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu}%s\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

RequestScope::RequestScope(uint64_t request, bool traced)
    : saved_request_(tls.request),
      saved_span_(tls.span),
      saved_active_(tls.active) {
  tls.request = request;
  tls.span = 0;
  tls.active = traced;
}

RequestScope::~RequestScope() {
  tls.request = saved_request_;
  tls.span = saved_span_;
  tls.active = saved_active_;
}

ScopedSpan::ScopedSpan(const char* name) {
  if (!tls.active) return;
  active_ = true;
  span_.name = name;
  span_.id = Tracer::Instance().NextId();
  span_.parent = tls.span;
  span_.request = tls.request;
  saved_span_ = tls.span;
  tls.span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tls.span = saved_span_;
  Tracer::Instance().Record(span_);
}

uint64_t CurrentSpan() { return tls.active ? tls.span : 0; }
uint64_t CurrentRequest() { return tls.request; }
bool TracingActive() { return tls.active; }

std::map<uint64_t, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, double> self;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent: async
      // children may overlap each other and outlive the issuing span.
      std::vector<std::pair<int64_t, int64_t>> parts = it->second;
      std::sort(parts.begin(), parts.end());
      int64_t cur_start = 0, cur_end = -1;
      for (auto [a, b] : parts) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    self[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

std::map<uint64_t, std::vector<const Span*>> ByRequest(
    const std::vector<Span>& spans) {
  std::map<uint64_t, std::vector<const Span*>> out;
  for (const Span& s : spans) out[s.request].push_back(&s);
  return out;
}

}  // namespace perfbench
