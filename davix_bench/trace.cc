#include "davix_bench/trace.h"

#include <cstdio>
#include <utility>

#include "common/clock.h"

namespace davix {
namespace bench {
namespace {

thread_local uint32_t tls_tid = 0;
thread_local uint64_t tls_op = 0;
thread_local uint64_t tls_current_span = 0;

}  // namespace

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(size_t max_spans) {
  MutexLock lock(mu_);
  max_spans_ = max_spans;
  spans_.reserve(max_spans);
  enabled_ = true;
}

void Tracer::Record(const SpanRecord& span) {
  MutexLock lock(mu_);
  ++seen_;
  if (spans_.size() < max_spans_) spans_.push_back(span);
}

uint64_t Tracer::NextId() {
  MutexLock lock(mu_);
  return next_id_++;
}

uint64_t Tracer::seen() const {
  MutexLock lock(mu_);
  return seen_;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& other_fields) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  MutexLock lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::string name = s.name;
    std::string layer = name.substr(0, name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %lld, \"dur\": %lld, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
                 i == 0 ? "" : ",", name.c_str(), layer.c_str(),
                 static_cast<long long>(s.start_micros),
                 static_cast<long long>(s.end_micros - s.start_micros),
                 s.tid, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f,
               "\n], \"otherData\": {\"spans_seen\": %llu, "
               "\"spans_kept\": %zu%s%s}}\n",
               static_cast<unsigned long long>(seen_), spans_.size(),
               other_fields.empty() ? "" : ", ", other_fields.c_str());
  return std::fclose(f) == 0;
}

void SetTraceThread(uint32_t tid) { tls_tid = tid; }
void SetTraceOp(uint64_t op) { tls_op = op; }

Span::Span(const char* name, Tracer& tracer) : tracer_(tracer), name_(name) {
  if (!tracer_.enabled()) return;
  id_ = tracer_.NextId();
  parent_ = tls_current_span;
  tls_current_span = id_;
  start_micros_ = MonotonicMicros();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord record;
  record.name = name_;
  record.start_micros = start_micros_;
  record.end_micros = MonotonicMicros();
  record.id = id_;
  record.parent = parent_;
  record.op = tls_op;
  record.tid = tls_tid;
  tls_current_span = parent_;
  tracer_.Record(record);
}

double MeasureSpanCostMicros(int n) {
  Tracer scratch;
  scratch.Enable(static_cast<size_t>(n));
  Stopwatch stopwatch;
  for (int i = 0; i < n; ++i) {
    Span span("bench.calibrate", scratch);
  }
  return static_cast<double>(stopwatch.ElapsedMicros()) / n;
}

// --- TimedFile ---------------------------------------------------------

namespace {

/// Completion token that charges its Wait to the job's blocked time.
class TimedPending : public root::PendingVecRead {
 public:
  TimedPending(std::unique_ptr<root::PendingVecRead> inner,
               RootIoTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  Result<std::vector<std::string>> Wait() override {
    Span span("core.wait");
    int64_t start = MonotonicMicros();
    auto result = inner_->Wait();
    int64_t waited = MonotonicMicros() - start;
    times_->io_wait_micros += waited;
    times_->cluster_wait_ms.Add(static_cast<double>(waited) / 1e3);
    return result;
  }

 private:
  std::unique_ptr<root::PendingVecRead> inner_;
  RootIoTimes* times_;
};

}  // namespace

Result<std::string> TimedFile::PRead(uint64_t offset, uint64_t length) {
  Span span("core.pread");
  int64_t start = MonotonicMicros();
  auto result = inner_->PRead(offset, length);
  times_->io_wait_micros += MonotonicMicros() - start;
  return result;
}

Result<std::vector<std::string>> TimedFile::PReadVec(
    const std::vector<http::ByteRange>& ranges) {
  Span span("core.preadvec");
  int64_t start = MonotonicMicros();
  auto result = inner_->PReadVec(ranges);
  int64_t waited = MonotonicMicros() - start;
  times_->io_wait_micros += waited;
  times_->cluster_wait_ms.Add(static_cast<double>(waited) / 1e3);
  return result;
}

std::unique_ptr<root::PendingVecRead> TimedFile::PReadVecAsync(
    const std::vector<http::ByteRange>& ranges) {
  Span span("core.submit");
  int64_t start = MonotonicMicros();
  auto pending = inner_->PReadVecAsync(ranges);
  times_->io_wait_micros += MonotonicMicros() - start;
  return std::make_unique<TimedPending>(std::move(pending), times_);
}

}  // namespace bench
}  // namespace davix
