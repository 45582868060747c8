#ifndef DAVIX_BENCH_TRACE_H_
#define DAVIX_BENCH_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/stats.h"
#include "root/random_access_file.h"

namespace davix {
namespace bench {

/// One finished span: a timed call across a layer boundary, recorded from
/// the benchmark's own code. `name` is "<layer>.<what>" and must point at
/// a string literal.
struct SpanRecord {
  const char* name = "";
  int64_t start_micros = 0;
  int64_t end_micros = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< enclosing span on the same thread; 0 = none
  uint64_t op = 0;      ///< logical operation (job, pass, request) id
  uint32_t tid = 0;     ///< client thread index
};

/// Process-wide in-memory span sink, written out once at the end of a run
/// as Chrome trace-event JSON. Off by default: a disabled tracer makes
/// every Span a no-op, so untraced runs measure the library alone.
///
/// Thread-safe: yes — spans from all client threads append under one lock.
class Tracer {
 public:
  static Tracer& Get();

  /// Starts recording; at most `max_spans` spans are kept (later ones are
  /// counted as dropped so the file stays bounded).
  void Enable(size_t max_spans);
  bool enabled() const { return enabled_; }

  void Record(const SpanRecord& span);
  uint64_t NextId();

  /// Spans seen, kept or not.
  uint64_t seen() const;

  /// Writes {"traceEvents": [...], "otherData": {<other_fields>}} to
  /// `path`. `other_fields` is the already-encoded body of a JSON object.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_fields) const;

 private:
  bool enabled_ = false;
  mutable Mutex mu_;
  std::vector<SpanRecord> spans_ GUARDED_BY(mu_);
  size_t max_spans_ GUARDED_BY(mu_) = 0;
  uint64_t seen_ GUARDED_BY(mu_) = 0;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

/// Names the calling client thread and the logical operation it is
/// working on; spans opened afterwards on this thread carry both.
void SetTraceThread(uint32_t tid);
void SetTraceOp(uint64_t op);

/// RAII span: opens at construction, records at destruction, and is the
/// parent of spans opened on the same thread in between.
class Span {
 public:
  explicit Span(const char* name, Tracer& tracer = Tracer::Get());
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  const char* name_;
  int64_t start_micros_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Cost of one span open/close pair, in microseconds, measured by
/// recording `n` spans into a scratch tracer.
double MeasureSpanCostMicros(int n);

/// Time the analysis thread spent blocked in its transport during one job.
struct RootIoTimes {
  int64_t io_wait_micros = 0;
  /// One sample per blocking vectored call (a synchronous cluster fetch,
  /// or the wait for a pipelined prefetch), in milliseconds.
  SampleStats cluster_wait_ms;
};

/// Accounting decorator over a transport (the CMSSW StorageFactory
/// wrapNonLocalFile pattern): forwards every call to `inner` and charges
/// the time each blocking call takes to `times`, recording a core.* span
/// per call. Single analysis thread only, like the TreeCache above it.
class TimedFile : public root::RandomAccessFile {
 public:
  TimedFile(std::unique_ptr<root::RandomAccessFile> inner, RootIoTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  uint64_t Size() const override { return inner_->Size(); }
  Result<std::string> PRead(uint64_t offset, uint64_t length) override;
  Result<std::vector<std::string>> PReadVec(
      const std::vector<http::ByteRange>& ranges) override;
  bool SupportsAsyncVec() const override { return inner_->SupportsAsyncVec(); }
  std::unique_ptr<root::PendingVecRead> PReadVecAsync(
      const std::vector<http::ByteRange>& ranges) override;

 private:
  std::unique_ptr<root::RandomAccessFile> inner_;
  RootIoTimes* times_;
};

}  // namespace bench
}  // namespace davix

#endif  // DAVIX_BENCH_TRACE_H_
