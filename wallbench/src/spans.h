// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around calls into each ppj layer; nothing inside the
// library is instrumented. Spans are kept in memory and written out once,
// when the run ends.
#ifndef WALLBENCH_SPANS_H_
#define WALLBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace wallbench {

/// Monotonic nanoseconds (steady_clock).
std::uint64_t NowNs();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   ///< 0 = root.
  std::uint64_t request = 0;  ///< Request the span belongs to.
  std::string name;
  std::string layer;  ///< ppj layer the span's self time is charged to.
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;  ///< 0 while the span is open.
};

/// Thread-safe span store. Begin/End bracket one call into a layer; a span's
/// parent is passed explicitly so spans opened on shard threads nest under
/// the span of the thread that started them.
class Tracer {
 public:
  std::uint64_t Begin(const std::string& name, const std::string& layer,
                      std::uint64_t parent, std::uint64_t request);
  /// Ends an open span; a no-op on a span that already ended.
  void End(std::uint64_t id);
  /// Records an already-measured interval.
  std::uint64_t Add(const std::string& name, const std::string& layer,
                    std::uint64_t parent, std::uint64_t request,
                    std::uint64_t start_ns, std::uint64_t end_ns);

  std::vector<Span> spans() const;

  /// Self time per layer, in ns, summed over every span with `root` as an
  /// ancestor (or over all spans when root is 0): a span's duration minus
  /// the part of it its children's intervals cover.
  std::map<std::string, double> SelfNsByLayer(
      const std::vector<std::uint64_t>& roots) const;

  /// Writes every span as one JSON array. False on I/O failure.
  bool Dump(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // Indexed by id - 1.
};

/// RAII span. Null tracer = no-op, so untraced code paths share the code.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, const std::string& layer,
             std::uint64_t parent, std::uint64_t request)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(name, layer, parent, request) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

}  // namespace wallbench

#endif  // WALLBENCH_SPANS_H_
