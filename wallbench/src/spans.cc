#include "spans.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <utility>

namespace wallbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t Tracer::Begin(const std::string& name, const std::string& layer,
                            std::uint64_t parent, std::uint64_t request) {
  return Add(name, layer, parent, request, NowNs(), 0);
}

void Tracer::End(std::uint64_t id) {
  const std::uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_[id - 1].end_ns == 0) spans_[id - 1].end_ns = now;
}

std::uint64_t Tracer::Add(const std::string& name, const std::string& layer,
                          std::uint64_t parent, std::uint64_t request,
                          std::uint64_t start_ns, std::uint64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.layer = layer;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, double> Tracer::SelfNsByLayer(
    const std::vector<std::uint64_t>& roots) const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::size_t>> children(all.size() + 1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    children[all[i].parent].push_back(i);
  }
  std::map<std::string, double> self;
  std::vector<std::size_t> stack;
  if (roots.empty()) {
    for (std::size_t i : children[0]) stack.push_back(i);
  } else {
    for (std::uint64_t r : roots) stack.push_back(r - 1);
  }
  while (!stack.empty()) {
    const Span& s = all[stack.back()];
    stack.pop_back();
    // Union of the children's intervals, clipped to this span: children on
    // parallel shard threads overlap, and each instant counts once.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (std::size_t c : children[s.id]) {
      const Span& k = all[c];
      const std::uint64_t lo = std::max(k.start_ns, s.start_ns);
      const std::uint64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
      stack.push_back(c);
    }
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    covered += cur_hi - cur_lo;
    const std::uint64_t dur = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    self[s.layer] += static_cast<double>(dur - std::min(dur, covered));
  }
  return self;
}

bool Tracer::Dump(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path, std::ios::trunc);
  out << "[";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    out << (i ? ",\n" : "\n") << "{\"id\":" << s.id << ",\"parent\":"
        << s.parent << ",\"request\":" << s.request << ",\"name\":\""
        << s.name << "\",\"layer\":\"" << s.layer
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}";
  }
  out << "\n]\n";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace wallbench
