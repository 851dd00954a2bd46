#include "trace.hpp"

#include <pthread.h>

#include <cstdio>
#include <stdexcept>

namespace e2e {

namespace {

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadTrace>> g_registry;  // never shrinks

}  // namespace

ThreadTrace& thread_trace() {
  thread_local ThreadTrace* mine = nullptr;
  if (mine == nullptr) {
    auto t = std::make_unique<ThreadTrace>();
    t->has_cpu_clock = pthread_getcpuclockid(pthread_self(), &t->cpu_clock) == 0;
    t->spans.reserve(ThreadTrace::kMaxSpans);
    const std::lock_guard<std::mutex> g(g_registry_mu);
    g_registry.push_back(std::move(t));
    mine = g_registry.back().get();
  }
  return *mine;
}

std::vector<ThreadTrace*> thread_traces() {
  const std::lock_guard<std::mutex> g(g_registry_mu);
  std::vector<ThreadTrace*> out;
  for (const auto& t : g_registry) out.push_back(t.get());
  return out;
}

void dump_spans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  static constexpr const char* kNames[] = {"sink", "enforce.inner",
                                           "detector.outer", "detector.inner",
                                           "-"};
  std::fprintf(f, "thread,layer,parent,batch,start_ns,end_ns\n");
  const std::vector<ThreadTrace*> all = thread_traces();
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (const Span& s : all[i]->spans) {
      std::fprintf(f, "%zu,%s,%s,%u,%llu,%llu\n", i, kNames[s.layer],
                   kNames[s.parent], s.batch,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

void Capture::record(std::span<const std::uint32_t> ads,
                     std::span<const core::ClickId> ids,
                     std::span<const std::uint64_t> times,
                     std::span<const std::uint32_t> sources,
                     std::span<const bool> verdicts) {
  if (!active.load(std::memory_order_relaxed)) return;
  const std::lock_guard<std::mutex> g(mu_);
  const std::size_t n = ids.size();
  if (verdicts_.size() + n > limit_) {
    active.store(false, std::memory_order_relaxed);
    return;
  }
  cols_.ads.insert(cols_.ads.end(), ads.begin(), ads.end());
  cols_.ids.insert(cols_.ids.end(), ids.begin(), ids.end());
  cols_.times.insert(cols_.times.end(), times.begin(), times.end());
  if (sources.empty()) {
    cols_.sources.insert(cols_.sources.end(), n, 0u);
  } else {
    cols_.sources.insert(cols_.sources.end(), sources.begin(), sources.end());
  }
  for (std::size_t i = 0; i < n; ++i) verdicts_.push_back(verdicts[i] ? 1 : 0);
  sizes_.push_back(static_cast<std::uint32_t>(n));
}

}  // namespace e2e
