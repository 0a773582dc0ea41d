#include "obs/memory.hpp"

#include <cstdio>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace manthan::obs {

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  // macOS reports ru_maxrss in bytes.
  return static_cast<std::size_t>(usage.ru_maxrss);
#else
  // Linux reports kilobytes.
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

std::size_t current_rss_bytes() {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int matched = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page = sysconf(_SC_PAGESIZE);
  return static_cast<std::size_t>(resident_pages) *
         static_cast<std::size_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

void register_process_metrics(Registry& registry) {
  registry.register_callback_gauge("process_peak_rss_bytes", [] {
    return static_cast<double>(peak_rss_bytes());
  });
  registry.register_callback_gauge("process_rss_bytes", [] {
    return static_cast<double>(current_rss_bytes());
  });
}

}  // namespace manthan::obs
