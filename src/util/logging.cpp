#include "util/logging.hpp"

#include <cstdio>

#include "util/thread_annotations.hpp"

namespace scidock {

namespace {
Mutex g_sink_mutex{"log.sink"};  ///< serialises whole lines onto stderr
}  // namespace

void log_warning(const std::string& message) {
  MutexLock lock(g_sink_mutex);
  std::fprintf(stderr, "[scidock WARN ] %s\n", message.c_str());
}

}  // namespace scidock
