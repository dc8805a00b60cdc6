#include "util/lockdep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace scidock::lockdep {

std::string_view to_string(HazardKind kind) {
  switch (kind) {
    case HazardKind::kLockInversion: return "lock-order inversion";
    case HazardKind::kPoolSelfWait: return "pool self-wait";
    case HazardKind::kWaitWhileHolding: return "wait while holding a lock";
    case HazardKind::kLongHold: return "long lock hold";
    case HazardKind::kDuplicateClass: return "duplicate lock-class name";
  }
  return "?";
}

std::string_view rule_id(HazardKind kind) {
  switch (kind) {
    case HazardKind::kLockInversion: return "LD001";
    case HazardKind::kPoolSelfWait: return "LD002";
    case HazardKind::kWaitWhileHolding: return "LD003";
    case HazardKind::kLongHold: return "LD004";
    case HazardKind::kDuplicateClass: return "LD005";
  }
  return "LD000";
}

#if SCIDOCK_LOCKDEP_ENABLED

namespace {

using Clock = std::chrono::steady_clock;

std::string site_string(const char* file, int line) {
  if (file == nullptr || file[0] == '\0') return "?";
  return std::string(file) + ":" + std::to_string(line);
}

unsigned long long this_thread_id() {
  return static_cast<unsigned long long>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
}

/// One lock currently held by a thread.
struct Held {
  int class_id = kAnonymousClass;
  const void* instance = nullptr;
  const char* file = "";
  int line = 0;
  Clock::time_point since{};
};

/// First-witness metadata for an order-graph edge held -> acquired.
struct EdgeWitness {
  const char* held_file = "";
  int held_line = 0;
  const char* acquire_file = "";
  int acquire_line = 0;
  unsigned long long thread_id = 0;
};

/// All global analyzer state behind one raw std::mutex (never a
/// scidock::Mutex: the hooks must not re-enter themselves). A Meyer
/// singleton so namespace-scope Mutexes (logging's sink lock) can
/// register classes during static initialisation in any order.
struct Global {
  std::mutex mu;
  /// (name, registration site) -> class id: instances born from one
  /// declaration share a class; a second declaration reusing the name is
  /// an LD005 error and gets its own class (see register_class).
  std::unordered_map<std::string, int> class_ids;
  /// name -> site of the first registration, for LD005 attribution.
  std::unordered_map<std::string, std::string> class_sites;
  std::vector<std::string> class_names;  // index = class id
  /// adjacency: class -> (successor class -> first witness)
  std::unordered_map<int, std::unordered_map<int, EdgeWitness>> graph;
  std::vector<Finding> findings_list;
  /// Dedup keys for non-inversion findings (kind, class/site identity).
  std::unordered_set<std::string> reported;

  std::atomic<bool> enabled{true};
  std::atomic<double> long_hold_s{1.0};
  std::atomic<long long> acquisitions{0};
  std::atomic<long long> order_edges{0};
  std::atomic<long long> cond_waits{0};
  std::atomic<long long> pool_wait_checks{0};
  std::atomic<long long> blocking_waits{0};
  std::atomic<long long> findings_error{0};
  std::atomic<long long> findings_warning{0};

  Global() { class_names.emplace_back("<unnamed>"); }
};

Global& global() {
  static Global g;
  return g;
}

thread_local std::vector<Held> t_held;
/// Edges this thread has already pushed through the global graph, so the
/// steady state costs one thread-local hash probe per acquisition.
thread_local std::unordered_set<unsigned long long> t_seen_edges;
thread_local const void* t_worker_pool = nullptr;

unsigned long long edge_key(int from, int to) {
  return (static_cast<unsigned long long>(static_cast<unsigned>(from)) << 32) |
         static_cast<unsigned>(to);
}

/// Names of every held lock except `except`, comma-joined with sites.
std::string held_summary(Global& g, const void* except) {
  std::string out;
  for (const Held& h : t_held) {
    if (h.instance == except) continue;
    if (!out.empty()) out += ", ";
    out += g.class_names[static_cast<std::size_t>(h.class_id)] +
           " (acquired at " + site_string(h.file, h.line) + ")";
  }
  return out;
}

void record_finding(Global& g, Finding finding) {
  (finding.is_error ? g.findings_error : g.findings_warning)
      .fetch_add(1, std::memory_order_relaxed);
  g.findings_list.push_back(std::move(finding));
}

/// DFS for a path `from` -> ... -> `target` in the order graph. Returns
/// the class-id path including both endpoints, or empty.
std::vector<int> find_path(Global& g, int from, int target) {
  std::vector<int> stack{from};
  std::unordered_set<int> visited{from};
  std::unordered_map<int, int> parent;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    if (node == target) {
      std::vector<int> path{target};
      while (path.back() != from) path.push_back(parent[path.back()]);
      std::reverse(path.begin(), path.end());
      return path;
    }
    const auto it = g.graph.find(node);
    if (it == g.graph.end()) continue;
    for (const auto& [next, witness] : it->second) {
      if (visited.insert(next).second) {
        parent[next] = node;
        stack.push_back(next);
      }
    }
  }
  return {};
}

/// `held` -> `acquiring` is new and closes a cycle: the graph already
/// orders acquiring before held. Build the full diagnostic.
void report_inversion(Global& g, const Held& held, int acquiring_class,
                      std::source_location site,
                      const std::vector<int>& back_path) {
  Finding f;
  f.kind = HazardKind::kLockInversion;
  f.file = site.file_name();
  f.line = static_cast<int>(site.line());
  const std::string& held_name =
      g.class_names[static_cast<std::size_t>(held.class_id)];
  const std::string& acq_name =
      g.class_names[static_cast<std::size_t>(acquiring_class)];
  f.message = "lock-order inversion: acquiring '" + acq_name +
              "' while holding '" + held_name + "', but '" + held_name +
              "' has been acquired under '" + acq_name + "'";

  // Closing edge first (this acquisition), then the recorded back path
  // acquiring -> ... -> held that makes it a cycle.
  CycleStep closing;
  closing.held = held_name;
  closing.acquired = acq_name;
  closing.held_site = site_string(held.file, held.line);
  closing.acquire_site =
      site_string(site.file_name(), static_cast<int>(site.line()));
  closing.thread_id = this_thread_id();
  f.cycle.push_back(closing);
  for (std::size_t i = 0; i + 1 < back_path.size(); ++i) {
    const EdgeWitness& w = g.graph[back_path[i]][back_path[i + 1]];
    CycleStep step;
    step.held = g.class_names[static_cast<std::size_t>(back_path[i])];
    step.acquired = g.class_names[static_cast<std::size_t>(back_path[i + 1])];
    step.held_site = site_string(w.held_file, w.held_line);
    step.acquire_site = site_string(w.acquire_file, w.acquire_line);
    step.thread_id = w.thread_id;
    f.cycle.push_back(step);
  }

  std::string d = "potential deadlock cycle (" + std::to_string(f.cycle.size()) +
                  " edges):\n";
  for (const CycleStep& s : f.cycle) {
    d += "  thread " + std::to_string(s.thread_id) + " acquired '" +
         s.acquired + "' at " + s.acquire_site + " while holding '" + s.held +
         "' (acquired at " + s.held_site + ")\n";
  }
  f.details = std::move(d);
  record_finding(g, std::move(f));
}

}  // namespace

int register_class(const char* name, std::source_location site) {
  Global& g = global();
  std::lock_guard lock(g.mu);
  const std::string class_name = name == nullptr ? "<unnamed>" : name;
  const std::string where =
      site_string(site.file_name(), static_cast<int>(site.line()));
  // Classes are keyed by (name, site): the map key folds both together so
  // every instance constructed from one declaration (member initializer,
  // array, loop) shares a class, while a second declaration that reuses
  // the name gets a fresh class instead of silently merging two
  // unrelated locks' order graphs (which would corrupt LD001 cycles).
  const std::string key = class_name + "\x1f" + where;
  if (const auto it = g.class_ids.find(key); it != g.class_ids.end()) {
    return it->second;
  }
  const auto [site_it, first_use] = g.class_sites.emplace(class_name, where);
  const int id = static_cast<int>(g.class_names.size());
  g.class_ids.emplace(key, id);
  if (first_use) {
    g.class_names.push_back(class_name);
    return id;
  }
  // Duplicate name from a different site: report and disambiguate.
  g.class_names.push_back(class_name + "@" + where);
  if (g.reported.insert("LD005:" + class_name + ":" + where).second) {
    Finding f;
    f.kind = HazardKind::kDuplicateClass;
    f.file = site.file_name();
    f.line = static_cast<int>(site.line());
    f.message = "lock-class name '" + class_name +
                "' registered from two declarations: first at " +
                site_it->second + ", again at " + where;
    f.details = "  each declaration gets its own order graph (the second "
                "reports as '" + class_name + "@" + where + "') so LD001 "
                "cycle attribution stays truthful; rename one of the "
                "Mutexes\n";
    record_finding(g, std::move(f));
  }
  return id;
}

void set_enabled(bool enabled_now) {
  global().enabled.store(enabled_now, std::memory_order_relaxed);
}

bool enabled() { return global().enabled.load(std::memory_order_relaxed); }

void set_long_hold_threshold(double seconds) {
  global().long_hold_s.store(seconds, std::memory_order_relaxed);
}

double long_hold_threshold() {
  return global().long_hold_s.load(std::memory_order_relaxed);
}

void on_acquire(int class_id, const void* instance,
                std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.acquisitions.fetch_add(1, std::memory_order_relaxed);

  // Order edge from the innermost held *named* lock. Edges from deeper
  // holds are implied transitively: the stack [A, B] itself recorded
  // A -> B when B was acquired.
  if (class_id != kAnonymousClass && !t_held.empty()) {
    const Held* top = nullptr;
    for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
      if (it->class_id != kAnonymousClass) {
        top = &*it;
        break;
      }
    }
    // Re-acquiring a class already held (two shards of one map, a
    // recursive path) is ordering-neutral for distinct instances and a
    // self-deadlock for the same one; the graph keeps no self-edges, so
    // only cross-class pairs are examined.
    if (top != nullptr && top->class_id != class_id &&
        t_seen_edges.insert(edge_key(top->class_id, class_id)).second) {
      std::lock_guard lock(g.mu);
      auto& successors = g.graph[top->class_id];
      if (successors.find(class_id) == successors.end()) {
        // New global edge: does the reverse direction already exist?
        const std::vector<int> back_path =
            find_path(g, class_id, top->class_id);
        if (!back_path.empty()) report_inversion(g, *top, class_id, site,
                                                 back_path);
        EdgeWitness w;
        w.held_file = top->file;
        w.held_line = top->line;
        w.acquire_file = site.file_name();
        w.acquire_line = static_cast<int>(site.line());
        w.thread_id = this_thread_id();
        successors.emplace(class_id, w);
        g.order_edges.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  t_held.push_back(Held{class_id, instance, site.file_name(),
                        static_cast<int>(site.line()), Clock::now()});
}

void on_try_acquired(int class_id, const void* instance,
                     std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.acquisitions.fetch_add(1, std::memory_order_relaxed);
  t_held.push_back(Held{class_id, instance, site.file_name(),
                        static_cast<int>(site.line()), Clock::now()});
}

void on_release(const void* instance) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  for (auto it = t_held.rbegin(); it != t_held.rend(); ++it) {
    if (it->instance != instance) continue;
    const double threshold = g.long_hold_s.load(std::memory_order_relaxed);
    if (threshold > 0.0) {
      const double held_s =
          std::chrono::duration<double>(Clock::now() - it->since).count();
      if (held_s > threshold) {
        std::lock_guard lock(g.mu);
        const std::string name =
            g.class_names[static_cast<std::size_t>(it->class_id)];
        if (g.reported.insert("LD004:" + name + ":" +
                              site_string(it->file, it->line)).second) {
          Finding f;
          f.kind = HazardKind::kLongHold;
          f.is_error = false;
          f.file = it->file;
          f.line = it->line;
          f.message = "lock '" + name + "' held for " +
                      std::to_string(held_s) + " s (threshold " +
                      std::to_string(threshold) + " s)";
          f.details = "acquired at " + site_string(it->file, it->line) + "\n";
          record_finding(g, std::move(f));
        }
      }
    }
    t_held.erase(std::next(it).base());
    return;
  }
}

void on_cond_wait(const void* mutex_instance, std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.cond_waits.fetch_add(1, std::memory_order_relaxed);
  bool holding_other = false;
  for (const Held& h : t_held) {
    if (h.instance != mutex_instance) holding_other = true;
  }
  if (!holding_other) return;
  std::lock_guard lock(g.mu);
  const std::string where =
      site_string(site.file_name(), static_cast<int>(site.line()));
  if (!g.reported.insert("LD003:cond:" + where).second) return;
  Finding f;
  f.kind = HazardKind::kWaitWhileHolding;
  f.file = site.file_name();
  f.line = static_cast<int>(site.line());
  f.message = "CondVar::wait at " + where +
              " entered while holding unrelated lock(s): " +
              held_summary(g, mutex_instance);
  f.details = "a waiter parks with " + held_summary(g, mutex_instance) +
              " still held; any thread needing those locks to reach the "
              "notify stalls forever\n";
  record_finding(g, std::move(f));
}

PoolWorkerScope::PoolWorkerScope(const void* pool) : previous_(t_worker_pool) {
  t_worker_pool = pool;
}

PoolWorkerScope::~PoolWorkerScope() { t_worker_pool = previous_; }

void on_pool_wait(const void* pool, std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.pool_wait_checks.fetch_add(1, std::memory_order_relaxed);
  if (t_worker_pool != pool) return;
  std::lock_guard lock(g.mu);
  const std::string where =
      site_string(site.file_name(), static_cast<int>(site.line()));
  if (!g.reported.insert("LD002:pool:" + where).second) return;
  Finding f;
  f.kind = HazardKind::kPoolSelfWait;
  f.file = site.file_name();
  f.line = static_cast<int>(site.line());
  f.message = "ThreadPool worker at " + where +
              " blocks on work scheduled into its own pool";
  f.details = "the awaited chunks sit behind this task in the same queue; "
              "with every worker in this position the pool deadlocks "
              "(thread " + std::to_string(this_thread_id()) + ")\n";
  record_finding(g, std::move(f));
}

void on_blocking_wait(const char* what, const void* owner_pool,
                      std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.blocking_waits.fetch_add(1, std::memory_order_relaxed);
  const std::string where =
      site_string(site.file_name(), static_cast<int>(site.line()));
  if (!t_held.empty()) {
    std::lock_guard lock(g.mu);
    if (g.reported.insert("LD003:block:" + where).second) {
      Finding f;
      f.kind = HazardKind::kWaitWhileHolding;
      f.file = site.file_name();
      f.line = static_cast<int>(site.line());
      f.message = std::string("blocking wait '") + what + "' at " + where +
                  " entered while holding: " + held_summary(g, nullptr);
      f.details = "the held lock(s) stay unavailable for as long as the "
                  "awaited result takes to arrive\n";
      record_finding(g, std::move(f));
    }
  }
  if (t_worker_pool != nullptr && t_worker_pool == owner_pool) {
    std::lock_guard lock(g.mu);
    if (g.reported.insert("LD002:flight:" + where).second) {
      Finding f;
      f.kind = HazardKind::kPoolSelfWait;
      f.is_error = false;  // safe while the owner computes inline
      f.file = site.file_name();
      f.line = static_cast<int>(site.line());
      f.message = std::string("pool worker blocks in '") + what + "' at " +
                  where + " on a result owned by its own pool";
      f.details = "safe only while the owning task never schedules work "
                  "into this pool before publishing; revisit if the "
                  "compute path grows a parallel_for\n";
      record_finding(g, std::move(f));
    }
  }
}

FlightOwner on_flight_claim() { return {t_worker_pool}; }

std::vector<Finding> findings() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  return g.findings_list;
}

std::size_t finding_count(HazardKind kind) {
  Global& g = global();
  std::lock_guard lock(g.mu);
  std::size_t n = 0;
  for (const Finding& f : g.findings_list) {
    if (f.kind == kind) ++n;
  }
  return n;
}

CounterSnapshot counters() {
  Global& g = global();
  CounterSnapshot s;
  {
    std::lock_guard lock(g.mu);
    s.lock_classes = static_cast<long long>(g.class_names.size()) - 1;
  }
  s.acquisitions = g.acquisitions.load(std::memory_order_relaxed);
  s.order_edges = g.order_edges.load(std::memory_order_relaxed);
  s.cond_waits = g.cond_waits.load(std::memory_order_relaxed);
  s.pool_wait_checks = g.pool_wait_checks.load(std::memory_order_relaxed);
  s.blocking_waits = g.blocking_waits.load(std::memory_order_relaxed);
  s.findings_error = g.findings_error.load(std::memory_order_relaxed);
  s.findings_warning = g.findings_warning.load(std::memory_order_relaxed);
  return s;
}

bool clean() {
  return global().findings_error.load(std::memory_order_relaxed) == 0;
}

std::string format_report() {
  const CounterSnapshot s = counters();
  const std::vector<Finding> all = findings();
  char head[256];
  std::snprintf(head, sizeof head,
                "lockdep: %lld classes, %lld acquisitions, %lld order edges, "
                "%lld cond waits, %lld pool-wait checks, %lld blocking "
                "waits\n",
                s.lock_classes, s.acquisitions, s.order_edges, s.cond_waits,
                s.pool_wait_checks, s.blocking_waits);
  std::string out = head;
  if (all.empty()) {
    out += "lockdep: clean (no findings)\n";
    return out;
  }
  out += "lockdep: " + std::to_string(s.findings_error) + " error(s), " +
         std::to_string(s.findings_warning) + " warning(s)\n";
  for (const Finding& f : all) {
    out += std::string(f.is_error ? "error" : "warning") + ": [" +
           std::string(rule_id(f.kind)) + "] " + f.message + "\n";
    out += f.details;
  }
  return out;
}

void reset() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  g.graph.clear();
  g.findings_list.clear();
  g.reported.clear();
  g.acquisitions.store(0, std::memory_order_relaxed);
  g.order_edges.store(0, std::memory_order_relaxed);
  g.cond_waits.store(0, std::memory_order_relaxed);
  g.pool_wait_checks.store(0, std::memory_order_relaxed);
  g.blocking_waits.store(0, std::memory_order_relaxed);
  g.findings_error.store(0, std::memory_order_relaxed);
  g.findings_warning.store(0, std::memory_order_relaxed);
  // Thread-local seen-edge caches elsewhere go stale but only suppress
  // re-recording of edges those threads already pushed — acceptable for
  // the between-runs reset this API is for. This thread's cache clears.
  t_seen_edges.clear();
}

#endif  // SCIDOCK_LOCKDEP_ENABLED

}  // namespace scidock::lockdep
