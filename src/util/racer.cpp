#include "util/racer.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <unordered_set>

namespace scidock::racer {

std::string_view to_string(ReportKind kind) {
  switch (kind) {
    case ReportKind::kWriteWrite: return "write-write race";
    case ReportKind::kReadWrite: return "read-write race";
    case ReportKind::kUnsyncPublish: return "unsynchronized publish";
    case ReportKind::kOrderNondeterminism: return "order nondeterminism";
  }
  return "?";
}

std::string_view rule_id(ReportKind kind) {
  switch (kind) {
    case ReportKind::kWriteWrite: return "RC001";
    case ReportKind::kReadWrite: return "RC002";
    case ReportKind::kUnsyncPublish: return "RC003";
    case ReportKind::kOrderNondeterminism: return "RC004";
  }
  return "RC000";
}

#if SCIDOCK_RACER_ENABLED

namespace {

using VC = std::vector<std::uint64_t>;

std::string site_string(const char* file, int line) {
  if (file == nullptr || file[0] == '\0') return "?";
  return std::string(file) + ":" + std::to_string(line);
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// dst[i] = max(dst[i], src[i]) over the common prefix, extending dst.
void vc_join(VC& dst, const VC& src) {
  if (src.size() > dst.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

std::uint64_t vc_get(const VC& c, int slot) {
  return static_cast<std::size_t>(slot) < c.size()
             ? c[static_cast<std::size_t>(slot)]
             : 0;
}

/// Per-thread analyzer state. Owned by the global registry so reductions
/// and reports can outlive the thread; the clock is only ever mutated by
/// its own thread, always under the global mutex.
struct ThreadState {
  int slot = 0;
  VC clock;                        ///< clock[slot] = own epoch
  std::vector<const char*> held;   ///< names of held sync objects
};

/// Release clock of one sync object (mutex or ad-hoc HB id).
struct SyncState {
  const char* name = nullptr;  ///< string literal from registration
  VC release_clock;
};

/// One recorded access to a tracked cell: enough to test happens-before
/// against any later thread (slot/epoch) and to report (site, held).
struct AccessRecord {
  int slot = -1;
  std::uint64_t epoch = 0;
  const char* file = "";
  int line = 0;
  bool is_write = false;
  std::vector<const char*> held;
};

struct CellState {
  std::string name;
  std::string track_site;
  AccessRecord last_write;
  std::vector<AccessRecord> reads;  ///< latest read per slot since last write
  std::vector<int> accessors;       ///< slots that ever touched the cell
};

/// Fork/finish snapshot carried by a TaskEdge through type-erased
/// shared_ptr<void> (the header must not name this type when OFF).
struct TaskEdgeState {
  VC fork_clock;
  VC finish_clock;
  bool finished = false;
};

/// All analyzer state behind one raw std::mutex (never a scidock::Mutex:
/// the hooks must not re-enter themselves). Tracked accesses are rare
/// relative to docking compute, so a single lock is far below the
/// racer's 10% overhead gate. Meyer singleton for static-init order.
struct Global {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadState>> threads;
  std::unordered_map<const void*, SyncState> syncs;
  std::unordered_map<const void*, CellState> cells;
  std::map<std::string, ReductionDigest> reductions;
  std::vector<Finding> findings_list;
  std::unordered_set<std::string> reported;

  std::atomic<bool> enabled{true};
  std::atomic<long long> syncs_seen{0};
  std::atomic<long long> cells_seen{0};
  std::atomic<long long> reads{0};
  std::atomic<long long> writes{0};
  std::atomic<long long> mutex_edges{0};
  std::atomic<long long> task_edges{0};
  std::atomic<long long> hb_edges{0};
  std::atomic<long long> reduction_records{0};
  std::atomic<long long> findings_error{0};
  std::atomic<long long> findings_warning{0};
};

Global& global() {
  // Deliberately leaked: ~Mutex calls unregister_sync from static
  // destructors (logging's sink lock), which may run after a function-
  // local static Global would have been destroyed.
  static Global* g = new Global();
  return *g;
}

thread_local ThreadState* t_state = nullptr;

/// This thread's state, registering a slot on first use. Slots are never
/// reused (a bounded leak proportional to thread count, as in lockdep).
ThreadState& self_locked(Global& g) {
  if (t_state == nullptr) {
    auto st = std::make_unique<ThreadState>();
    st->slot = static_cast<int>(g.threads.size());
    st->clock.assign(static_cast<std::size_t>(st->slot) + 1, 0);
    st->clock[static_cast<std::size_t>(st->slot)] = 1;
    t_state = st.get();
    g.threads.push_back(std::move(st));
  }
  return *t_state;
}

void record_finding(Global& g, Finding finding) {
  (finding.is_error ? g.findings_error : g.findings_warning)
      .fetch_add(1, std::memory_order_relaxed);
  g.findings_list.push_back(std::move(finding));
}

SyncState& sync_at(Global& g, const void* id) {
  SyncState& s = g.syncs[id];
  if (s.name == nullptr) {
    s.name = "<unnamed>";
    g.syncs_seen.fetch_add(1, std::memory_order_relaxed);
  }
  return s;
}

std::string held_names(const std::vector<const char*>& held) {
  if (held.empty()) return "no locks";
  std::string out;
  for (const char* name : held) {
    if (!out.empty()) out += ", ";
    out += "'";
    out += name;
    out += "'";
  }
  return out;
}

/// Why is there no happens-before edge between the two accesses? Both
/// lists are the locks held at each access; a *common* named lock would
/// have manufactured a release→acquire edge, so by construction there is
/// none — the diagnosis spells out which side is missing what.
std::string missing_edge_diagnosis(const AccessRecord& prior,
                                   const AccessRecord& current) {
  std::string d;
  if (prior.held.empty() && current.held.empty()) {
    d = "neither access holds a lock and no fork/join or "
        "release->acquire edge connects the threads";
  } else {
    d = "the accesses hold no lock in common (first: " +
        held_names(prior.held) + "; second: " + held_names(current.held) +
        ") and no fork/join or release->acquire edge connects them";
  }
  d += " -- add a common Mutex, pass the object through a ThreadPool "
       "task edge, or publish it via an on_hb_release/on_hb_acquire "
       "handshake";
  return d;
}

/// File an RC001/RC002/RC003 finding for the unordered pair
/// (prior, current) on `cell`. Deduped on (rule, object, both sites).
void report_race(Global& g, const CellState& cell, const AccessRecord& prior,
                 const AccessRecord& current, ReportKind kind) {
  const std::string prior_site = site_string(prior.file, prior.line);
  const std::string current_site = site_string(current.file, current.line);
  const std::string key = std::string(rule_id(kind)) + ":" + cell.name + ":" +
                          prior_site + ":" + current_site;
  if (!g.reported.insert(key).second) return;

  Finding f;
  f.kind = kind;
  f.object = cell.name;
  f.file = current.file;
  f.line = current.line;
  f.prior_file = prior.file;
  f.prior_line = prior.line;
  const char* prior_verb = prior.is_write ? "write" : "read";
  const char* current_verb = current.is_write ? "write" : "read";
  if (kind == ReportKind::kUnsyncPublish) {
    f.message = "unsynchronized publish of '" + cell.name + "': " +
                current_verb + " at " + current_site +
                " is the first access from another thread, with no "
                "happens-before edge since the " +
                prior_verb + " at " + prior_site;
  } else {
    f.message = std::string(to_string(kind)) + " on '" + cell.name + "': " +
                current_verb + " at " + current_site + " is unordered with " +
                prior_verb + " at " + prior_site;
  }
  f.details = "  first:  " + std::string(prior_verb) + " at " + prior_site +
              " (thread slot " + std::to_string(prior.slot) + ", holding " +
              held_names(prior.held) + ")\n  second: " + current_verb +
              " at " + current_site + " (thread slot " +
              std::to_string(current.slot) + ", holding " +
              held_names(current.held) + ")\n  tracked at: " +
              cell.track_site + "\n  missing edge: " +
              missing_edge_diagnosis(prior, current) + "\n";
  record_finding(g, std::move(f));
}

/// Has `access` happened-before the current state of thread `t`?
bool ordered_before(const AccessRecord& access, const ThreadState& t) {
  return access.epoch <= vc_get(t.clock, access.slot);
}

AccessRecord make_access(const ThreadState& t, std::source_location site,
                         bool is_write) {
  AccessRecord a;
  a.slot = t.slot;
  a.epoch = vc_get(t.clock, t.slot);
  a.file = site.file_name();
  a.line = static_cast<int>(site.line());
  a.is_write = is_write;
  a.held = t.held;
  return a;
}

CellState& cell_at(Global& g, const void* addr, const ThreadState& t,
                   std::source_location site, bool is_write) {
  auto it = g.cells.find(addr);
  if (it != g.cells.end()) return it->second;
  // First sight of an untracked address: this access is the baseline.
  CellState cell;
  cell.track_site = site_string(site.file_name(),
                                static_cast<int>(site.line()));
  cell.name = "object@" + cell.track_site;
  cell.last_write = make_access(t, site, is_write);
  cell.accessors.push_back(t.slot);
  g.cells_seen.fetch_add(1, std::memory_order_relaxed);
  return g.cells.emplace(addr, std::move(cell)).first->second;
}

bool is_accessor(const CellState& cell, int slot) {
  return std::find(cell.accessors.begin(), cell.accessors.end(), slot) !=
         cell.accessors.end();
}

/// RC003 when this is the object's first-ever cross-thread access and it
/// is unordered with the last write: the object escaped its creating
/// thread with no edge. Later unordered pairs are plain races.
ReportKind classify(const CellState& cell, int current_slot,
                    ReportKind plain) {
  if (!is_accessor(cell, current_slot) && cell.accessors.size() == 1) {
    return ReportKind::kUnsyncPublish;
  }
  return plain;
}

}  // namespace

void set_enabled(bool enabled_now) {
  global().enabled.store(enabled_now, std::memory_order_relaxed);
}

bool enabled() { return global().enabled.load(std::memory_order_relaxed); }

void register_sync(const void* id, const char* name) {
  Global& g = global();
  std::lock_guard lock(g.mu);
  SyncState& s = g.syncs[id];
  if (s.name == nullptr) g.syncs_seen.fetch_add(1, std::memory_order_relaxed);
  if (name != nullptr) s.name = name;
  if (s.name == nullptr) s.name = "<unnamed>";
}

void unregister_sync(const void* id) {
  Global& g = global();
  std::lock_guard lock(g.mu);
  g.syncs.erase(id);
}

void on_mutex_acquire(const void* id) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  SyncState& s = sync_at(g, id);
  if (!s.release_clock.empty()) {
    vc_join(t.clock, s.release_clock);
    g.mutex_edges.fetch_add(1, std::memory_order_relaxed);
  }
  t.held.push_back(s.name);
}

void on_mutex_release(const void* id) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  SyncState& s = sync_at(g, id);
  vc_join(s.release_clock, t.clock);
  t.clock[static_cast<std::size_t>(t.slot)]++;
  const char* name = s.name;
  for (auto it = t.held.rbegin(); it != t.held.rend(); ++it) {
    if (*it == name) {
      t.held.erase(std::next(it).base());
      break;
    }
  }
}

void on_hb_release(const void* id, const char* what) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  SyncState& s = g.syncs[id];
  if (s.name == nullptr) {
    s.name = what != nullptr ? what : "<handshake>";
    g.syncs_seen.fetch_add(1, std::memory_order_relaxed);
  }
  vc_join(s.release_clock, t.clock);
  t.clock[static_cast<std::size_t>(t.slot)]++;
  g.hb_edges.fetch_add(1, std::memory_order_relaxed);
}

void on_hb_acquire(const void* id, const char* what) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  SyncState& s = g.syncs[id];
  if (s.name == nullptr) {
    s.name = what != nullptr ? what : "<handshake>";
    g.syncs_seen.fetch_add(1, std::memory_order_relaxed);
  }
  if (!s.release_clock.empty()) {
    vc_join(t.clock, s.release_clock);
    g.hb_edges.fetch_add(1, std::memory_order_relaxed);
  }
}

TaskEdge on_task_spawn() {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return {};
  auto state = std::make_shared<TaskEdgeState>();
  {
    std::lock_guard lock(g.mu);
    ThreadState& t = self_locked(g);
    state->fork_clock = t.clock;
    t.clock[static_cast<std::size_t>(t.slot)]++;
  }
  g.task_edges.fetch_add(1, std::memory_order_relaxed);
  return TaskEdge{std::move(state)};
}

void on_task_start(const TaskEdge& edge) {
  if (edge.state == nullptr) return;
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  auto* state = static_cast<TaskEdgeState*>(edge.state.get());
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  vc_join(t.clock, state->fork_clock);
}

void on_task_finish(const TaskEdge& edge) {
  if (edge.state == nullptr) return;
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  auto* state = static_cast<TaskEdgeState*>(edge.state.get());
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  state->finish_clock = t.clock;
  state->finished = true;
  t.clock[static_cast<std::size_t>(t.slot)]++;
}

void on_task_join(const TaskEdge& edge) {
  if (edge.state == nullptr) return;
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  auto* state = static_cast<TaskEdgeState*>(edge.state.get());
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  if (state->finished) {
    vc_join(t.clock, state->finish_clock);
    g.task_edges.fetch_add(1, std::memory_order_relaxed);
  }
}

void track(const void* addr, const char* name, std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  CellState cell;
  cell.track_site =
      site_string(site.file_name(), static_cast<int>(site.line()));
  cell.name = name != nullptr ? name : "object@" + cell.track_site;
  cell.last_write = make_access(t, site, /*is_write=*/true);
  cell.accessors.push_back(t.slot);
  g.cells_seen.fetch_add(1, std::memory_order_relaxed);
  g.cells[addr] = std::move(cell);  // re-track of a reused address resets
}

void untrack(const void* addr) {
  Global& g = global();
  std::lock_guard lock(g.mu);
  g.cells.erase(addr);
}

void on_read(const void* addr, std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.reads.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  CellState& cell = cell_at(g, addr, t, site, /*is_write=*/false);
  const AccessRecord current = make_access(t, site, /*is_write=*/false);
  if (cell.last_write.slot >= 0 && cell.last_write.slot != t.slot &&
      !ordered_before(cell.last_write, t)) {
    report_race(g, cell, cell.last_write, current,
                classify(cell, t.slot, ReportKind::kReadWrite));
  }
  bool replaced = false;
  for (AccessRecord& r : cell.reads) {
    if (r.slot == t.slot) {
      r = current;
      replaced = true;
      break;
    }
  }
  if (!replaced) cell.reads.push_back(current);
  if (!is_accessor(cell, t.slot)) cell.accessors.push_back(t.slot);
}

void on_write(const void* addr, std::source_location site) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.writes.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(g.mu);
  ThreadState& t = self_locked(g);
  CellState& cell = cell_at(g, addr, t, site, /*is_write=*/true);
  const AccessRecord current = make_access(t, site, /*is_write=*/true);
  if (cell.last_write.slot >= 0 && cell.last_write.slot != t.slot &&
      !ordered_before(cell.last_write, t)) {
    report_race(g, cell, cell.last_write, current,
                classify(cell, t.slot, ReportKind::kWriteWrite));
  }
  for (const AccessRecord& r : cell.reads) {
    if (r.slot != t.slot && !ordered_before(r, t)) {
      report_race(g, cell, r, current,
                  classify(cell, t.slot, ReportKind::kReadWrite));
    }
  }
  cell.last_write = current;
  cell.reads.clear();
  if (!is_accessor(cell, t.slot)) cell.accessors.push_back(t.slot);
}

void on_reduction(const char* name, std::uint64_t key,
                  std::uint64_t value_hash) {
  Global& g = global();
  if (!g.enabled.load(std::memory_order_relaxed)) return;
  g.reduction_records.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard lock(g.mu);
  ReductionDigest& r = g.reductions[name != nullptr ? name : "<reduction>"];
  r.records++;
  // Arrival-order digest: a non-commutative mix, so two runs that merge
  // the same contributions in a different order produce different values.
  std::uint64_t h = r.order_digest;
  h ^= key + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= value_hash + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  r.order_digest = h;
  const auto [it, inserted] = r.keyed.emplace(key, value_hash);
  if (!inserted && it->second != value_hash) {
    const std::string rname = name != nullptr ? name : "<reduction>";
    if (g.reported
            .insert("RC004:" + rname + ":" + std::to_string(key))
            .second) {
      Finding f;
      f.kind = ReportKind::kOrderNondeterminism;
      f.object = rname;
      f.message = "order nondeterminism in reduction '" + rname + "': key " +
                  std::to_string(key) +
                  " received conflicting contributions (" + hex64(it->second) +
                  " then " + hex64(value_hash) + ") within one run";
      f.details = "  two tasks fed different values into the same slot of "
                  "the reduction; the merged result depends on which lands "
                  "last\n";
      record_finding(g, std::move(f));
    }
  }
}

ReductionSnapshot reduction_snapshot() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  return g.reductions;
}

int compare_reduction_snapshots(const ReductionSnapshot& base,
                                const ReductionSnapshot& other,
                                const char* base_label,
                                const char* other_label) {
  Global& g = global();
  const std::string bl = base_label != nullptr ? base_label : "base";
  const std::string ol = other_label != nullptr ? other_label : "other";
  int errors = 0;
  std::lock_guard lock(g.mu);

  auto file = [&](Finding f) { record_finding(g, std::move(f)); };

  for (const auto& [name, bd] : base) {
    const auto ot = other.find(name);
    if (ot == other.end()) {
      Finding f;
      f.kind = ReportKind::kOrderNondeterminism;
      f.object = name;
      f.message = "order nondeterminism: reduction '" + name +
                  "' was recorded in " + bl + " but not in " + ol;
      ++errors;
      file(std::move(f));
      continue;
    }
    const ReductionDigest& od = ot->second;
    if (bd.keyed != od.keyed) {
      // Name the first divergent key: missing on either side or a
      // conflicting hash — the culprit slot of the culprit reduction.
      std::string culprit;
      for (const auto& [key, hash] : bd.keyed) {
        const auto ok = od.keyed.find(key);
        if (ok == od.keyed.end()) {
          culprit = "key " + std::to_string(key) + " only in " + bl;
          break;
        }
        if (ok->second != hash) {
          culprit = "key " + std::to_string(key) + ": " + hex64(hash) +
                    " in " + bl + " vs " + hex64(ok->second) + " in " + ol;
          break;
        }
      }
      if (culprit.empty()) {
        for (const auto& [key, hash] : od.keyed) {
          if (bd.keyed.find(key) == bd.keyed.end()) {
            culprit = "key " + std::to_string(key) + " only in " + ol;
            break;
          }
        }
      }
      Finding f;
      f.kind = ReportKind::kOrderNondeterminism;
      f.object = name;
      f.message = "order nondeterminism in reduction '" + name +
                  "': contributions differ between " + bl + " (" +
                  std::to_string(bd.keyed.size()) + " keys) and " + ol +
                  " (" + std::to_string(od.keyed.size()) + " keys)";
      f.details = "  first divergence: " + culprit +
                  "\n  the reduction's result depends on the schedule or "
                  "thread count -- make the merge order canonical (sort by "
                  "key before folding) or the per-slot computation "
                  "schedule-independent\n";
      ++errors;
      file(std::move(f));
    } else if (bd.order_digest != od.order_digest) {
      Finding f;
      f.kind = ReportKind::kOrderNondeterminism;
      f.is_error = false;
      f.object = name;
      f.message = "reduction '" + name +
                  "': identical contributions arrived in a different order "
                  "in " + bl + " and " + ol;
      f.details = "  benign for commutative merges; a hazard the moment the "
                  "fold accumulates floating point in arrival order\n";
      file(std::move(f));
    }
  }
  for (const auto& [name, od] : other) {
    if (base.find(name) == base.end()) {
      Finding f;
      f.kind = ReportKind::kOrderNondeterminism;
      f.object = name;
      f.message = "order nondeterminism: reduction '" + name +
                  "' was recorded in " + ol + " but not in " + bl;
      ++errors;
      file(std::move(f));
    }
  }
  return errors;
}

std::vector<Finding> findings() {
  Global& g = global();
  std::lock_guard lock(g.mu);
  return g.findings_list;
}

std::size_t finding_count(ReportKind kind) {
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
    s.threads = static_cast<long long>(g.threads.size());
  }
  s.sync_objects = g.syncs_seen.load(std::memory_order_relaxed);
  s.cells = g.cells_seen.load(std::memory_order_relaxed);
  s.reads = g.reads.load(std::memory_order_relaxed);
  s.writes = g.writes.load(std::memory_order_relaxed);
  s.mutex_edges = g.mutex_edges.load(std::memory_order_relaxed);
  s.task_edges = g.task_edges.load(std::memory_order_relaxed);
  s.hb_edges = g.hb_edges.load(std::memory_order_relaxed);
  s.reduction_records = g.reduction_records.load(std::memory_order_relaxed);
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
  char head[320];
  std::snprintf(head, sizeof head,
                "racer: %lld threads, %lld sync objects, %lld cells, "
                "%lld reads, %lld writes, %lld mutex edges, %lld task "
                "edges, %lld hb edges, %lld reduction records\n",
                s.threads, s.sync_objects, s.cells, s.reads, s.writes,
                s.mutex_edges, s.task_edges, s.hb_edges, s.reduction_records);
  std::string out = head;
  if (all.empty()) {
    out += "racer: clean (no findings)\n";
    return out;
  }
  out += "racer: " + std::to_string(s.findings_error) + " error(s), " +
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
  // Sync objects keep their names (they are baked into live Mutexes) but
  // drop their release clocks; cells drop entirely, so every baseline is
  // re-established after the reset. Thread epochs are monotone, which
  // keeps pre-reset joins sound against post-reset accesses.
  for (auto& [id, s] : g.syncs) s.release_clock.clear();
  g.cells.clear();
  g.reductions.clear();
  g.findings_list.clear();
  g.reported.clear();
  g.cells_seen.store(0, std::memory_order_relaxed);
  g.reads.store(0, std::memory_order_relaxed);
  g.writes.store(0, std::memory_order_relaxed);
  g.mutex_edges.store(0, std::memory_order_relaxed);
  g.task_edges.store(0, std::memory_order_relaxed);
  g.hb_edges.store(0, std::memory_order_relaxed);
  g.reduction_records.store(0, std::memory_order_relaxed);
  g.findings_error.store(0, std::memory_order_relaxed);
  g.findings_warning.store(0, std::memory_order_relaxed);
}

#endif  // SCIDOCK_RACER_ENABLED

}  // namespace scidock::racer
