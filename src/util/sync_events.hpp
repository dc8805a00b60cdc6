#pragma once

/// \file sync_events.hpp
/// The one hook layer between SciDock's synchronisation points and the
/// two runtime analyzers. Mutex/MutexLock/CondVar, the ThreadPool, the
/// single-flight grid-map cache and the prov flusher thread report each
/// sync event with one call here, with its call site, and the layer
/// forwards it to both detectors: lockdep (util/lockdep.hpp: lock order
/// and blocking hazards, LD001..LD005) and racer (util/racer.hpp: the
/// happens-before edges its RC001..RC004 checks are judged against).
///
/// One CMake option, SCIDOCK_SYNC_ANALYSIS, compiles both detectors in.
/// With it off every detector hook is an empty inline, so each event is
/// the bare operation or nothing, and every handle type is empty.
/// Tracked data accesses and reduction digests are not sync events: they
/// stay on racer's own API (racer::Cell, SCIDOCK_RACER_*, on_reduction).

#include <future>
#include <mutex>
#include <source_location>

#include "util/lockdep.hpp"
#include "util/racer.hpp"

namespace scidock::sync {

using Site = std::source_location;

/// True when SCIDOCK_SYNC_ANALYSIS=ON compiled both detectors in.
constexpr bool compiled_in() {
  return lockdep::compiled_in() && racer::compiled_in();
}

/// Analyzer identity a Mutex carries: its lockdep class (empty when
/// compiled out).
#if defined(SCIDOCK_SYNC_ANALYSIS)
struct LockClass {
  int id = lockdep::kAnonymousClass;
};
inline LockClass lock_class(const char* name, Site site) {
  return {lockdep::register_class(name, site)};
}
#else
struct LockClass {
  static constexpr int id = lockdep::kAnonymousClass;
};
inline LockClass lock_class(const char*, Site) { return {}; }
#endif

// ---- Mutex / CondVar ----

/// A named Mutex is constructed at `site`: lockdep assigns its class
/// (LD005 when another declaration already used the name) and racer
/// names its release clock.
inline LockClass on_mutex_create(const void* mutex, const char* name,
                                 Site site) {
  racer::register_sync(mutex, name);
  return lock_class(name, site);
}

/// A Mutex is destroyed: its address may be reused.
inline void on_mutex_destroy(const void* mutex, Site) {
  racer::unregister_sync(mutex);
}

/// Lock `m`, the std::mutex inside the Mutex at `mutex`. Lockdep records
/// the order edge before blocking, so an inversion is reported even on
/// the run that deadlocks; racer joins the lock's release clock once the
/// lock is held.
inline void lock(std::mutex& m, const void* mutex, LockClass cls, Site site) {
  lockdep::on_acquire(cls.id, mutex, site);
  m.lock();
  racer::on_mutex_acquire(mutex);
}

/// A successful try_lock is recorded without an order edge (it cannot
/// deadlock), then joined like lock().
inline bool try_lock(std::mutex& m, const void* mutex, LockClass cls,
                     Site site) {
  if (!m.try_lock()) return false;
  lockdep::on_try_acquired(cls.id, mutex, site);
  racer::on_mutex_acquire(mutex);
  return true;
}

/// Racer publishes the holder's clock while the lock is still held, so
/// the clock transfer is itself race-free.
inline void unlock(std::mutex& m, const void* mutex, Site) {
  lockdep::on_release(mutex);
  racer::on_mutex_release(mutex);
  m.unlock();
}

/// CondVar wait entry: LD003 when a lock other than `mutex` is held. The
/// release and re-acquire inside the wait are unlock()/lock() events.
inline void on_cond_wait(const void* mutex, Site site) {
  lockdep::on_cond_wait(mutex, site);
}

// ---- tasks and threads ----

/// Fork token carried from a spawn to the task's run and its join.
using TaskEdge = racer::TaskEdge;
/// Scope of a task body: joins the spawn on entry, publishes the finish
/// on exit.
using TaskScope = racer::TaskRun;
/// Scope of a ThreadPool worker thread: marks it as a worker of a pool.
using WorkerScope = lockdep::PoolWorkerScope;

/// A task or thread is spawned at `site`.
inline TaskEdge on_spawn(Site) { return racer::on_task_spawn(); }

/// The spawner observed the task's completion (future.get(), join()).
inline void on_join(const TaskEdge& edge, Site) { racer::on_task_join(edge); }

/// The caller is about to block on chunks it queued into `pool`: LD002
/// when it is itself a worker of that pool.
inline void on_pool_wait(const void* pool, Site site) {
  lockdep::on_pool_wait(pool, site);
}

// ---- single-flight handoff (ArtifactCache::get_or_compute_maps) ----

/// What a flight's waiters learn about its owner (lockdep: the owner's
/// pool; empty when compiled out). The flight keeps it for its waiters.
using FlightOwner = lockdep::FlightOwner;

/// The caller became the owner of a flight and will compute the result
/// concurrent callers wait for.
inline FlightOwner on_flight_claim(Site) { return lockdep::on_flight_claim(); }

/// The owner is about to publish `flight`'s result: everything it wrote
/// happens-before every waiter that receives the result.
inline void on_flight_publish(const void* flight, const char* what, Site) {
  racer::on_hb_release(flight, what);
}

/// A non-owner takes `flight`'s result, rethrowing the owner's exception.
/// When the flight was still running at lookup (`in_flight`) the call may
/// block: LD003 if the caller holds a lock, an LD002 warning if `owner` is
/// a worker of the caller's own pool.
template <typename T>
T await_flight(const std::shared_future<T>& result, const void* flight,
               FlightOwner owner, const char* what, bool in_flight,
               Site site) {
  if (in_flight) lockdep::on_blocking_wait(what, owner.pool, site);
  T value = result.get();
  racer::on_hb_acquire(flight, what);
  return value;
}

}  // namespace scidock::sync
