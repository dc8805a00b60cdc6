#pragma once

/// \file sharded.hpp
/// Distributed SELECT execution over N shard databases that partition
/// the fact tables (hactivation, hfile, hvalue) and replicate the
/// dimension tables (hworkflow, hactivity, hmachine) — the query side of
/// the sharded provenance store (DESIGN.md §12).
///
/// Plan shapes:
///   * one shard, or a FROM list of replicated tables only
///       -> plain Engine on that shard (shard 0 holds every dimension row)
///   * scan / join without aggregation
///       -> the full WHERE (and the hash-join fast path it enables) runs
///          per shard; projected rows plus ORDER BY key columns merge
///          into a temp table; a final ORDER BY / DISTINCT / LIMIT pass
///          runs on the merge
///   * GROUP BY / aggregates
///       -> per-shard partial aggregation (count and sum partials; avg
///          decomposed into sum+count), then a rewritten final statement
///          re-aggregates the partials (count -> sum of partial counts,
///          min/max -> min/max, avg -> sum(sums)/sum(counts)) with
///          HAVING / ORDER BY / LIMIT applied after the merge
///
/// Because every fact row lives in exactly one shard and every dimension
/// row in all of them, the union of per-shard join results equals the
/// global join, so results match single-shard execution row for row (up
/// to float summation order; sum/avg may differ in the last bits).

#include <string>
#include <string_view>
#include <vector>

#include "sql/binder.hpp"
#include "sql/engine.hpp"

namespace scidock::sql {

class ShardedEngine {
 public:
  /// `shards` must stay valid (and, if shared, locked by the caller) for
  /// the duration of each execute call. `replicated_tables` lists the
  /// dimension tables present identically in every shard.
  ShardedEngine(std::vector<Database*> shards,
                std::vector<std::string> replicated_tables);

  /// Parse and run one statement. With more than one shard only SELECT
  /// is supported (the store's recording API is the write path);
  /// anything else throws InvalidStateError. A single shard passes every
  /// statement through to the plain engine.
  ResultSet execute(std::string_view sql);

  /// Bind `stmt` in place against shard 0 and run it across the shards.
  ResultSet execute_select(SelectStmt& stmt);

 private:
  ResultSet merge_scan(const SelectStmt& stmt, const Bound& bound);
  ResultSet merge_grouped(const SelectStmt& stmt, const Bound& bound);
  bool replicated(const std::string& table) const;

  std::vector<Database*> shards_;
  std::vector<std::string> replicated_tables_;
};

}  // namespace scidock::sql
