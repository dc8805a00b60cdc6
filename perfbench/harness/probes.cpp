#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <thread>

#include "bench.hpp"
#include "dock/dlg.hpp"
#include "scidock/analysis.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace sd = scidock;

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

int hardware_threads() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Metric peak_rss() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return {static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"};  // Linux: KiB
}

// ---------------------------------------------------------------------
// Stage wrappers
// ---------------------------------------------------------------------

void StageProbe::record(const std::string& tag, double seconds) {
  std::lock_guard lock(mutex_);
  seconds_[tag].push_back(seconds);
}

std::vector<double> StageProbe::samples(const std::string& tag) const {
  std::lock_guard lock(mutex_);
  const auto it = seconds_.find(tag);
  return it == seconds_.end() ? std::vector<double>{} : it->second;
}

double StageProbe::total_seconds() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const auto& [tag, v] : seconds_) {
    for (const double s : v) total += s;
  }
  return total;
}

sd::wf::Pipeline wrap_stages(const sd::wf::Pipeline& pipeline,
                             std::shared_ptr<StageProbe> probe,
                             sd::obs::TraceRecorder* trace) {
  sd::wf::Pipeline wrapped;
  for (sd::wf::Stage stage : pipeline.stages()) {
    stage.impl = [inner = stage.impl, tag = stage.tag, probe, trace](
                     const sd::wf::Tuple& in, sd::wf::ActivationContext& ctx) {
      sd::obs::ScopedSpan span(trace, "bench.stage", "bench", {{"stage", tag}});
      const double t0 = now_s();
      try {
        std::vector<sd::wf::Tuple> out = inner(in, ctx);
        probe->record(tag, now_s() - t0);
        return out;
      } catch (...) {
        probe->record(tag, now_s() - t0);
        throw;
      }
    };
    wrapped.add_stage(std::move(stage));
  }
  return wrapped;
}

// ---------------------------------------------------------------------
// Docking logs
// ---------------------------------------------------------------------

namespace {

constexpr std::string_view kEvalsLine = "NUMBER OF ENERGY EVALUATIONS:";

DockLog parse_log(const std::string& pair, const std::string& engine,
                  const std::string& text) {
  DockLog log;
  log.pair = pair;
  log.engine = engine;
  bool in_modes = false;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    if (line.substr(0, kEvalsLine.size()) == kEvalsLine) {
      log.evaluations = std::stoll(std::string(line.substr(kEvalsLine.size())));
    } else if (engine == "vina") {
      // Vina mode table: rows after the "-----+" rule until a blank line.
      if (line.substr(0, 6) == "-----+") {
        in_modes = true;
      } else if (in_modes) {
        if (line.empty()) in_modes = false;
        else ++log.conformations;
      }
    }
  }
  try {
    const sd::dock::DlgSummary summary = sd::dock::parse_docking_log(text);
    if (engine == "ad4") log.conformations = summary.conformations;
    log.best_feb = summary.best_feb;
    log.mean_rmsd = summary.mean_rmsd;
    log.parsed = true;
  } catch (const sd::Error&) {
    log.parsed = false;
  }
  return log;
}

}  // namespace

std::vector<DockLog> read_dock_logs(const sd::vfs::SharedFileSystem& fs,
                                    const std::string& expdir) {
  std::vector<DockLog> logs;
  const std::pair<const char*, const char*> stages[] = {
      {"/autodock4/", ".dlg"}, {"/autodockvina/", ".log"}};
  for (const auto& [stage, suffix] : stages) {
    const std::string root = expdir + stage;
    const std::string_view ext(suffix);
    for (const sd::vfs::FileInfo& f : fs.list(root)) {
      if (f.path.size() < ext.size() ||
          f.path.compare(f.path.size() - ext.size(), ext.size(), ext) != 0) {
        continue;
      }
      // <expdir>/<stage>/<pair>/<ligand>_<receptor>.<ext>
      const std::size_t start = f.path.find(root) + root.size();
      const std::string pair = f.path.substr(start, f.path.find('/', start) - start);
      logs.push_back(parse_log(pair, ext == ".dlg" ? "ad4" : "vina", fs.read(f.path)));
    }
  }
  return logs;
}

std::string feb_rmsd_digest(const std::vector<DockLog>& logs) {
  std::vector<std::string> lines;
  lines.reserve(logs.size());
  char buf[64];
  for (const DockLog& log : logs) {
    std::snprintf(buf, sizeof buf, " %.4f %.4f", log.best_feb, log.mean_rmsd);
    lines.push_back(log.pair + buf);
  }
  std::sort(lines.begin(), lines.end());
  std::uint64_t h = fnv1a("");
  for (const std::string& line : lines) h = fnv1a(line + "\n", h);
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// ---------------------------------------------------------------------
// Conservation
// ---------------------------------------------------------------------

Conservation check_conservation(const sd::wf::Relation& input,
                                const sd::wf::NativeReport& report,
                                const std::vector<DockLog>& logs,
                                sd::prov::ProvenanceStore& store,
                                int max_attempts) {
  Conservation c;
  std::map<std::string, int> output_count;
  for (const sd::wf::Tuple& t : report.output.tuples()) {
    ++output_count[t.get("pair").value_or("")];
  }
  std::map<std::string, const DockLog*> log_of;
  for (const DockLog& log : logs) log_of[log.pair] = &log;
  std::map<std::string, long long> unfinished_attempts;
  const sd::sql::ResultSet rs = store.query(
      "SELECT workload, count(*) FROM hactivation "
      "WHERE status <> 'FINISHED' GROUP BY workload");
  for (const sd::sql::Row& row : rs.rows) {
    unfinished_attempts[row.at(0).to_string()] = row.at(1).as_int();
  }

  std::set<std::string> inputs;
  for (const sd::wf::Tuple& t : input.tuples()) {
    const std::string pair = t.require("pair");
    inputs.insert(pair);
    const int in_output = output_count.count(pair) ? output_count[pair] : 0;
    const auto log = log_of.find(pair);
    const bool docked = log != log_of.end() && log->second->parsed &&
                        log->second->conformations >= 1 &&
                        std::isfinite(log->second->best_feb);
    if (in_output == 1) {
      ++c.in_output;
    } else if (in_output > 1) {
      ++c.unplaced;
      c.errors.push_back("pair " + pair + " appears " +
                         std::to_string(in_output) + " times in the output");
    } else if (docked) {
      ++c.dropped;
    } else if (unfinished_attempts[pair] >= max_attempts) {
      ++c.lost;
    } else {
      ++c.unplaced;
      c.errors.push_back("pair " + pair + " is neither in the output, docked "
                         "nor lost");
    }
  }
  for (const auto& [pair, n] : output_count) {
    if (!inputs.count(pair)) {
      c.errors.push_back("output pair " + pair + " is not an input pair");
    }
  }
  if (c.lost != report.tuples_lost) {
    c.errors.push_back("executor reports " + std::to_string(report.tuples_lost) +
                       " lost tuples, provenance shows " + std::to_string(c.lost));
  }
  return c;
}

// ---------------------------------------------------------------------
// Query suite
// ---------------------------------------------------------------------

QuerySuite run_query_suite(sd::prov::ProvenanceStore& store,
                           const std::string& workflow_tag, int passes) {
  QuerySuite suite;
  const sd::sql::ResultSet id = store.query(sd::prov::workflow_id_sql(workflow_tag));
  if (id.rows.empty()) {
    suite.errors.push_back("no workflow tagged " + workflow_tag);
    return suite;
  }
  const long long wkfid = id.rows[0].at(0).as_int();
  const std::pair<std::string, std::string> queries[] = {
      {"query1", sd::core::query1(wkfid)},
      {"figure5", sd::core::figure5_query(wkfid)},
      {"forensics", sd::core::forensics_failed_by_activity()},
      {"hg", sd::core::forensics_hg_aborts()},
      {"steering", sd::core::steering_longest_activations()},
  };
  std::map<std::string, std::vector<double>> ms;
  std::vector<double> pass_s;
  for (int p = 0; p < passes; ++p) {
    const double pass_start = now_s();
    for (const auto& [name, sql] : queries) {
      const double t0 = now_s();
      const sd::sql::ResultSet rs = store.query(sql);
      ms[name].push_back((now_s() - t0) * 1e3);
      const auto rows = static_cast<long long>(rs.rows.size());
      if (p == 0) {
        suite.rows[name] = rows;
      } else if (suite.rows[name] != rows) {
        suite.errors.push_back("query " + name + " returned a different row "
                               "count on a repeated pass");
      }
    }
    pass_s.push_back(now_s() - pass_start);
  }
  for (const auto& [name, v] : ms) suite.median_ms[name] = median(v);
  suite.pass_seconds = median(pass_s);
  if (suite.rows["query1"] == 0 || suite.rows["figure5"] == 0) {
    suite.errors.push_back("Query 1 or the Figure 5 query returned no rows");
  }
  return suite;
}

}  // namespace perfbench
