#include "obs/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cstring>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_annotations.hpp"

namespace scidock::obs {

int current_thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ----------------------------------------------------------------- recorder

namespace {

/// Records per storage chunk. A chunk never moves once allocated, so a
/// growing trace copies nothing.
constexpr std::size_t kChunkRecords = 1024;

/// Append-only array of trivially copyable records in fixed-size chunks.
template <class T>
class ChunkedLog {
 public:
  void push_back(const T& record) {
    if (size_ % kChunkRecords == 0) {
      chunks_.push_back(std::make_unique<T[]>(kChunkRecords));
    }
    chunks_.back()[size_ % kChunkRecords] = record;
    ++size_;
  }
  const T& operator[](std::size_t i) const {
    return chunks_[i / kChunkRecords][i % kChunkRecords];
  }
  std::size_t size() const { return size_; }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

/// Dense ids for the strings a shard has seen. A string is looked up by
/// its length and its first and last 8 bytes, which for strings of up to
/// 16 bytes (the executors' stage names, categories and keys) are the
/// whole string, so the recording path compares words, not bytes.
class Interner {
 public:
  std::uint32_t id(std::string_view s) {
    const Key key = Key::of(s);
    std::size_t slot = key.hash() & (slots_.size() - 1);
    for (; slots_[slot].id != kEmpty; slot = (slot + 1) & (slots_.size() - 1)) {
      const Slot& e = slots_[slot];
      if (e.key == key && (s.size() <= 16 || strings_[e.id] == s)) return e.id;
    }
    const auto id = static_cast<std::uint32_t>(strings_.size());
    strings_.emplace_back(s);
    slots_[slot] = Slot{key, id};
    if (2 * strings_.size() > slots_.size()) grow();
    return id;
  }
  const std::string& str(std::uint32_t id) const { return strings_[id]; }

 private:
  struct Key {
    std::uint64_t size = 0;
    std::uint64_t head = 0;  ///< first bytes
    std::uint64_t tail = 0;  ///< last bytes (overlapping head when short)

    static Key of(std::string_view s) {
      Key k{s.size(), 0, 0};
      const char* p = s.data();
      const std::size_t n = s.size();
      if (n >= 8) {
        std::memcpy(&k.head, p, 8);
        std::memcpy(&k.tail, p + n - 8, 8);
      } else if (n >= 4) {
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
        std::memcpy(&head, p, 4);
        std::memcpy(&tail, p + n - 4, 4);
        k.head = head;
        k.tail = tail;
      } else if (n > 0) {
        k.head = static_cast<unsigned char>(p[0]) |
                 static_cast<unsigned char>(p[n / 2]) << 8 |
                 static_cast<unsigned char>(p[n - 1]) << 16;
      }
      return k;
    }
    std::uint64_t hash() const {
      const std::uint64_t h = (head * 0x9e3779b97f4a7c15ULL) ^
                              (tail * 0xc4ceb9fe1a85ec53ULL) ^ size;
      return h ^ (h >> 29);
    }
    bool operator==(const Key&) const = default;
  };
  static constexpr std::uint32_t kEmpty = 0xffffffff;
  struct Slot {
    Key key;
    std::uint32_t id = kEmpty;
  };

  void grow() {
    std::vector<Slot> old(2 * slots_.size());
    old.swap(slots_);
    for (const Slot& e : old) {
      if (e.id == kEmpty) continue;
      std::size_t slot = e.key.hash() & (slots_.size() - 1);
      while (slots_[slot].id != kEmpty) slot = (slot + 1) & (slots_.size() - 1);
      slots_[slot] = e;
    }
  }

  std::vector<std::string> strings_;
  /// Open addressing, power-of-two size, at most half full.
  std::vector<Slot> slots_ = std::vector<Slot>(64);
};

struct ArgRecord {
  std::uint32_t key = 0;     ///< interned
  bool is_number = false;
  long long value = 0;       ///< the integer, or the interned string's id
};

/// One event; its arg_count args follow those of the shard's earlier
/// events in Shard::args.
struct EventRecord {
  double ts_us = 0.0;
  double dur_us = 0.0;
  long long tid = 0;
  std::uint64_t span_id = 0;
  std::uint64_t seq = 0;
  std::uint32_t name = 0;     ///< interned
  std::uint32_t category = 0; ///< interned
  std::uint32_t arg_count = 0;
  TraceEvent::Phase phase = TraceEvent::Phase::Instant;
};

TraceArg as_arg(const TraceArg& arg) { return arg; }
TraceArg as_arg(const std::pair<std::string, std::string>& arg) {
  return {arg.first, arg.second};
}

}  // namespace

struct TraceRecorder::Head {
  std::string_view name;
  std::string_view category;
  TraceEvent::Phase phase;
  double ts_us;
  double dur_us;
  long long tid;
  std::uint64_t span_id;
};

struct TraceRecorder::Shard {
  mutable Mutex mutex{"obs.trace.shard"};
  Interner strings SCIDOCK_GUARDED_BY(mutex);
  ChunkedLog<EventRecord> events SCIDOCK_GUARDED_BY(mutex);
  ChunkedLog<ArgRecord> args SCIDOCK_GUARDED_BY(mutex);
};

TraceRecorder::TraceRecorder()
    : shards_(std::make_unique<Shard[]>(kShards)),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() = default;

double TraceRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

template <class Args>
void TraceRecorder::record(const Head& head, const Args& args) {
  EventRecord r;
  r.ts_us = head.ts_us;
  r.dur_us = head.dur_us;
  r.tid = head.tid;
  r.span_id = head.span_id;
  r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  r.arg_count = static_cast<std::uint32_t>(args.size());
  r.phase = head.phase;
  Shard& shard =
      shards_[static_cast<std::size_t>(current_thread_id()) % kShards];
  MutexLock lock(shard.mutex);
  r.name = shard.strings.id(head.name);
  r.category = shard.strings.id(head.category);
  for (const auto& a : args) {
    const TraceArg arg = as_arg(a);
    shard.args.push_back(ArgRecord{
        shard.strings.id(arg.key), arg.is_number,
        arg.is_number ? arg.number : shard.strings.id(arg.text)});
  }
  shard.events.push_back(r);
}

std::uint64_t TraceRecorder::begin_span(std::string_view name,
                                        std::string_view category,
                                        TraceArgs args) {
  const std::uint64_t id = next_span_id_.fetch_add(1, std::memory_order_relaxed);
  record(Head{name, category, TraceEvent::Phase::Begin, now_us(), 0.0,
              current_thread_id(), id},
         args);
  return id;
}

void TraceRecorder::end_span(std::uint64_t span_id, TraceArgs args) {
  record(Head{{}, {}, TraceEvent::Phase::End, now_us(), 0.0,
              current_thread_id(), span_id},
         args);
}

void TraceRecorder::complete_span(std::string_view name,
                                  std::string_view category, double ts_us,
                                  double dur_us, long long tid,
                                  std::initializer_list<TraceArg> args) {
  record(Head{name, category, TraceEvent::Phase::Complete, ts_us, dur_us, tid,
              next_span_id_.fetch_add(1, std::memory_order_relaxed)},
         args);
}

void TraceRecorder::instant(std::string_view name, std::string_view category,
                            double ts_us, long long tid,
                            std::initializer_list<TraceArg> args) {
  record(Head{name, category, TraceEvent::Phase::Instant,
              ts_us < 0.0 ? now_us() : ts_us, 0.0,
              tid < 0 ? current_thread_id() : tid, 0},
         args);
}

std::size_t TraceRecorder::event_count() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kShards; ++i) {
    MutexLock lock(shards_[i].mutex);
    n += shards_[i].events.size();
  }
  return n;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  std::vector<TraceEvent> all;
  all.reserve(event_count());
  for (std::size_t i = 0; i < kShards; ++i) {
    const Shard& shard = shards_[i];
    MutexLock lock(shard.mutex);
    std::size_t arg = 0;
    for (std::size_t k = 0; k < shard.events.size(); ++k) {
      const EventRecord& r = shard.events[k];
      TraceEvent& e = all.emplace_back();
      e.name = shard.strings.str(r.name);
      e.category = shard.strings.str(r.category);
      e.phase = r.phase;
      e.ts_us = r.ts_us;
      e.dur_us = r.dur_us;
      e.tid = r.tid;
      e.span_id = r.span_id;
      e.seq = r.seq;
      e.args.reserve(r.arg_count);
      for (const std::size_t end = arg + r.arg_count; arg < end; ++arg) {
        const ArgRecord& a = shard.args[arg];
        e.args.emplace_back(
            shard.strings.str(a.key),
            a.is_number
                ? std::to_string(a.value)
                : shard.strings.str(static_cast<std::uint32_t>(a.value)));
      }
    }
  }
  std::sort(all.begin(), all.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
              return a.seq < b.seq;
            });
  return all;
}

// ---------------------------------------------------------------- span tree

std::size_t SpanTree::span_count() const {
  std::size_t n = 0;
  // Iterative DFS over every row's forest.
  std::vector<const SpanNode*> stack;
  for (const auto& [tid, roots] : roots_by_tid) {
    for (const SpanNode& r : roots) stack.push_back(&r);
  }
  while (!stack.empty()) {
    const SpanNode* node = stack.back();
    stack.pop_back();
    ++n;
    for (const SpanNode& c : node->children) stack.push_back(&c);
  }
  return n;
}

const std::vector<SpanNode>* SpanTree::roots_for(long long tid) const {
  for (const auto& [row_tid, roots] : roots_by_tid) {
    if (row_tid == tid) return &roots;
  }
  return nullptr;
}

SpanTree build_span_tree(const std::vector<TraceEvent>& events) {
  SpanTree tree;
  struct Row {
    std::vector<SpanNode> roots;
    /// Path of open spans, as child indices from the root vector: the
    /// nodes themselves live inside `roots` so only indices are stable.
    std::vector<std::size_t> open;
  };
  std::vector<std::pair<long long, Row>> rows;
  auto row_for = [&rows](long long tid) -> Row& {
    for (auto& [row_tid, row] : rows) {
      if (row_tid == tid) return row;
    }
    rows.emplace_back(tid, Row{});
    return rows.back().second;
  };
  auto open_top = [](Row& row) -> SpanNode* {
    if (row.open.empty()) return nullptr;
    SpanNode* node = &row.roots[row.open.front()];
    for (std::size_t i = 1; i < row.open.size(); ++i) {
      node = &node->children[row.open[i]];
    }
    return node;
  };

  for (const TraceEvent& e : events) {
    Row& row = row_for(e.tid);
    switch (e.phase) {
      case TraceEvent::Phase::Begin: {
        SpanNode node;
        node.name = e.name;
        node.category = e.category;
        node.start_us = e.ts_us;
        node.tid = e.tid;
        node.span_id = e.span_id;
        node.args = e.args;
        SpanNode* parent = open_top(row);
        if (parent == nullptr) {
          row.roots.push_back(std::move(node));
          row.open.push_back(row.roots.size() - 1);
        } else {
          parent->children.push_back(std::move(node));
          row.open.push_back(parent->children.size() - 1);
        }
        break;
      }
      case TraceEvent::Phase::End: {
        SpanNode* top = open_top(row);
        if (top == nullptr) {
          tree.errors.push_back(strformat(
              "orphan End (span id %llu) on tid %lld at %.3f us with no "
              "open span",
              static_cast<unsigned long long>(e.span_id), e.tid, e.ts_us));
          break;
        }
        if (top->span_id != e.span_id) {
          tree.errors.push_back(strformat(
              "End for span id %llu on tid %lld does not match open span "
              "id %llu ('%s') — spans are not well-nested",
              static_cast<unsigned long long>(e.span_id), e.tid,
              static_cast<unsigned long long>(top->span_id),
              top->name.c_str()));
          break;
        }
        top->end_us = e.ts_us;
        for (const auto& kv : e.args) top->args.push_back(kv);
        row.open.pop_back();
        break;
      }
      case TraceEvent::Phase::Complete: {
        SpanNode node;
        node.name = e.name;
        node.category = e.category;
        node.start_us = e.ts_us;
        node.end_us = e.ts_us + e.dur_us;
        node.tid = e.tid;
        node.span_id = e.span_id;
        node.args = e.args;
        SpanNode* parent = open_top(row);
        if (parent == nullptr) {
          row.roots.push_back(std::move(node));
        } else {
          parent->children.push_back(std::move(node));
        }
        break;
      }
      case TraceEvent::Phase::Instant:
        break;  // points, not spans
    }
  }

  for (auto& [tid, row] : rows) {
    if (!row.open.empty()) {
      const SpanNode* top = open_top(row);
      tree.errors.push_back(strformat(
          "span '%s' (id %llu) on tid %lld was never closed", top->name.c_str(),
          static_cast<unsigned long long>(top->span_id), tid));
    }
    tree.roots_by_tid.emplace_back(tid, std::move(row.roots));
  }
  std::sort(tree.roots_by_tid.begin(), tree.roots_by_tid.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return tree;
}

// ------------------------------------------------------------- JSON export

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strformat("\\u%04x", static_cast<unsigned>(
                                          static_cast<unsigned char>(c)));
        } else {
          out += c;
        }
    }
  }
  return out;
}

const char* phase_code(TraceEvent::Phase phase) {
  switch (phase) {
    case TraceEvent::Phase::Begin: return "B";
    case TraceEvent::Phase::End: return "E";
    case TraceEvent::Phase::Complete: return "X";
    case TraceEvent::Phase::Instant: return "i";
  }
  return "i";
}

}  // namespace

std::string TraceRecorder::to_chrome_json() const {
  const std::vector<TraceEvent> all = events();
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : all) {
    if (!first) out += ",\n";
    first = false;
    out += strformat("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\","
                     "\"ts\":%.3f,",
                     json_escape(e.name).c_str(),
                     json_escape(e.category).c_str(), phase_code(e.phase),
                     e.ts_us);
    if (e.phase == TraceEvent::Phase::Complete) {
      out += strformat("\"dur\":%.3f,", e.dur_us);
    }
    if (e.phase == TraceEvent::Phase::Instant) {
      out += "\"s\":\"t\",";  // instant scope: thread
    }
    out += strformat("\"pid\":1,\"tid\":%lld,\"id\":%llu", e.tid,
                     static_cast<unsigned long long>(e.span_id));
    if (!e.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : e.args) {
        if (!first_arg) out += ",";
        first_arg = false;
        out += strformat("\"%s\":\"%s\"", json_escape(k).c_str(),
                         json_escape(v).c_str());
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

// ------------------------------------------------------------- JSON parser

namespace {

/// Cursor over the emitted Chrome-JSON subset: an object holding a
/// "traceEvents" array of flat objects whose values are strings, numbers
/// or one level of {"string": "string"} args.
class MiniJsonCursor {
 public:
  explicit MiniJsonCursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      throw ParseError("chrome-trace",
                       strformat("expected '%c' at offset %zu", c, pos_));
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) {
      throw ParseError("chrome-trace", "unexpected end of input");
    }
    return text_[pos_];
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 'r': c = '\r'; break;
          case 't': c = '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              throw ParseError("chrome-trace", "truncated \\u escape");
            }
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            c = static_cast<char>(std::stoi(hex, nullptr, 16));
            break;
          }
          default: c = esc;
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  double parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (start == pos_) {
      throw ParseError("chrome-trace",
                       strformat("expected number at offset %zu", start));
    }
    return parse_double(text_.substr(start, pos_ - start), "trace number");
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

TraceEvent::Phase phase_from_code(std::string_view code) {
  if (code == "B") return TraceEvent::Phase::Begin;
  if (code == "E") return TraceEvent::Phase::End;
  if (code == "X") return TraceEvent::Phase::Complete;
  if (code == "i") return TraceEvent::Phase::Instant;
  throw ParseError("chrome-trace", "unknown phase '" + std::string(code) + "'");
}

TraceEvent parse_event_object(MiniJsonCursor& cur) {
  TraceEvent e;
  cur.expect('{');
  bool first = true;
  while (cur.peek() != '}') {
    if (!first) cur.expect(',');
    first = false;
    const std::string key = cur.parse_string();
    cur.expect(':');
    if (key == "args") {
      cur.expect('{');
      bool first_arg = true;
      while (cur.peek() != '}') {
        if (!first_arg) cur.expect(',');
        first_arg = false;
        std::string k = cur.parse_string();
        cur.expect(':');
        std::string v = cur.parse_string();
        e.args.emplace_back(std::move(k), std::move(v));
      }
      cur.expect('}');
      continue;
    }
    if (cur.peek() == '"') {
      const std::string value = cur.parse_string();
      if (key == "name") e.name = value;
      else if (key == "cat") e.category = value;
      else if (key == "ph") e.phase = phase_from_code(value);
      // "s" (instant scope) and unknown string fields are tolerated.
      continue;
    }
    const double value = cur.parse_number();
    if (key == "ts") e.ts_us = value;
    else if (key == "dur") e.dur_us = value;
    else if (key == "tid") e.tid = static_cast<long long>(value);
    else if (key == "id") e.span_id = static_cast<std::uint64_t>(value);
    // "pid" and unknown numeric fields are tolerated.
  }
  cur.expect('}');
  return e;
}

}  // namespace

std::vector<TraceEvent> parse_chrome_trace(std::string_view json) {
  MiniJsonCursor cur(json);
  cur.expect('{');
  const std::string key = cur.parse_string();
  if (key != "traceEvents") {
    throw ParseError("chrome-trace", "expected traceEvents, got " + key);
  }
  cur.expect(':');
  cur.expect('[');
  std::vector<TraceEvent> events;
  if (cur.peek() != ']') {
    for (;;) {
      events.push_back(parse_event_object(cur));
      if (!cur.consume(',')) break;
    }
  }
  cur.expect(']');
  cur.expect('}');
  if (!cur.at_end()) {
    throw ParseError("chrome-trace", "trailing content after trace object");
  }
  // Re-assign record order so downstream tree building keeps file order
  // for identical timestamps.
  for (std::size_t i = 0; i < events.size(); ++i) events[i].seq = i;
  return events;
}

}  // namespace scidock::obs
