#include "ledger.h"

#include <cctype>
#include <unordered_map>

namespace prisma::perfbench {

namespace {

/// Reader for the flat Chrome trace_event objects Tracer::DumpJson
/// writes: string and fixed-point number values plus one nested "args"
/// object of strings.
class Reader {
 public:
  explicit Reader(std::string_view text) : s_(text) {}

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < s_.size() && s_[pos_] == c;
  }

  bool String(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        c = s_[pos_++];
        if (c == 'n') c = '\n';
        if (c == 't') c = '\t';
        if (c == 'u') {  // Control characters only; keep a placeholder.
          if (pos_ + 4 > s_.size()) return false;
          pos_ += 4;
          c = '?';
        }
      }
      out->push_back(c);
    }
    return Consume('"');
  }

  /// A number in microseconds with up to three decimals, as virtual ns.
  bool Micros(int64_t* ns) {
    SkipSpace();
    bool negative = false;
    if (pos_ < s_.size() && s_[pos_] == '-') {
      negative = true;
      ++pos_;
    }
    int64_t whole = 0;
    size_t digits = 0;
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      whole = whole * 10 + (s_[pos_++] - '0');
      ++digits;
    }
    if (digits == 0) return false;
    int64_t frac = 0;
    int scale = 1000;
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
        if (scale > 1) {
          scale /= 10;
          frac += (s_[pos_] - '0') * scale;
        }
        ++pos_;
      }
    }
    *ns = (whole * 1000 + frac) * (negative ? -1 : 1);
    return true;
  }

  bool Integer(int64_t* value) {
    int64_t ns = 0;
    if (!Micros(&ns) || ns % 1000 != 0) return false;
    *value = ns / 1000;
    return true;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ == s_.size();
  }
  size_t pos() const { return pos_; }

 private:
  void SkipSpace() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view s_;
  size_t pos_ = 0;
};

enum Evidence : uint8_t {
  kCoordinator = 1,
  kGdh = 2,
  kOfm = 4,
  kClient = 8,
};

struct Process {
  int64_t pool_ns = 0;
  uint8_t evidence = 0;
};

struct Event {
  std::string ph, cat, name;
  int64_t dur_ns = 0;
  int64_t tid = 0;
};

/// One event object; unknown keys are rejected so a format change in the
/// dump fails loudly instead of skewing the ledger.
bool ReadEvent(Reader& r, Event* e) {
  if (!r.Consume('{')) return false;
  std::string key;
  std::string scratch;
  int64_t number = 0;
  do {
    if (!r.String(&key) || !r.Consume(':')) return false;
    if (key == "ph") {
      if (!r.String(&e->ph)) return false;
    } else if (key == "cat") {
      if (!r.String(&e->cat)) return false;
    } else if (key == "name") {
      if (!r.String(&e->name)) return false;
    } else if (key == "s") {
      if (!r.String(&scratch)) return false;
    } else if (key == "ts") {
      if (!r.Micros(&number)) return false;
    } else if (key == "dur") {
      if (!r.Micros(&e->dur_ns)) return false;
    } else if (key == "pid") {
      if (!r.Integer(&number)) return false;
    } else if (key == "tid") {
      if (!r.Integer(&e->tid)) return false;
    } else if (key == "args") {
      if (!r.Consume('{')) return false;
      if (!r.Peek('}')) {
        do {
          if (!r.String(&scratch) || !r.Consume(':') ||
              !r.String(&scratch)) {
            return false;
          }
        } while (r.Consume(','));
      }
      if (!r.Consume('}')) return false;
    } else {
      return false;
    }
  } while (r.Consume(','));
  return r.Consume('}');
}

}  // namespace

std::string BuildLedger(std::string_view trace_json, Ledger* out) {
  *out = Ledger();
  Reader r(trace_json);
  std::string key;
  if (!r.Consume('{') || !r.String(&key) || key != "traceEvents" ||
      !r.Consume(':') || !r.Consume('[')) {
    return "trace dump does not start with {\"traceEvents\":[";
  }
  std::unordered_map<int64_t, Process> processes;
  Event e;
  if (!r.Peek(']')) {
    do {
      e = Event();
      if (!ReadEvent(r, &e)) {
        return "malformed trace event near byte " + std::to_string(r.pos());
      }
      ++out->events;
      if (e.ph != "X") continue;
      if (e.cat == "net") {
        out->net_ns += e.dur_ns;
      } else if (e.cat == "pool") {
        Process& p = processes[e.tid];
        p.pool_ns += e.dur_ns;
        if (e.name == "client_stmt" || e.name == "lock_batch") {
          p.evidence |= kGdh;
        } else if (e.name == "exec_plan" || e.name == "write" ||
                   e.name == "txn_control" || e.name == "shuffle_plan") {
          p.evidence |= kOfm;
        } else if (e.name == "client_reply") {
          p.evidence |= kClient;
        }
      } else if (e.cat == "gdh") {
        Process& p = processes[e.tid];
        if (e.name == "query" || e.name == "prismalog") {
          p.evidence |= kCoordinator;
        } else if (e.name.rfind("2pc.", 0) == 0) {
          p.evidence |= kGdh;
        }
      }
    } while (r.Consume(','));
  }
  if (!r.Consume(']') || !r.Consume('}') || !r.AtEnd()) {
    return "trace dump does not end with ]}";
  }
  for (const auto& [tid, p] : processes) {
    if (p.evidence & kCoordinator) {
      out->coordinator_ns += p.pool_ns;
    } else if (p.evidence & kGdh) {
      out->gdh_ns += p.pool_ns;
    } else if (p.evidence & kOfm) {
      out->ofm_ns += p.pool_ns;
    } else if (p.evidence & kClient) {
      out->client_ns += p.pool_ns;
    } else {
      out->exchange_ns += p.pool_ns;
    }
  }
  return "";
}

}  // namespace prisma::perfbench
