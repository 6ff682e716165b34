// The PRISMA machine benchmark binary: one workload per invocation.
//
//   prisma_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke] [--trace-out FILE]
//
// A seeded open-loop statement stream (serve::WorkloadGenerator) runs
// through serve::Dispatcher into PrismaDb on a freshly loaded machine,
// and every answer is checked against the load formula (oracle.h).
//
// --trace 0 measures the end-to-end metrics with tracing off. Virtual
// metrics (what the modelled 1988 machine does) come from one reference
// run and are a pure function of the seed; host metrics (what simulating
// it costs) come from repeating that run on fresh machines for --seconds
// and taking medians. The virtual results of every repetition must be
// byte-identical.
//
// --trace 1 measures the per-layer metrics: registry deltas around the
// reference run, a ledger rebuilt from DumpTrace() of a traced prefix of
// the stream (which must match an untraced run of the same prefix byte
// for byte), and host-time probes of sql and exec. It also writes the
// benchmark's own spans to --trace-out.
//
// The last stdout line is one JSON object: correct, attempted, failed
// and the metrics. A wrong answer prints correct=false and exits 1.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.h"
#include "common/logging.h"
#include "common/str_util.h"
#include "core/prisma_db.h"
#include "ledger.h"
#include "obs/latency.h"
#include "oracle.h"
#include "probes.h"
#include "serve/dispatcher.h"
#include "serve/workload.h"

namespace prisma::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ------------------------------------------------------------- Workloads

constexpr int kSessions = 400;

/// One workload: a machine shape, a statement mix and the rates it is
/// measured at. Fragments always equal PEs; sessions and rows are fixed
/// so rows stay well above the session count.
struct Workload {
  std::string name;
  int pes = 8;
  int rows = 20000;
  serve::QueryMix mix;
  int key_domain = 128;
  /// The rate the latency, error and host metrics are measured at.
  double reference_qps = 0;
  /// Statements the reference run offers (its virtual duration is
  /// statements / reference_qps).
  int reference_statements = 0;
  /// Latency limit on p99 for the knee search.
  double limit_ms = 0;
  /// Offered rates of the knee search, ascending; empty = no knee.
  std::vector<double> ladder;
  int ladder_statements = 0;
  /// Statements of the traced prefix (a 64-PE group-by records ~45k spans).
  int traced_statements = 0;
  /// Expected arrivals per host-timing window of the reference run.
  int window_statements = 100;
};

/// Rates base * 2^(k/4): consecutive rungs differ by 19%, so a 25%
/// capacity change always moves the knee by at least one rung.
std::vector<double> Ladder(double base, int rungs) {
  std::vector<double> out;
  for (int k = 0; k < rungs; ++k) {
    out.push_back(std::round(base * std::pow(2.0, k / 4.0) * 100) / 100);
  }
  return out;
}

bool LookupWorkload(const std::string& name, bool smoke, Workload* w) {
  w->name = name;
  if (name == "oltp_mix") {
    // Writes beside reads: log forces, 2PC, lock waits and admission.
    w->pes = 8;
    w->mix = {0.80, 0.15, 0.05, 0.0};
    w->key_domain = 128;  // Fits the 256-entry plan cache.
    w->reference_qps = 20;
    w->reference_statements = 12000;
    w->limit_ms = 500;
    w->ladder = Ladder(20, 17);
    w->ladder_statements = 2500;
    w->traced_statements = 1000;
  } else if (name == "point_lookup") {
    // Read-only control: sql, planning and the OFM point scan.
    w->pes = 8;
    w->mix = {1.0, 0.0, 0.0, 0.0};
    w->key_domain = 1024;  // 4x the plan cache: most statements plan.
    w->reference_qps = 500;
    w->reference_statements = 6000;
    w->limit_ms = 50;
    w->ladder = Ladder(500, 17);
    w->ladder_statements = 2000;
    w->traced_statements = 1000;
  } else if (name == "olap_64pe") {
    // The paper's 64 PEs: exchange shuffles, links and the event loop.
    w->pes = 64;
    w->mix = {0.0, 0.0, 0.90, 0.10};
    w->key_domain = 128;
    w->reference_qps = 2;
    w->reference_statements = 1220;
    w->limit_ms = 2000;
    w->traced_statements = 16;
    w->window_statements = 10;
  } else {
    return false;
  }
  if (smoke) {
    w->rows = 2000;
    w->reference_statements = w->pes > 8 ? 8 : 200;
    if (!w->ladder.empty()) w->ladder.resize(3);
    w->ladder_statements = 150;
    w->traced_statements = w->pes > 8 ? 4 : 50;
    w->window_statements = w->pes > 8 ? 2 : 20;
  }
  return true;
}

std::vector<serve::ArrivalEvent> Schedule(const Workload& w, uint64_t seed,
                                          double qps, int statements) {
  serve::WorkloadProfile profile;
  profile.sessions = kSessions;
  profile.arrival = serve::ArrivalProcess::kPoisson;
  profile.offered_qps = qps;
  profile.duration_ns = static_cast<sim::SimTime>(
      std::llround(statements / qps * static_cast<double>(sim::kNanosPerSecond)));
  profile.mix = w.mix;
  profile.key_domain = w.key_domain;
  return serve::WorkloadGenerator(seed, profile).Generate();
}

core::MachineConfig Config(const Workload& w, bool tracing) {
  core::MachineConfig config;
  config.pes = w.pes;
  config.enable_tracing = tracing;
  return config;
}

// -------------------------------------------------- Harness span log

/// The benchmark's own spans, kept in memory and written once at the
/// end: host-clock spans around its calls into the program, and one
/// arrival -> dispatch -> reply pair of virtual-clock spans per
/// statement, both carrying the statement id.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a host span; its parent is the innermost span still open.
  int Begin(const std::string& name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Micros(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_us = Micros();
    std::erase(open_, id);
  }

  void Statement(uint64_t stmt, int session, const char* kind,
                 sim::SimTime arrival_ns, sim::SimTime dispatch_ns,
                 sim::SimTime reply_ns, const char* outcome) {
    statements_.push_back(
        {stmt, session, kind, arrival_ns, dispatch_ns, reply_ns, outcome});
  }

  std::string Json() const {
    std::string out = "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
      if (!first) out += ",\n";
      first = false;
    };
    for (size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      sep();
      out += StrFormat(
          "{\"ph\":\"X\",\"cat\":\"host\",\"name\":\"%s\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":0,\"tid\":0,\"args\":{\"span\":%zu,"
          "\"parent\":%d}}",
          s.name.c_str(), s.start_us, s.end_us - s.start_us, i, s.parent);
    }
    for (const StatementSpan& s : statements_) {
      sep();
      out += StrFormat(
          "{\"ph\":\"X\",\"cat\":\"virtual\",\"name\":\"admission\","
          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":"
          "{\"stmt\":%llu,\"kind\":\"%s\"}},\n"
          "{\"ph\":\"X\",\"cat\":\"virtual\",\"name\":\"%s\",\"ts\":%.3f,"
          "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"stmt\":%llu,"
          "\"kind\":\"%s\"}}",
          s.arrival_ns / 1e3, (s.dispatch_ns - s.arrival_ns) / 1e3, s.session,
          static_cast<unsigned long long>(s.stmt), s.kind, s.outcome,
          s.dispatch_ns / 1e3, (s.reply_ns - s.dispatch_ns) / 1e3, s.session,
          static_cast<unsigned long long>(s.stmt), s.kind);
    }
    out += "],\"otherData\":{\"pid0\":\"host clock, us since start\","
           "\"pid1\":\"virtual clock, us since the stream began\"}}\n";
    return out;
  }

 private:
  struct HostSpan {
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  struct StatementSpan {
    uint64_t stmt;
    int session;
    const char* kind;
    sim::SimTime arrival_ns, dispatch_ns, reply_ns;
    const char* outcome;
  };

  double Micros() const { return Since(origin_) * 1e6; }

  Clock::time_point origin_;
  std::vector<HostSpan> spans_;
  std::vector<int> open_;
  std::vector<StatementSpan> statements_;
};

/// Scoped host span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name)
      : log_(log), id_(log ? log->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------- One stream

/// What the machine answered to one statement.
struct Reply {
  bool done = false;
  StatusCode code = StatusCode::kOk;
  sim::SimTime reply_ns = 0;  // Virtual, from the stream start.
  sim::SimTime response_ns = 0;
  uint64_t affected_rows = 0;
  std::shared_ptr<std::vector<Tuple>> tuples;
};

/// Outcome of one stream on one machine. Everything but the host times
/// (run_host_s, window_us, window_scaled_us) is virtual and a pure
/// function of (workload, seed, rate).
struct StreamResult {
  uint64_t submitted = 0;
  uint64_t answered = 0;  // OK replies.
  uint64_t shed = 0;      // Typed Overloaded at admission.
  uint64_t errors = 0;    // Any other non-OK reply (Unavailable included).
  uint64_t wrong = 0;     // OK replies the oracle rejects.
  std::string first_wrong;
  obs::LatencyHistogram latency;  // Dispatcher::latency().
  obs::LatencyHistogram write_latency;
  obs::LatencyHistogram admission_wait;
  serve::Dispatcher::Stats stats;
  sim::SimTime makespan_ns = 0;  // Stream start to the last reply.
  uint64_t acked_writes = 0;
  uint64_t digest = 0;  // FNV-1a over every statement's virtual outcome.
  double run_host_s = 0;
  /// Host µs per arriving statement of each timed window (see RunStream),
  /// as measured and scaled to the nominal CPU speed (calibrate.h).
  std::vector<double> window_us;
  std::vector<double> window_scaled_us;
  std::vector<Reply> replies;

  uint64_t failed() const { return errors + wrong; }
  double answered_frac() const {
    return submitted == 0 ? 0
                          : static_cast<double>(answered) /
                                static_cast<double>(submitted);
  }
  double error_rate() const {
    return submitted == 0 ? 0
                          : static_cast<double>(shed + errors + wrong) /
                                static_cast<double>(submitted);
  }
};

class Fnv {
 public:
  void Add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
    h_ ^= 0xff;
    h_ *= 1099511628211ULL;
  }
  void Add(int64_t v) { Add(std::to_string(v)); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 14695981039346656037ULL;
};

/// Submits `schedule` through a default-option Dispatcher on `db`, runs
/// the machine until it drains, and checks every answer. Only the run
/// is timed; replies are checked after it returns.
///
/// With window_ns > 0 the run is driven in consecutive windows of that
/// much virtual time (Simulator::RunUntil), each timed on its own, up to
/// the last arrival, and then drained as Dispatcher::Run would. The last
/// arrival is still queued at every window's end, so RunUntil never moves
/// the clock past an event: the same events run at the same times and in
/// the same order as in one Run() call (RunPerLayer checks it on a
/// prefix). Each window with at least half its expected arrivals adds
/// one host sample of µs per admitted statement: a shed arrival costs
/// next to nothing, so counting it would make more shedding read as
/// cheaper statements. The calibration kernel runs between windows,
/// outside the timed spans.
StreamResult RunStream(core::PrismaDb* db,
                       const std::vector<serve::ArrivalEvent>& schedule,
                       int rows, bool final_check, SpanLog* log,
                       sim::SimTime window_ns = 0) {
  StreamResult out;
  out.replies.resize(schedule.size());
  serve::Dispatcher dispatcher(db, serve::DispatcherOptions());
  const sim::SimTime start_ns = db->simulator().now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    Reply* slot = &out.replies[i];
    dispatcher.Submit(
        schedule[i].sql, exec::kAutoCommit,
        [db, slot, start_ns](const gdh::ClientReply& reply,
                             sim::SimTime response_ns) {
          slot->done = true;
          slot->code = reply.status.code();
          slot->reply_ns = db->simulator().now() - start_ns;
          slot->response_ns = response_ns;
          slot->affected_rows = reply.affected_rows;
          slot->tuples = reply.tuples;
        },
        schedule[i].at_ns);
  }
  {
    ScopedSpan span(log, "Dispatcher::Run");
    if (window_ns > 0 && !schedule.empty()) {
      const double expected = static_cast<double>(schedule.size()) *
                              static_cast<double>(window_ns) /
                              static_cast<double>(schedule.back().at_ns + 1);
      size_t next = 0;  // First statement arriving after the window.
      uint64_t shed_before = 0;
      double kernel_before = KernelUs();
      for (sim::SimTime end = window_ns; end < schedule.back().at_ns;
           end += window_ns) {
        const Clock::time_point window_start = Clock::now();
        db->simulator().RunUntil(start_ns + end);
        const double host_s = Since(window_start);
        out.run_host_s += host_s;
        const double kernel_after = KernelUs();
        size_t arrived = 0;
        while (next < schedule.size() && schedule[next].at_ns <= end) {
          ++next;
          ++arrived;
        }
        // Sheds happen at the arrival instant, so inside this window.
        const uint64_t shed_now = dispatcher.stats().shed;
        const uint64_t admitted = arrived - (shed_now - shed_before);
        shed_before = shed_now;
        if (admitted > 0 && static_cast<double>(arrived) >= expected / 2) {
          const double us = host_s * 1e6 / static_cast<double>(admitted);
          out.window_us.push_back(us);
          out.window_scaled_us.push_back(
              Scaled(us, kernel_before, kernel_after));
        }
        kernel_before = kernel_after;
      }
    }
    const Clock::time_point t = Clock::now();
    dispatcher.Run();
    out.run_host_s += Since(t);
  }
  out.stats = dispatcher.stats();
  out.latency = dispatcher.latency();
  out.submitted = out.stats.submitted;

  Oracle oracle(rows, schedule);
  Fnv digest;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const serve::ArrivalEvent& event = schedule[i];
    const Reply& r = out.replies[i];
    PRISMA_CHECK(r.done) << "statement " << i << " never resolved";
    const sim::SimTime latency = r.reply_ns - event.at_ns;
    out.makespan_ns = std::max(out.makespan_ns, r.reply_ns);
    const char* outcome = "answered";
    if (r.code == StatusCode::kOverloaded) {
      ++out.shed;
      outcome = "shed";
    } else if (r.code != StatusCode::kOk) {
      ++out.errors;
      outcome = "error";
    } else {
      gdh::ClientReply reply;
      reply.tuples = r.tuples;
      reply.affected_rows = r.affected_rows;
      const std::string why = oracle.Check(i, reply);
      if (why.empty()) {
        ++out.answered;
        if (event.kind == serve::QueryKind::kPointWrite) {
          out.write_latency.Record(latency);
        }
      } else {
        ++out.wrong;
        outcome = "wrong";
        if (out.first_wrong.empty()) {
          out.first_wrong = StrFormat("statement %zu (%s): %s", i,
                                      event.sql.c_str(), why.c_str());
        }
      }
    }
    if (r.code != StatusCode::kOverloaded) {
      out.admission_wait.Record(latency - r.response_ns);
    }
    if (log != nullptr) {
      log->Statement(i, event.session, serve::QueryKindName(event.kind),
                     event.at_ns, r.reply_ns - r.response_ns, r.reply_ns,
                     outcome);
    }
    digest.Add(static_cast<int64_t>(r.code));
    digest.Add(r.reply_ns);
    digest.Add(r.response_ns);
    digest.Add(static_cast<int64_t>(r.affected_rows));
    if (r.tuples != nullptr) {
      for (const Tuple& t : *r.tuples) digest.Add(t.ToString());
    }
  }
  out.acked_writes = oracle.acked_updates();
  if (final_check && oracle.has_writes()) {
    const std::string why = oracle.Final(db);
    if (!why.empty()) {
      ++out.wrong;
      if (out.first_wrong.empty()) out.first_wrong = why;
    }
  }
  out.digest = digest.value();
  return out;
}

/// A freshly constructed and bulk-loaded machine, with its host set-up
/// time (as measured, and scaled to the nominal CPU speed by kernel runs
/// just before and after when `calibrate`) and the simulator events the
/// load took.
struct Machine {
  std::unique_ptr<core::PrismaDb> db;
  double setup_s = 0;
  double setup_scaled_s = 0;
  uint64_t setup_events = 0;
};

Machine Build(const Workload& w, bool tracing, SpanLog* log,
              bool calibrate = false) {
  Machine m;
  const double kernel_before = calibrate ? KernelUs() : 0;
  {
    ScopedSpan span(log, "SetupSchema");
    const Clock::time_point t = Clock::now();
    m.db = std::make_unique<core::PrismaDb>(Config(w, tracing));
    const Status status =
        serve::WorkloadGenerator::SetupSchema(m.db.get(), w.rows, w.pes);
    m.setup_s = Since(t);
    PRISMA_CHECK(status.ok()) << "SetupSchema: " << status.ToString();
  }
  if (calibrate) {
    m.setup_scaled_s = Scaled(m.setup_s, kernel_before, KernelUs());
  }
  m.setup_events = m.db->simulator().events_scheduled();
  if (tracing) m.db->tracer().Clear();  // Keep only the stream's spans.
  return m;
}

// ------------------------------------------------------------ Reporting

double Median(std::vector<double> v) {
  PRISMA_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Virtual length of one host-timing window of the reference run.
sim::SimTime WindowNs(const Workload& w) {
  return static_cast<sim::SimTime>(std::llround(
      w.window_statements / w.reference_qps * sim::kNanosPerSecond));
}

/// Shortest decimal that reads back as exactly `v`.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += StrFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i ? ", " : "", e.name.c_str(), Num(e.value).c_str(),
                       e.unit.c_str());
    }
    return out + "}";
  }
  void Print() const {
    for (const Entry& e : entries_) {
      std::printf("  %-36s %14.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Running verdict of one invocation. Only runs whose number is fixed by
/// the workload are absorbed, so attempted and failed depend on the seed
/// alone, never on how many repetitions the host budget allowed.
struct Verdict {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string why;

  void Absorb(const StreamResult& r, const char* what) {
    attempted += r.submitted;
    failed += r.failed();
    if (r.wrong > 0) Fail(StrFormat("%s: %s", what, r.first_wrong.c_str()));
  }
  void Fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

int Finish(const Verdict& v, const Metrics& metrics) {
  if (!v.correct) std::fprintf(stderr, "WRONG: %s\n", v.why.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      v.correct ? "true" : "false",
      static_cast<unsigned long long>(v.attempted),
      static_cast<unsigned long long>(v.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return v.correct ? 0 : 1;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Nearest-rank position of p99 and the samples strictly beyond it.
uint64_t BeyondP99(const obs::LatencyHistogram& h) {
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(0.99 * static_cast<double>(h.count()))));
  return h.count() - rank;
}

// ---------------------------------------------- --trace 0: end to end

struct Rung {
  double qps = 0;
  double p99_ms = 0;
  double error_rate = 0;
  double completed_frac = 0;
  bool pass = false;
};

int RunEndToEnd(const Workload& w, uint64_t seed, double seconds) {
  Verdict verdict;
  const std::vector<serve::ArrivalEvent> schedule =
      Schedule(w, seed, w.reference_qps, w.reference_statements);

  // Reference run, repeated on fresh machines while the host budget
  // lasts. Each repetition yields one set-up sample and one host sample
  // per timed window; the virtual outcome must not change between
  // repetitions. Only the first counts in attempted and failed; the
  // others are checked against its digest.
  const sim::SimTime window_ns = WindowNs(w);
  std::vector<double> setup_s;
  std::vector<double> setup_scaled_s;
  std::vector<double> window_us;
  std::vector<double> window_scaled_us;
  StreamResult reference;
  double peak_rss_mb = 0;
  const Clock::time_point start = Clock::now();
  do {
    Machine m = Build(w, /*tracing=*/false, nullptr, /*calibrate=*/true);
    setup_s.push_back(m.setup_s);
    setup_scaled_s.push_back(m.setup_scaled_s);
    const bool first = setup_s.size() == 1;
    StreamResult r = RunStream(m.db.get(), schedule, w.rows,
                               /*final_check=*/first, nullptr, window_ns);
    window_us.insert(window_us.end(), r.window_us.begin(), r.window_us.end());
    window_scaled_us.insert(window_scaled_us.end(), r.window_scaled_us.begin(),
                            r.window_scaled_us.end());
    if (first) {
      verdict.Absorb(r, "reference run");
      reference = std::move(r);
      // Set-up plus one reference run; later repetitions would add heap
      // fragmentation that depends on how many fit in the host budget.
      peak_rss_mb = PeakRssMb();
    } else {
      if (r.digest != reference.digest) {
        verdict.Fail("repeating the reference run changed its virtual outcome");
      }
    }
  } while (Since(start) < seconds);
  const size_t runs = setup_s.size();
  // Set-up is short next to a run: take at least seven samples of it.
  while (setup_s.size() < 7) {
    const Machine m = Build(w, false, nullptr, true);
    setup_s.push_back(m.setup_s);
    setup_scaled_s.push_back(m.setup_scaled_s);
  }

  // Knee: climb the ladder until a rung misses the limit.
  std::vector<Rung> rungs;
  double knee = 0;
  for (const double qps : w.ladder) {
    const std::vector<serve::ArrivalEvent> load =
        Schedule(w, seed, qps, w.ladder_statements);
    Machine m = Build(w, false, nullptr);
    const StreamResult r = RunStream(m.db.get(), load, w.rows, true, nullptr);
    verdict.Absorb(r, StrFormat("ladder rung %.2f qps", qps).c_str());
    Rung rung;
    rung.qps = qps;
    rung.p99_ms = Ms(r.latency.P99());
    rung.error_rate = r.error_rate();
    // Answered rate over the whole run (to the last reply) against the
    // offered rate over the arrival window: a growing backlog stretches
    // the run past the window and pulls this below 1.
    const double window_s = w.ladder_statements / qps;
    const double makespan_s =
        static_cast<double>(r.makespan_ns) / sim::kNanosPerSecond;
    rung.completed_frac =
        makespan_s <= 0 ? 0
                        : (static_cast<double>(r.answered) / makespan_s) /
                              (static_cast<double>(r.submitted) / window_s);
    rung.pass = rung.p99_ms <= w.limit_ms && rung.error_rate <= 0.01 &&
                rung.completed_frac >= 0.95;
    rungs.push_back(rung);
    if (!rung.pass) break;
    knee = qps;
  }

  const StreamResult& ref = reference;
  std::printf("workload %s seed %llu: %d PEs, %d rows, %d sessions, "
              "reference %.2f qps\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), w.pes,
              w.rows, kSessions, w.reference_qps);
  std::printf("  reference run: %llu submitted, %llu answered, %llu shed, "
              "%llu errors, %llu wrong; p99 over %llu samples, %llu beyond\n",
              static_cast<unsigned long long>(ref.submitted),
              static_cast<unsigned long long>(ref.answered),
              static_cast<unsigned long long>(ref.shed),
              static_cast<unsigned long long>(ref.errors),
              static_cast<unsigned long long>(ref.wrong),
              static_cast<unsigned long long>(ref.latency.count()),
              static_cast<unsigned long long>(BeyondP99(ref.latency)));
  std::printf("  host samples: %zu reference runs, %zu timed windows, "
              "%zu set-ups\n",
              runs, window_us.size(), setup_s.size());
  for (const Rung& r : rungs) {
    std::printf("  ladder %9.2f qps: p99 %9.3f ms, error_rate %.4f, "
                "completed %.3f of offered -> %s\n",
                r.qps, r.p99_ms, r.error_rate, r.completed_frac,
                r.pass ? "meets" : "misses");
  }

  // Virtual metrics that are not defined on every workload are reported
  // here; the gated set (last line) holds only the ones that are.
  Metrics report;
  report.Add("error_rate", ref.error_rate(), "fraction");
  if (ref.write_latency.count() > 0) {
    report.Add("write_p99_ms", Ms(ref.write_latency.P99()), "ms");
    report.Add("write_samples", static_cast<double>(ref.write_latency.count()),
               "count");
  }
  if (!w.ladder.empty()) {
    report.Add("knee_qps", knee, "1/s");
    report.Add("latency_limit_ms", w.limit_ms, "ms");
  }
  report.Add("p99_samples", static_cast<double>(ref.latency.count()), "count");
  report.Add("p99_beyond", static_cast<double>(BeyondP99(ref.latency)),
             "count");
  // Host figures as measured, before scaling to the nominal CPU speed.
  report.Add("host_us_per_stmt_wall", Median(window_us), "us");
  report.Add("setup_s_wall", Median(setup_s), "s");
  report.Add("host_windows", static_cast<double>(window_us.size()), "count");
  std::printf("  also measured:\n");
  report.Print();
  std::printf("{\"report\": %s}\n", report.Json().c_str());

  Metrics metrics;
  metrics.Add("p50_ms", Ms(ref.latency.P50()), "ms");
  metrics.Add("p99_ms", Ms(ref.latency.P99()), "ms");
  metrics.Add("answered_frac", ref.answered_frac(), "fraction");
  metrics.Add("host_us_per_stmt", Median(window_scaled_us), "us");
  metrics.Add("setup_s", Median(setup_scaled_s), "s");
  metrics.Add("peak_rss_mb", peak_rss_mb, "MB");
  std::printf("  end-to-end:\n");
  metrics.Print();
  return Finish(verdict, metrics);
}

// ---------------------------------------------- --trace 1: per layer

/// Counters and gauges read from the machine around the reference run.
struct Snapshot {
  std::map<std::string, double> v;
  std::vector<double> pe_busy_ns;

  static Snapshot Take(core::PrismaDb* db) {
    Snapshot s;
    db->DumpMetrics();  // Syncs the derived gauges.
    const obs::MetricsRegistry& m = db->metrics();
    for (const char* name :
         {"query.plan_cache.hit", "query.plan_cache.miss", "gdh.2pc_rounds",
          "gdh.rpc_retries", "gdh.deadlock_aborts", "pool.handlers_executed",
          "pool.mail_bits", "pe.cpu_ns", "net.link_bits", "net.backpressure",
          "net.messages_sent", "exchange.wire_bits", "exchange.stalls",
          "query.tuples_gathered", "olap.shuffle_bits", "olap.gather_bits",
          "query.fragments_contacted", "ofm.tuples_scanned",
          "ofm.index_selections", "ofm.full_scans", "ofm.wal_records"}) {
      s.v[name] = static_cast<double>(m.CounterTotal(name));
    }
    for (const char* name : {"lock.waits", "sim.events_scheduled",
                             "sim.events_cancelled"}) {
      s.v[name] = static_cast<double>(m.GaugeValue(name));
    }
    const int pes = db->config().pes;
    double stable = 0;
    for (int pe = 0; pe < pes; ++pe) {
      s.pe_busy_ns.push_back(static_cast<double>(
          m.GaugeValue("pe.busy_ns", {{"pe", std::to_string(pe)}})));
      stable += static_cast<double>(db->stable_store(pe).total_bytes());
    }
    s.v["stable_bytes"] = stable;
    s.v["net_transit_ns"] =
        static_cast<double>(db->network().stats().total_latency_ns);
    return s;
  }
};

double Per(double num, double den) { return den > 0 ? num / den : 0; }

int RunPerLayer(const Workload& w, uint64_t seed, double seconds,
                const std::string& trace_out) {
  Verdict verdict;
  SpanLog log;
  std::vector<serve::ArrivalEvent> schedule;
  {
    ScopedSpan span(&log, "Generate");
    schedule = Schedule(w, seed, w.reference_qps, w.reference_statements);
  }

  // Reference run, untraced, bracketed by registry snapshots.
  Snapshot before;
  Snapshot after;
  StreamResult ref;
  double setup_events = 0;
  double ref_scaled_s = 0;  // The run's host time, scaled (calibrate.h).
  {
    ScopedSpan span(&log, "reference run");
    Machine m = Build(w, false, &log);
    setup_events = static_cast<double>(m.setup_events);
    before = Snapshot::Take(m.db.get());
    const double kernel_before = KernelUs();
    ref = RunStream(m.db.get(), schedule, w.rows, true, &log);
    ref_scaled_s = Scaled(ref.run_host_s, kernel_before, KernelUs());
    after = Snapshot::Take(m.db.get());
  }
  verdict.Absorb(ref, "reference run");
  auto d = [&](const char* name) { return after.v.at(name) - before.v.at(name); };
  const double stmts = static_cast<double>(ref.answered);
  const double writes = static_cast<double>(ref.acked_writes);
  const double makespan = static_cast<double>(ref.makespan_ns);
  double busy_max = 0;
  double busy_sum = 0;
  for (size_t pe = 0; pe < after.pe_busy_ns.size(); ++pe) {
    const double busy = after.pe_busy_ns[pe] - before.pe_busy_ns[pe];
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  const double pe0_busy = after.pe_busy_ns[0] - before.pe_busy_ns[0];

  // The prefix of the stream, run windowed as --trace 0 times it, plain,
  // and traced: all three must give the same virtual outcome and
  // metrics. Pairs of plain and traced runs give the host cost of
  // tracing.
  const std::vector<serve::ArrivalEvent> prefix(
      schedule.begin(),
      schedule.begin() + std::min<size_t>(schedule.size(),
                                          static_cast<size_t>(w.traced_statements)));
  struct PrefixRun {
    StreamResult stream;
    std::string metrics;  // DumpMetrics() after the run.
  };
  std::string trace_json;  // DumpTrace() of the first traced run.
  auto run_prefix = [&](bool tracing, sim::SimTime window_ns) {
    Machine m = Build(w, tracing, nullptr);
    PrefixRun p;
    p.stream = RunStream(m.db.get(), prefix, w.rows, true, nullptr, window_ns);
    p.metrics = m.db->DumpMetrics();
    if (tracing && trace_json.empty()) trace_json = m.db->DumpTrace();
    return p;
  };
  Ledger ledger;
  StreamResult traced;
  std::vector<double> overhead;
  {
    ScopedSpan span(&log, "traced prefix");
    const PrefixRun windowed = run_prefix(false, WindowNs(w));
    verdict.Absorb(windowed.stream, "windowed prefix");
    const Clock::time_point start = Clock::now();
    // The overhead compares two adjacent runs, so it is left unscaled:
    // a kernel run right after a traced run would itself be slowed by
    // the trace's memory, and over-correct. Instead the order alternates
    // between pairs, so an order effect cancels in the median.
    do {
      const bool traced_first = overhead.size() % 2 == 1;
      PrefixRun b;
      if (traced_first) b = run_prefix(true, 0);
      const PrefixRun a = run_prefix(false, 0);
      if (!traced_first) b = run_prefix(true, 0);
      if (a.stream.digest != windowed.stream.digest ||
          a.metrics != windowed.metrics) {
        verdict.Fail("windowing changed the virtual outcome of the prefix");
      }
      if (b.stream.digest != a.stream.digest || b.metrics != a.metrics) {
        verdict.Fail("tracing changed the virtual outcome of the prefix");
      }
      overhead.push_back(b.stream.run_host_s / a.stream.run_host_s - 1);
      if (overhead.size() == 1) {
        verdict.Absorb(a.stream, "untraced prefix");
        verdict.Absorb(b.stream, "traced prefix");
        const std::string why = BuildLedger(trace_json, &ledger);
        if (!why.empty()) verdict.Fail("DumpTrace: " + why);
        traced = std::move(b.stream);
      }
    } while (overhead.size() < 5 ||
             (overhead.size() < 9 && Since(start) < seconds / 2));
  }

  // Host probes of the front end and the executor.
  SqlProbe sql;
  ExecProbe ex;
  {
    ScopedSpan span(&log, "probes");
    std::vector<std::string> texts;
    for (size_t i = 0; i < schedule.size() && i < 2000; ++i) {
      texts.push_back(schedule[i].sql);
    }
    sql = ProbeSql(texts, 0.25);
    ex = ProbeExec(w.rows / w.pes, Config(w, false), 0.25);
  }

  const double traced_stmts = static_cast<double>(traced.answered);
  double traced_admission_ns = 0;
  for (size_t i = 0; i < prefix.size(); ++i) {
    const Reply& r = traced.replies[i];
    if (r.code == StatusCode::kOk) {
      traced_admission_ns +=
          static_cast<double>(r.reply_ns - prefix[i].at_ns - r.response_ns);
    }
  }
  const double hits = d("query.plan_cache.hit");
  const double lookups = hits + d("query.plan_cache.miss");
  const double index_sel = d("ofm.index_selections");

  Metrics mx;
  mx.Add("serve.answered", stmts, "count");
  mx.Add("serve.admission_wait_p99_ms", Ms(ref.admission_wait.P99()), "ms");
  mx.Add("serve.shed_frac", Per(static_cast<double>(ref.shed),
                                static_cast<double>(ref.submitted)),
         "fraction");
  mx.Add("serve.peak_queue", static_cast<double>(ref.stats.peak_queue), "count");
  mx.Add("serve.peak_in_flight", static_cast<double>(ref.stats.peak_in_flight),
         "count");
  mx.Add("sql.normalize_us", sql.normalize_us, "us");
  mx.Add("sql.parse_us", sql.parse_us, "us");
  mx.Add("gdh.plan_cache_hit_ratio", Per(hits, lookups), "fraction");
  mx.Add("gdh.plan_cache_lookups", lookups, "count");
  mx.Add("gdh.busy_frac", Per(pe0_busy, makespan), "fraction");
  mx.Add("gdh.lock_waits_per_stmt", Per(d("lock.waits"), stmts), "1/stmt");
  mx.Add("gdh.writes_acked", writes, "count");
  mx.Add("gdh.2pc_rounds_per_write", Per(d("gdh.2pc_rounds"), writes),
         "1/write");
  mx.Add("gdh.rpc_retries", d("gdh.rpc_retries"), "count");
  mx.Add("gdh.deadlock_aborts", d("gdh.deadlock_aborts"), "count");
  mx.Add("pool.handlers_per_stmt", Per(d("pool.handlers_executed"), stmts),
         "1/stmt");
  mx.Add("pool.mail_bits_per_stmt", Per(d("pool.mail_bits"), stmts),
         "bit/stmt");
  mx.Add("pool.max_pe_busy_frac", Per(busy_max, makespan), "fraction");
  mx.Add("pool.mean_pe_busy_frac",
         Per(busy_sum / static_cast<double>(w.pes), makespan), "fraction");
  mx.Add("pool.cpu_ms_per_stmt", Per(d("pe.cpu_ns") / 1e6, stmts), "ms");
  mx.Add("sim.events_per_stmt", Per(d("sim.events_scheduled"), stmts),
         "1/stmt");
  mx.Add("sim.events_per_host_s", Per(d("sim.events_scheduled"), ref_scaled_s),
         "1/s");
  mx.Add("sim.events_per_row_loaded", Per(setup_events, w.rows), "1/row");
  mx.Add("sim.cancelled_frac",
         Per(d("sim.events_cancelled"), d("sim.events_scheduled")), "fraction");
  mx.Add("net.link_bits_per_stmt", Per(d("net.link_bits"), stmts), "bit/stmt");
  mx.Add("net.delayed_ms_per_stmt", Per(d("net_transit_ns") / 1e6, stmts),
         "ms");
  mx.Add("net.backpressure", d("net.backpressure"), "count");
  mx.Add("net.messages_per_stmt", Per(d("net.messages_sent"), stmts), "1/stmt");
  mx.Add("exchange.wire_bits_per_stmt", Per(d("exchange.wire_bits"), stmts),
         "bit/stmt");
  mx.Add("exchange.stalls_per_stmt", Per(d("exchange.stalls"), stmts),
         "1/stmt");
  mx.Add("query.tuples_gathered_per_stmt",
         Per(d("query.tuples_gathered"), stmts), "1/stmt");
  mx.Add("olap.shuffle_bits_per_stmt", Per(d("olap.shuffle_bits"), stmts),
         "bit/stmt");
  mx.Add("olap.gather_bits_per_stmt", Per(d("olap.gather_bits"), stmts),
         "bit/stmt");
  mx.Add("query.fragments_contacted_per_stmt",
         Per(d("query.fragments_contacted"), stmts), "1/stmt");
  mx.Add("ofm.tuples_scanned_per_stmt", Per(d("ofm.tuples_scanned"), stmts),
         "1/stmt");
  mx.Add("ofm.index_selection_frac",
         Per(index_sel, index_sel + d("ofm.full_scans")), "fraction");
  mx.Add("ofm.wal_records_per_write", Per(d("ofm.wal_records"), writes),
         "1/write");
  mx.Add("storage.stable_bytes_per_write", Per(d("stable_bytes"), writes),
         "B/write");
  mx.Add("exec.scan_filter_ns_per_row", ex.scan_filter_ns_per_row, "ns");
  mx.Add("exec.group_by_ns_per_row", ex.group_by_ns_per_row, "ns");
  mx.Add("exec.hash_join_ns_per_row", ex.hash_join_ns_per_row, "ns");
  mx.Add("trace.statements", traced_stmts, "count");
  mx.Add("trace.gdh_ms_per_stmt", Per(ledger.gdh_ns / 1e6, traced_stmts), "ms");
  mx.Add("trace.coordinator_ms_per_stmt",
         Per(ledger.coordinator_ns / 1e6, traced_stmts), "ms");
  mx.Add("trace.ofm_ms_per_stmt", Per(ledger.ofm_ns / 1e6, traced_stmts), "ms");
  mx.Add("trace.exchange_ms_per_stmt",
         Per(ledger.exchange_ns / 1e6, traced_stmts), "ms");
  mx.Add("trace.net_ms_per_stmt", Per(ledger.net_ns / 1e6, traced_stmts), "ms");
  mx.Add("trace.admission_ms_per_stmt",
         Per(traced_admission_ns / 1e6, traced_stmts), "ms");
  mx.Add("trace.overhead_frac", Median(overhead), "fraction");

  if (!trace_out.empty()) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      verdict.Fail("cannot write " + trace_out);
    } else {
      const std::string json = log.Json();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }
  std::printf("workload %s seed %llu (traced run): %llu statements in the "
              "reference run, %llu in the traced prefix (%llu trace events)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ref.submitted),
              static_cast<unsigned long long>(prefix.size()),
              static_cast<unsigned long long>(ledger.events));
  std::printf("  per-layer:\n");
  mx.Print();
  return Finish(verdict, mx);
}

// ------------------------------------------------------------------ main

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: prisma_perfbench --workload "
               "oltp_mix|point_lookup|olap_64pe --seed N --seconds S "
               "--trace 0|1 [--smoke] [--trace-out FILE]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  Workload w;
  if (!LookupWorkload(workload, smoke, &w)) return Usage("unknown workload");
  if (seed < 0) return Usage("--seed must be a non-negative integer");
  if (!(seconds > 0)) return Usage("--seconds must be positive");
  if (trace != 0 && trace != 1) return Usage("--trace must be 0 or 1");
  return trace == 0
             ? RunEndToEnd(w, static_cast<uint64_t>(seed), seconds)
             : RunPerLayer(w, static_cast<uint64_t>(seed), seconds, trace_out);
}

}  // namespace
}  // namespace prisma::perfbench

int main(int argc, char** argv) { return prisma::perfbench::Main(argc, argv); }
