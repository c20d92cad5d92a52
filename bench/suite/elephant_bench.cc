// Benchmark driver behind bench/suite/run.py. It runs one workload in
// this process and prints the raw measurements as one JSON object on
// stdout; run.py turns them into the metrics and checks the answers.
// README.md says why each workload exists.
//
//   elephant_bench --workload=W [--seed=S] [--threads=T] [--seconds=X]
//                  [--preset=full|tiny] [--trace=PATH]
//
// Every layer is measured from outside: the driver times its own calls
// into public functions (tpch::GenerateDatabase, tpch::RunQuery,
// ycsb::MakeSystem, YcsbDriver::Prepare/Run) and differences the exec
// and engine counters around them. Without --seed the historical seeds
// are used (dbgen's and the YCSB driver's defaults), so the answers can
// be checked against expected.json.
//
// A stream is one pass over the workload's units in a fixed order: the
// 22 TPC-H queries, or the three OLTP systems. Streams repeat until
// --seconds have passed (and at least the preset's minimum has run).
// With --trace, streams alternate between traced and untraced, so the
// trace's cost can be read off the two sets of streams.
//
// Every time is reported twice: as raw wall-clock time of this host, and
// in reference seconds, scaled by the host probe samples taken just
// before and just after the call (host_probe.h).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench_json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/units.h"
#include "exec/encoded_scan.h"
#include "exec/frozen.h"
#include "exec/fused.h"
#include "exec/operators.h"
#include "exec/segcache.h"
#include "exec/spill.h"
#include "exec/table.h"
#include "host_probe.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "trace.h"
#include "ycsb/driver.h"
#include "ycsb/systems.h"
#include "ycsb/workload.h"

using namespace elephant;
using bench::HostProbe;
using bench::Span;
using bench::TraceRecorder;

namespace {

/// Workload sizes. `full` is the benchmark; `tiny` is the smoke test's
/// preset, small enough for a ctest run yet still spilling under its
/// budget.
struct Preset {
  double sf;
  size_t budget_bytes;  ///< tpch_budget's exec memory budget
  /// dbgen runs before the TPC-H streams; setup_s is their median.
  int setup_repeats;
  /// Minimum timed streams. Five TPC-H streams are 110 query runs, so
  /// their 90th percentile has at least ten runs beyond it.
  int min_query_streams;
  int min_system_streams;
  int64_t ycsb_records;
  SimTime ycsb_warmup;
  SimTime ycsb_measure;
  int64_t ycsb_target;  ///< closed-loop target, ops/s across 800 clients
};

constexpr Preset kFull = {.sf = 0.1,
                          .budget_bytes = 16u << 20,
                          .setup_repeats = 3,
                          .min_query_streams = 5,
                          .min_system_streams = 3,
                          .ycsb_records = 1600000,
                          .ycsb_warmup = 2 * kSecond,
                          .ycsb_measure = 8 * kSecond,
                          .ycsb_target = 40000};
constexpr Preset kTiny = {.sf = 0.01,
                          .budget_bytes = 2u << 20,
                          .setup_repeats = 2,
                          .min_query_streams = 2,
                          .min_system_streams = 2,
                          .ycsb_records = 40000,
                          .ycsb_warmup = 1 * kSecond,
                          .ycsb_measure = 1 * kSecond,
                          .ycsb_target = 40000};

struct Options {
  std::string workload;
  bool seed_given = false;
  uint64_t seed = 0;
  int threads = 4;
  double seconds = 0;
  const Preset* preset = &kFull;
  std::string trace_path;
};

using Layers = std::map<std::string, double>;

/// One unit: a query run or one system's measured run.
struct UnitRun {
  std::string name;
  double seconds = 0;  ///< wall time of the unit's measured call
  double ref_s = 0;    ///< the same in reference seconds
  std::string digest;  ///< answer checksum or run fingerprint
  std::string status = "ok";
  Layers layers;
};

struct StreamRun {
  bool traced = false;
  double wall_s = 0;  ///< time inside calls into the program
  double ref_s = 0;   ///< the same in reference seconds
  double ops = 0;     ///< queries run, or simulated operations
  std::vector<UnitRun> units;
  Layers layers;
};

struct Report {
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;
  std::vector<double> probe_s;  ///< every host probe sample
  std::vector<StreamRun> cold;  ///< untimed warm-up stream (tpch only)
  std::vector<StreamRun> streams;
  Layers layers;
};

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  return std::isfinite(v) ? StrFormat("%.17g", v) : "null";
}

std::string NumbersJson(const std::vector<double>& values) {
  std::string out;
  for (double v : values) out += (out.empty() ? "" : ", ") + JsonNumber(v);
  return "[" + out + "]";
}

std::string LayersJson(const Layers& layers) {
  std::string out = "{";
  for (const auto& [name, value] : layers) {
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": " + JsonNumber(value);
  }
  return out + "}";
}

std::string StreamJson(const StreamRun& s) {
  std::string units;
  for (const UnitRun& u : s.units) {
    if (!units.empty()) units += ", ";
    units += StrFormat("{\"name\": %s, \"s\": %s, \"ref_s\": %s, "
                       "\"digest\": %s, \"status\": %s, \"layers\": %s}",
                       JsonString(u.name).c_str(),
                       JsonNumber(u.seconds).c_str(),
                       JsonNumber(u.ref_s).c_str(),
                       JsonString(u.digest).c_str(),
                       JsonString(u.status).c_str(),
                       LayersJson(u.layers).c_str());
  }
  return StrFormat("{\"traced\": %s, \"wall_s\": %s, \"ref_s\": %s, "
                   "\"ops\": %s, \"layers\": %s, \"units\": [%s]}",
                   s.traced ? "true" : "false", JsonNumber(s.wall_s).c_str(),
                   JsonNumber(s.ref_s).c_str(), JsonNumber(s.ops).c_str(),
                   LayersJson(s.layers).c_str(), units.c_str());
}

std::string StreamsJson(const std::vector<StreamRun>& streams) {
  std::string out;
  for (const StreamRun& s : streams) {
    if (!out.empty()) out += ",\n  ";
    out += StreamJson(s);
  }
  return "[" + out + "]";
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// What a workload's host probe samples do (host_probe.h): the kinds of
/// work its calls do, on as many CPUs as they use. Queries take tens of
/// milliseconds, so a sample between two of them is one round of a few
/// ms; an OLTP call takes about a second, so a sample between two of them
/// is four rounds, which vary less.
struct ProbeSize {
  uint32_t work;
  int cpus;
  int rounds;
};

/// Takes host probe samples between timed calls, each traced as
/// bench.probe: one when constructed and one per Mark().
class HostMarks {
 public:
  HostMarks(HostProbe* probe, ProbeSize size, TraceRecorder* trace,
            Report* rep)
      : probe_(probe), size_(size), trace_(trace), rep_(rep) {
    last_s_ = Sample();
  }

  /// Takes a sample; returns the factor that turns wall times since the
  /// previous sample into reference seconds.
  double Mark() {
    const double s = Sample();
    const double scale =
        2 * bench::ProbeRoundRefS(size_.work) / (last_s_ + s);
    last_s_ = s;
    return scale;
  }

 private:
  double Sample() {
    Span span(trace_, "bench.probe");
    const double s = probe_->Sample(size_.work, size_.cpus, size_.rounds);
    if (!(s > 0)) {
      fprintf(stderr, "the host probe stopped answering\n");
      std::exit(1);
    }
    rep_->probe_s.push_back(s);
    return s;
  }

  HostProbe* probe_;
  ProbeSize size_;
  TraceRecorder* trace_;
  Report* rep_;
  double last_s_ = 0;
};

/// Runs streams until `seconds` have passed and at least `min_streams`
/// ran. With tracing on, even-numbered streams are traced and odd ones
/// record only their own span, named untraced_stream.
template <typename RunStream>
void RunStreams(const Options& opt, int min_streams, TraceRecorder* trace,
                Report* rep, RunStream run_stream) {
  const bool tracing = trace->enabled();
  const int64_t start = Span::NowNs();
  for (int k = 0;
       k < min_streams ||
       static_cast<double>(Span::NowNs() - start) / 1e9 < opt.seconds;
       ++k) {
    StreamRun s;
    s.traced = tracing && k % 2 == 0;
    Span stream(trace, s.traced || !tracing ? "stream" : "untraced_stream");
    trace->set_enabled(s.traced);
    run_stream(&s);
    trace->set_enabled(tracing);
    stream.End();
    rep->streams.push_back(std::move(s));
  }
}

// ---- TPC-H ---------------------------------------------------------------

/// Order-insensitive, bit-exact digest of a query answer: rows are
/// rendered (doubles by %.17g, so equal bits give equal text), sorted,
/// and FNV-hashed. Equal answers give equal digests whatever the row
/// order, so thread counts and memory budgets can be compared.
uint64_t CanonicalChecksum(const exec::Table& t) {
  std::vector<std::string> lines;
  lines.reserve(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::string line;
    for (int c = 0; c < t.num_cols(); ++c) {
      exec::Value v = t.ValueAt(r, c);
      if (const auto* i = std::get_if<int64_t>(&v)) {
        line += StrFormat("i%lld|", static_cast<long long>(*i));
      } else if (const auto* d = std::get_if<double>(&v)) {
        line += StrFormat("d%.17g|", *d);
      } else {
        line += "s" + std::get<std::string>(v) + "|";
      }
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::string& line : lines) {
    h ^= Fnv1a64(line.data(), line.size());
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::vector<exec::Table*> BigTables(tpch::TpchDatabase* db) {
  return {&db->supplier, &db->part,   &db->partsupp,
          &db->customer, &db->orders, &db->lineitem};
}

/// The exec layer's counters over one stream (their snapshots were reset,
/// or `cache0` taken, when the stream began).
Layers ExecCounters(const exec::SegmentCache::Stats& cache0) {
  exec::FusedCounters f = exec::FusedCountersSnapshot();
  exec::EncodedScanCounters e = exec::EncodedScanCountersSnapshot();
  exec::SpillCounters s = exec::GetSpillCounters();
  exec::SegmentCache::Stats c = exec::SegmentCache::Global().GetStats();
  auto n = [](uint64_t v) { return static_cast<double>(v); };
  auto mb = [](uint64_t v) { return static_cast<double>(v) / (1 << 20); };
  return {
      {"fused.chunks_scanned", n(f.chunks_scanned)},
      {"fused.chunks_pruned", n(f.chunks_pruned)},
      {"fused.chunks_full_match", n(f.chunks_full_match)},
      {"fused.rows_scanned", n(f.rows_scanned)},
      {"fused.sorted_bounded", n(f.sorted_bounded)},
      {"encoded.chunks_direct", n(e.chunks_direct)},
      {"encoded.chunks_decoded", n(e.chunks_decoded)},
      {"encoded.words_scanned", n(e.words_scanned)},
      {"encoded.runs_evaluated", n(e.runs_evaluated)},
      {"spill.join_spills", n(s.join_spills)},
      {"spill.agg_spills", n(s.agg_spills)},
      {"spill.sort_spills", n(s.sort_spills)},
      {"spill.partitions", n(s.partitions)},
      {"spill.recursions", n(s.recursions)},
      {"spill.fallbacks", n(s.fallbacks)},
      {"segcache.inserts", n(c.inserts - cache0.inserts)},
      {"segcache.evictions", n(c.evictions - cache0.evictions)},
      {"segcache.spill_write_mb",
       mb(c.spill_bytes_written - cache0.spill_bytes_written)},
      {"segcache.spill_read_mb",
       mb(c.spill_bytes_read - cache0.spill_bytes_read)},
  };
}

void RunTpch(const Options& opt, bool budget, HostProbe* probe,
             TraceRecorder* trace, Report* rep) {
  const Preset& p = *opt.preset;
  exec::SetExecThreads(opt.threads);
  exec::SetExecMemoryBudget(budget ? p.budget_bytes : 0);
  tpch::DbgenOptions dopt;
  if (opt.seed_given) dopt.seed = opt.seed;
  dopt.threads = opt.threads;
  // Column scans and hash tables on every exec thread.
  const ProbeSize probe_size = {bench::kProbeHeap | bench::kProbeScan,
                                opt.threads, 1};

  tpch::TpchDatabase db;
  for (int i = 0; i < p.setup_repeats; ++i) {
    // Free the last copy, and hand its pages back, before timing the
    // next: repeats must not stack up in the peak RSS.
    db = tpch::TpchDatabase();
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    HostMarks host(probe, probe_size, trace, rep);
    Span gen(trace, "tpch.dbgen");
    db = tpch::GenerateDatabase(p.sf, dopt);
    const double gen_s = gen.End();
    rep->setup_s.push_back(gen_s);
    rep->setup_ref_s.push_back(gen_s * host.Mark());
  }
  size_t encoded = 0;
  for (exec::Table* t : BigTables(&db)) {
    if (t->is_frozen()) encoded += t->frozen_data()->EncodedBytes();
  }
  rep->layers["dbgen.encoded_mb"] = static_cast<double>(encoded) / (1 << 20);

  auto run_stream = [&](StreamRun* out) {
    exec::ResetFusedCounters();
    exec::ResetEncodedScanCounters();
    exec::ResetSpillCounters();
    const exec::SegmentCache::Stats cache0 =
        exec::SegmentCache::Global().GetStats();
    HostMarks host(probe, probe_size, trace, rep);
    double release_s = 0;
    for (int q = 1; q <= tpch::kNumQueries; ++q) {
      UnitRun u;
      u.name = StrFormat("q%02d", q);
      Span query(trace, "tpch.query", q);
      exec::Table answer = tpch::RunQuery(q, db);
      u.seconds = query.End();
      const double scale = host.Mark();
      u.ref_s = u.seconds * scale;
      if (budget) {
        // Drop thawed columns so each query starts from encoded data,
        // as a budget-bound run must.
        Span release(trace, "exec.release", q);
        for (exec::Table* t : BigTables(&db)) t->ReleaseResident();
        const double s = release.End();
        release_s += s;
        out->ref_s += s * scale;
      }
      Span checksum(trace, "bench.checksum", q);
      u.digest = Hex(CanonicalChecksum(answer));
      checksum.End();
      u.layers[u.name + ".ms"] = u.seconds * 1e3;
      out->wall_s += u.seconds;
      out->ref_s += u.ref_s;
      out->ops += 1;
      out->units.push_back(std::move(u));
    }
    out->wall_s += release_s;
    out->layers = ExecCounters(cache0);
    out->layers["release.ms"] = release_s * 1e3;
  };

  // The first stream builds zone maps and warms caches; it is checked
  // but kept out of the timed streams.
  rep->cold.emplace_back();
  {
    Span cold(trace, "cold_stream");
    run_stream(&rep->cold.back());
  }
  rep->layers["cold_stream.s"] = rep->cold.back().wall_s;
  RunStreams(opt, p.min_query_streams, trace, rep, run_stream);
}

// ---- YCSB ----------------------------------------------------------------

constexpr ycsb::SystemKind kSystems[] = {ycsb::SystemKind::kSqlCs,
                                         ycsb::SystemKind::kMongoCs,
                                         ycsb::SystemKind::kMongoAs};

const char* SystemLabel(ycsb::SystemKind kind) {
  switch (kind) {
    case ycsb::SystemKind::kSqlCs:
      return "sql_cs";
    case ycsb::SystemKind::kMongoCs:
      return "mongo_cs";
    case ycsb::SystemKind::kMongoAs:
      return "mongo_as";
  }
  return "unknown";
}

/// Engine counters read through the systems' public accessors: buffer
/// pool touches, disk reads and log flushes of the SQL-CS engines, page
/// faults and global write-lock hold time of the mongods, and the time
/// operations spent waiting for locks.
struct EngineCounters {
  SimTime now = 0;
  int64_t pool_hits = 0;
  int64_t pool_misses = 0;
  int64_t disk_reads = 0;
  int64_t wal_flushes = 0;
  int64_t faults = 0;
  SimTime write_lock_held = 0;  ///< summed over the mongods
  int mongods = 0;
  SimTime lock_wait = 0;
};

template <typename MongoSystem>
void ReadMongods(MongoSystem* m, EngineCounters* c) {
  c->mongods = m->num_shards();
  for (int i = 0; i < m->num_shards(); ++i) {
    c->faults += m->mongod(i).faults();
    c->write_lock_held += m->mongod(i).global_lock().writer_held_time();
  }
}

EngineCounters ReadEngines(const ycsb::SystemUnderTest& sut) {
  EngineCounters c;
  c.now = sut.testbed->sim.now();
  c.lock_wait = sut.system->TotalLockWait();
  if (auto* sql = dynamic_cast<ycsb::SqlCsSystem*>(sut.system.get())) {
    for (int i = 0; i < sql->num_shards(); ++i) {
      sqlkv::SqlEngine& e = sql->engine(i);
      c.pool_hits += e.pool().hits();
      c.pool_misses += e.pool().misses();
      c.disk_reads += e.disk_reads();
      c.wal_flushes += e.log().flushes();
    }
  } else if (auto* cs = dynamic_cast<ycsb::MongoCsSystem*>(sut.system.get())) {
    ReadMongods(cs, &c);
  } else if (auto* as = dynamic_cast<ycsb::MongoAsSystem*>(sut.system.get())) {
    ReadMongods(as, &c);
  }
  return c;
}

/// The engine layers' work over one measured run, from the counters
/// before (`c0`) and after (`c1`) it.
void EngineLayers(ycsb::SystemKind kind, const std::string& n,
                  const EngineCounters& c0, const EngineCounters& c1,
                  Layers* layers) {
  (*layers)[n + ".lock_wait_s"] = SimTimeToSeconds(c1.lock_wait - c0.lock_wait);
  if (kind == ycsb::SystemKind::kSqlCs) {
    const int64_t hits = c1.pool_hits - c0.pool_hits;
    const int64_t touches = hits + c1.pool_misses - c0.pool_misses;
    (*layers)[n + ".pool_hit_ratio"] =
        touches > 0 ? static_cast<double>(hits) / touches : 0;
    (*layers)[n + ".disk_reads"] =
        static_cast<double>(c1.disk_reads - c0.disk_reads);
    (*layers)[n + ".wal_flushes"] =
        static_cast<double>(c1.wal_flushes - c0.wal_flushes);
  } else {
    (*layers)[n + ".faults"] = static_cast<double>(c1.faults - c0.faults);
    const double span = static_cast<double>(c1.now - c0.now) * c1.mongods;
    (*layers)[n + ".write_lock_frac"] =
        span > 0 ? static_cast<double>(c1.write_lock_held -
                                       c0.write_lock_held) /
                       span
                 : 0;
  }
}

/// ycsb_read and ycsb_update: a closed loop of `workload` on each system
/// in turn, each stream building, loading and tearing down every system
/// again.
void RunYcsb(const Options& opt, const ycsb::WorkloadSpec& workload,
             HostProbe* probe, TraceRecorder* trace, Report* rep) {
  const Preset& p = *opt.preset;
  ycsb::DriverOptions d;
  if (opt.seed_given) d.seed = opt.seed;
  d.record_count = p.ycsb_records;
  d.warmup = p.ycsb_warmup;
  d.measure = p.ycsb_measure;
  d.target_throughput = p.ycsb_target;
  // One simulation thread whose B-trees and buffer pools over 1.6M
  // records are far larger than the caches.
  const ProbeSize probe_size = {bench::kProbeHeap | bench::kProbeChase, 1, 4};

  RunStreams(opt, p.min_system_streams, trace, rep, [&](StreamRun* out) {
    HostMarks host(probe, probe_size, trace, rep);
    double setup_s = 0;
    double setup_ref_s = 0;
    for (int i = 0; i < static_cast<int>(std::size(kSystems)); ++i) {
      Span system(trace, "system", i);
      UnitRun u;
      u.name = SystemLabel(kSystems[i]);
      const std::string& n = u.name;
      Span make(trace, "ycsb.make_system", i);
      ycsb::SystemUnderTest sut = ycsb::MakeSystem(kSystems[i], d);
      double prepare_s = make.End();
      auto driver = std::make_unique<ycsb::YcsbDriver>(
          sut.testbed.get(), sut.system.get(), workload, d);
      Span prepare(trace, "ycsb.prepare", i);
      Status st = driver->Prepare();
      prepare_s += prepare.End();
      setup_s += prepare_s;
      setup_ref_s += prepare_s * host.Mark();
      if (st.ok()) {
        const EngineCounters c0 = ReadEngines(sut);
        Span run(trace, "ycsb.run", i);
        ycsb::RunResult r = driver->Run();
        u.seconds = run.End();
        u.ref_s = u.seconds * host.Mark();
        EngineLayers(kSystems[i], n, c0, ReadEngines(sut), &u.layers);
        u.digest = Hex(r.Fingerprint());
        const double events = static_cast<double>(r.sim_events);
        const double measured = static_cast<double>(r.ops_measured);
        out->ops += measured;
        u.layers[n + ".run_s"] = u.seconds;
        u.layers[n + ".sim_events"] = events;
        u.layers[n + ".events_per_s"] = events / u.seconds;
        u.layers[n + ".events_per_op"] = measured > 0 ? events / measured : 0;
      } else {
        u.status = st.ToString();
      }
      Span teardown(trace, "ycsb.teardown", i);
      driver.reset();
      sut.system.reset();  // the system holds pointers into the testbed
      sut.testbed.reset();
      u.layers[n + ".teardown_s"] = teardown.End();
      u.layers[n + ".prepare_s"] = prepare_s;
      out->wall_s += u.seconds;
      out->ref_s += u.ref_s;
      out->units.push_back(std::move(u));
      system.End();
    }
    rep->setup_s.push_back(setup_s);
    rep->setup_ref_s.push_back(setup_ref_s);
  });
}

// ---- main ----------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    char* end = nullptr;
    if (strncmp(a, "--workload=", 11) == 0) {
      opt->workload = a + 11;
    } else if (strncmp(a, "--seed=", 7) == 0) {
      opt->seed = strtoull(a + 7, &end, 0);
      if (end == a + 7 || *end != '\0') return false;
      opt->seed_given = true;
    } else if (strncmp(a, "--threads=", 10) == 0) {
      opt->threads = static_cast<int>(strtol(a + 10, &end, 10));
      if (end == a + 10 || *end != '\0' || opt->threads < 1) return false;
    } else if (strncmp(a, "--seconds=", 10) == 0) {
      opt->seconds = strtod(a + 10, &end);
      if (end == a + 10 || *end != '\0' || !(opt->seconds >= 0)) {
        return false;
      }
    } else if (strcmp(a, "--preset=full") == 0) {
      opt->preset = &kFull;
    } else if (strcmp(a, "--preset=tiny") == 0) {
      opt->preset = &kTiny;
    } else if (strncmp(a, "--trace=", 8) == 0) {
      opt->trace_path = a + 8;
    } else {
      return false;
    }
  }
  return opt->workload == "tpch_resident" || opt->workload == "tpch_budget" ||
         opt->workload == "ycsb_read" || opt->workload == "ycsb_update";
}

}  // namespace

int main(int argc, char** argv) {
  // Fork the probe first, while this process is single-threaded and has
  // run no program code.
  HostProbe probe;
  if (!probe.Start()) {
    fprintf(stderr, "cannot start the host probe\n");
    return 1;
  }
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    fprintf(stderr,
            "usage: %s --workload=tpch_resident|tpch_budget|ycsb_read|"
            "ycsb_update [--seed=S] [--threads=T] [--seconds=X] "
            "[--preset=full|tiny] [--trace=PATH]\n",
            argv[0]);
    return 2;
  }
  TraceRecorder trace(1 << 16);
  trace.set_enabled(!opt.trace_path.empty());
  Report rep;
  {
    Span workload(&trace, "workload");
    if (opt.workload == "ycsb_read") {
      RunYcsb(opt, ycsb::WorkloadSpec::C(), &probe, &trace, &rep);
    } else if (opt.workload == "ycsb_update") {
      RunYcsb(opt, ycsb::WorkloadSpec::A(), &probe, &trace, &rep);
    } else {
      RunTpch(opt, opt.workload == "tpch_budget", &probe, &trace, &rep);
    }
  }
  probe.Stop();
  rep.layers["host.probe_ms"] = Median(rep.probe_s) * 1e3;
  if (!opt.trace_path.empty() && !trace.WriteChromeJson(opt.trace_path)) {
    fprintf(stderr, "cannot write trace %s\n", opt.trace_path.c_str());
    return 1;
  }
  printf("{\"workload\": %s, \"threads\": %d,\n \"setup_s\": %s,\n"
         " \"setup_ref_s\": %s,\n \"peak_rss_mb\": %s,\n \"layers\": %s,\n"
         " \"cold\": %s,\n \"streams\": %s}\n",
         JsonString(opt.workload).c_str(), opt.threads,
         NumbersJson(rep.setup_s).c_str(), NumbersJson(rep.setup_ref_s).c_str(),
         JsonNumber(static_cast<double>(bench::PeakRssBytes()) / (1 << 20))
             .c_str(),
         LayersJson(rep.layers).c_str(), StreamsJson(rep.cold).c_str(),
         StreamsJson(rep.streams).c_str());
  return 0;
}
