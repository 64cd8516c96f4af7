/// \file
/// perfbench: the repository benchmark. `run.py` builds this program
/// with the library and tools, then runs
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             --bin-dir <dir> --work-dir <dir> --trace-dir <dir>
///             --commit <id>
///
/// Every run generates a seeded 200k-triple uniform graph (25k nodes,
/// predicates p0..p3, as N-Triples in a fresh temp directory), then sets
/// up three times: `wdsparql_load` bulk-loads the file and
/// `wdsparql_serve` starts on the snapshot (default options except
/// port, paths and `--quiet`; `--wal` on ingest_mixed) until `/healthz`
/// answers. The last server stays up and the workload drives it over
/// HTTP from at most two client threads, checking every answer.
///
/// Why each workload exists:
///  * serve_join — one closed-loop client streams the ~100k-row two-hop
///    join (?x p0 ?y) AND (?y p1 ?z). Per-row JSON, chunk framing, send()
///    and the serial/parallel join dominate; parse and planning are
///    negligible and nothing writes. Response batching and the server's
///    parallelism decision show here.
///  * serve_point — two closed-loop clients rotate seeded anchored
///    AND/OPT/UNION patterns of 1-50 rows each, alternating with
///    /contains (wdEVAL) probes. Per-request fixed costs dominate:
///    connect, admission, Prepare, planning, cursor open, range
///    materialisation, OPT maximality tests and per-query worker spawn.
///    Keep-alive, seek-based joins and a serial default show here;
///    response batching should show nothing.
///  * ingest_mixed — the server runs with --wal (WAL sync kNone, the
///    tool's default) and takes open-loop 64-triple /write batches at
///    100/s beside one closed-loop client of anchored reads, long enough
///    for dozens of threshold merges. This is the only workload that
///    writes, so a read-side gain that taxes merges, the WAL or the
///    snapshot size shows here.
///
/// End-to-end metrics (untraced run). Every workload reports every
/// metric; the request classes behind the role-named ones are:
///
///   metric       serve_join            serve_point        ingest_mixed
///   req_*        whole join stream     anchored /query    /write, timed
///                                                         from its due time
///   req_per_s    result rows/s         queries/s          acked triples/s
///   side_*       first response byte   /contains probe    anchored read
///                of the join stream                       beside the writes
///   *_tail_ms    p50                   p90                p99
///
/// plus setup_s (median of the three set-ups: load + serve until
/// healthy), snapshot_bytes_per_triple (the first set-up's snapshot) and
/// peak_rss_mb (largest `ru_maxrss` over the loader and server children,
/// from wait4). Percentiles are exact order statistics of the benchmark's
/// own samples (stats.h); TailQuantile says why each workload's tail is
/// the one it is. A window lasts --seconds, extended until every reported
/// percentile has ten samples beyond it. Failed requests (transport
/// errors, non-2xx including 503, wrong answers) are the result's
/// `failed` count and count as missing any latency limit.
///
/// The traced run (--trace 1) alternates traced and untraced requests in
/// one window: traced ones carry an X-Request-Id and ?stats=1, and their
/// client-side spans (connect / send / first byte / body / verify) are
/// kept in memory. After the window it times calls into each module's
/// public functions in-process on the same snapshot (engine, optimizer,
/// storage) and writes every span, with per-name self-times, to
/// <trace-dir>/trace-<workload>-<seed>.json. Nothing inside src/ is
/// instrumented for this; the program's own counters (ExecStats,
/// ?stats=1, /metrics) are read as counts. bench.trace_overhead_frac
/// compares the traced requests' req median with the untraced ones';
/// bench.client_cpu_frac is the client threads' CPU time over the
/// window's wall time per thread. src/hom and the width machinery are
/// reached only by the naive oracle, which runs untimed during set-up.

#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "http.h"
#include "json.h"
#include "process.h"
#include "stats.h"
#include "wdsparql/wdsparql.h"

namespace perfbench {
namespace {

using wdsparql::Cursor;
using wdsparql::Database;
using wdsparql::ExecOptions;
using wdsparql::ExecStats;
using wdsparql::Mapping;
using wdsparql::OpenOptions;
using wdsparql::Session;
using wdsparql::SessionOptions;
using wdsparql::Snapshot;
using wdsparql::Statement;
using wdsparql::TermId;
using wdsparql::WriteBatch;

// Dataset shape: average out-degree 2 per predicate, so the two-hop
// join yields ~100k rows and an anchored pattern a handful.
constexpr int kNodes = 25000;
constexpr int kPredicates = 4;
constexpr std::size_t kTriples = 200000;

constexpr int kSetupRepeats = 3;
constexpr int kOpenRepeats = 21;
constexpr int kPatternsPerTemplate = 20;
constexpr std::size_t kMaxPointRows = 50;
constexpr std::size_t kOracleSample = 8;
constexpr int kWriteTriples = 64;
constexpr int kWritesPerSecond = 100;
constexpr double kWindowCapS = 120;

const char* const kJoinPattern = "(?x p0 ?y) AND (?y p1 ?z)";

// Anchored AND/OPT/UNION templates; "@" is replaced by a node.
const char* const kPointTemplates[] = {
    "(@ p0 ?y) OPT (?y p1 ?z)",
    "((@ p0 ?y) AND (?y p1 ?z)) OPT (?z p2 ?w)",
    "((@ p0 ?y) OPT (?y p2 ?z)) UNION ((@ p1 ?y) OPT (?y p3 ?z))",
    "(?x p0 @) AND (?x p1 ?y)",
    "(@ p1 ?y) OPT ((?y p2 ?z) AND (?z p3 ?w))",
    "((@ p3 ?y) OPT (?y p0 ?z)) OPT (?y p1 ?w)",
};

enum class Workload { kServeJoin, kServePoint, kIngestMixed };

struct Args {
  Workload workload = Workload::kServeJoin;
  std::string workload_name;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string trace_dir;
  std::string commit = "unknown";
};

// ---------------------------------------------------------------------
// Spans

struct Span {
  std::string name;
  std::string request_id;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;
};

/// Spans kept in memory (main thread only) and written out at the end.
class Tracer {
 public:
  uint32_t Add(std::string name, std::string request_id, int64_t start_ns,
               int64_t end_ns, uint32_t parent) {
    uint32_t id = static_cast<uint32_t>(spans_.size() + 1);
    spans_.push_back({std::move(name), std::move(request_id), start_ns, end_ns, id, parent});
    return id;
  }
  /// Closes a span opened with end_ns = 0.
  void End(uint32_t id) { spans_[id - 1].end_ns = NowNs(); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Total self time per span name: a span's duration minus the part its
/// children cover (children never overlap here).
std::map<std::string, double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<int64_t> child_ns(spans.size() + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    self[s.name] += static_cast<double>(s.end_ns - s.start_ns - child_ns[s.id]) / 1e6;
  }
  return self;
}

// ---------------------------------------------------------------------
// Small helpers

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Progress on stderr, with seconds since the benchmark started.
void Phase(const char* what) {
  static const int64_t start = NowNs();
  std::fprintf(stderr, "perfbench: %7.2fs %s\n", static_cast<double>(NowNs() - start) / 1e9, what);
}

double Median(std::vector<double> v) { return Samples(std::move(v)).Quantile(0.5); }

uint64_t Fnv1a(const std::vector<std::string>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& row : rows) {
    for (char c : row) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    h = (h ^ '\n') * 1099511628211ull;
  }
  return h;
}

double ThreadCpuSeconds() {
  struct rusage usage {};
  ::getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

uint64_t FileSize(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

void CheckOk(const wdsparql::Status& status, const char* what) {
  if (!status.ok()) throw BenchError(std::string(what) + ": " + status.ToString());
}

Database OpenOrThrow(const std::string& path, const OpenOptions& options = {}) {
  wdsparql::Result<Database> opened = Database::Open(path, options);
  if (!opened.ok()) throw BenchError(path + ": " + opened.status().ToString());
  return std::move(opened).value();
}

/// Bytes of the snapshot's cardinality-statistics sections (ids 6-11),
/// read from the section directory as docs/FILE_FORMAT.md lays it out:
/// a 72-byte header whose u32 at offset 56 is the section count, then
/// 32-byte entries {u32 id, u32 pad, u64 offset, u64 length, ...}.
uint64_t StatsSectionBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char header[72];
  if (!in.read(header, sizeof(header)) || std::memcmp(header, "WDSQSNAP", 8) != 0) return 0;
  uint32_t sections = 0;
  std::memcpy(&sections, header + 56, sizeof(sections));
  uint64_t total = 0;
  for (uint32_t i = 0; i < sections && i < 64; ++i) {
    char entry[32];
    if (!in.read(entry, sizeof(entry))) break;
    uint32_t id = 0;
    uint64_t length = 0;
    std::memcpy(&id, entry, sizeof(id));
    std::memcpy(&length, entry + 16, sizeof(length));
    if (id >= 6 && id <= 11) total += length;
  }
  return total;
}

// ---------------------------------------------------------------------
// Inputs

std::string Node(uint64_t i) { return "n" + std::to_string(i); }

/// Writes the seeded uniform graph as N-Triples; returns its path.
std::string GenerateGraph(uint64_t seed, const std::string& dir) {
  std::mt19937_64 rng(seed);
  std::unordered_set<uint64_t> seen;
  seen.reserve(kTriples * 2);
  std::string path = dir + "/graph.nt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw BenchError("cannot write " + path);
  while (seen.size() < kTriples) {
    uint64_t s = rng() % kNodes, p = rng() % kPredicates, o = rng() % kNodes;
    if (!seen.insert((s * kPredicates + p) * kNodes + o).second) continue;
    std::fprintf(out, "n%llu p%llu n%llu .\n", static_cast<unsigned long long>(s),
                 static_cast<unsigned long long>(p), static_cast<unsigned long long>(o));
  }
  if (std::fclose(out) != 0) throw BenchError("cannot write " + path);
  return path;
}

/// Canonical rows of `solutions` over the statement's variables, sorted.
std::vector<std::string> CanonicalRows(const Database& db, const Statement& stmt,
                                       const std::vector<Mapping>& solutions) {
  std::vector<TermId> vars;
  for (const std::string& name : stmt.variables()) {
    vars.push_back(db.pool().FindVariable(name.substr(1)).value());
  }
  std::vector<std::string> rows;
  rows.reserve(solutions.size());
  for (const Mapping& mu : solutions) {
    std::string row;
    for (std::size_t i = 0; i < vars.size(); ++i) {
      if (i != 0) row += kCellSeparator;
      std::optional<TermId> value = mu.Get(vars[i]);
      row += value ? std::string(db.pool().Spelling(*value)) : std::string(kUnbound);
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct PointCase {
  std::string pattern;
  std::vector<std::string> rows;  // Sorted canonical answer set.
};

struct ProbeCase {
  std::string body;  // Pattern line, then one "?var value" line per binding.
  bool expected = false;
};

struct Expectations {
  std::size_t join_rows = 0;
  uint64_t join_digest = 0;
  std::vector<PointCase> points;
  std::vector<ProbeCase> probes;
};

/// The join's answer count and digest, from `Statement::Solutions()`.
void BuildJoinCase(const Database& db, Expectations* out) {
  Statement stmt = db.OpenSession().Prepare(kJoinPattern);
  std::vector<std::string> rows = CanonicalRows(db, stmt, stmt.Solutions());
  out->join_rows = rows.size();
  out->join_digest = Fnv1a(rows);
}

/// Seeded anchored patterns with 1..50 answers and their answer sets,
/// plus one member and one mutated /contains probe per pattern, decided
/// by the indexed engine on `snapshot`. A seeded sample is cross-checked
/// against the naive-hash oracle (untimed); returns false on mismatch.
bool BuildPointCases(const Database& db, const Snapshot& snapshot, uint64_t seed,
                     Expectations* out) {
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  const wdsparql::TermPool& pool = db.pool();
  Session session = db.OpenSession();
  std::vector<std::vector<Mapping>> probe_maps;  // Per kept pattern.
  for (const char* tmpl : kPointTemplates) {
    // Exactly kPatternsPerTemplate kept per template, so every seed
    // serves the same mix of pattern shapes.
    for (int kept_here = 0, tries = 0; kept_here < kPatternsPerTemplate; ++tries) {
      if (tries > 100 * kPatternsPerTemplate) throw BenchError(std::string("no anchors fit ") + tmpl);
      std::string pattern = tmpl;
      std::string anchor = Node(rng() % kNodes);
      for (std::size_t at; (at = pattern.find('@')) != std::string::npos;) {
        pattern.replace(at, 1, anchor);
      }
      Statement stmt = session.Prepare(pattern);
      if (!stmt.ok()) throw BenchError("pattern does not prepare: " + pattern);
      std::vector<Mapping> solutions = stmt.Solutions();
      if (solutions.empty() || solutions.size() > kMaxPointRows) continue;
      Mapping member = solutions[rng() % solutions.size()];
      Mapping mutated;
      for (const auto& [var, iri] : member.bindings()) {
        std::optional<TermId> other = pool.FindIri(Node(rng() % kNodes));
        mutated.Bind(var, mutated.empty() && other ? *other : iri);
      }
      ++kept_here;
      out->points.push_back({pattern, CanonicalRows(db, stmt, solutions)});
      probe_maps.push_back({member, mutated});
      for (const Mapping& mu : probe_maps.back()) {
        std::string body = pattern + "\n";
        for (const auto& [var, iri] : mu.bindings()) {
          body += "?" + std::string(pool.Spelling(var)) + " " +
                  std::string(pool.Spelling(iri)) + "\n";
        }
        out->probes.push_back({body, stmt.Contains(mu, snapshot)});
      }
    }
  }

  SessionOptions naive_options;
  naive_options.backend = wdsparql::Backend::kNaiveHash;
  Session naive = db.OpenSession(naive_options);
  for (std::size_t n = 0; n < kOracleSample; ++n) {
    std::size_t i = rng() % probe_maps.size();
    Statement oracle = naive.Prepare(out->points[i].pattern);
    if (CanonicalRows(db, oracle, oracle.Solutions()) != out->points[i].rows) return false;
    for (std::size_t p = 0; p < probe_maps[i].size(); ++p) {
      if (oracle.Contains(probe_maps[i][p]) != out->probes[2 * i + p].expected) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------
// Request windows

enum RequestClass { kReq = 0, kSide = 1 };

struct Record {
  int cls = kReq;
  bool traced = false;
  bool ok = false;
  bool is_query = false;  // A /query response (rows, chunks, stats).
  int status = 0;
  int64_t due_ns = 0;  // Open loop: when the request was due.
  int64_t start_ns = 0, connected_ns = 0, sent_ns = 0, first_byte_ns = 0, end_ns = 0;
  int64_t verified_ns = 0;
  uint64_t rows = 0, chunks = 0, wire_bytes = 0;
  double enumerate_ns = -1;  // From ?stats=1 on traced /query requests.
  std::string request_id;
};

Record FromHttp(const HttpResult& r, int cls, bool traced, const std::string& request_id) {
  Record rec;
  rec.cls = cls;
  rec.traced = traced;
  rec.status = r.status;
  rec.start_ns = r.start_ns;
  rec.due_ns = r.start_ns;
  rec.connected_ns = r.connected_ns ? r.connected_ns : r.start_ns;
  rec.sent_ns = r.sent_ns ? r.sent_ns : rec.connected_ns;
  rec.first_byte_ns = r.first_byte_ns ? r.first_byte_ns : rec.sent_ns;
  rec.end_ns = r.end_ns ? r.end_ns : NowNs();
  rec.chunks = r.chunks;
  rec.wire_bytes = r.wire_bytes;
  rec.request_id = request_id;
  return rec;
}

/// Decodes a /query response into sorted canonical rows; false unless it
/// is a 200 whose trailer says the enumeration ran to exhaustion with a
/// row count matching the rows streamed.
bool DecodeQuery(const HttpResult& r, Record* rec, std::vector<std::string>* rows) {
  rec->is_query = true;
  if (!r.transport_ok || r.status != 200) return false;
  QueryResponse q;
  if (!ParseQueryResponse(r.body, &q)) return false;
  const Json* status = q.trailer.Get("status");
  if (status == nullptr || status->string != "exhausted") return false;
  if (q.trailer.Number("row_count", -1) != static_cast<double>(q.rows.size())) return false;
  if (const Json* stats = q.trailer.Get("stats")) {
    if (const Json* phases = stats->Get("phases_ns")) rec->enumerate_ns = phases->Number("enumerate", -1);
  }
  rec->rows = q.rows.size();
  std::sort(q.rows.begin(), q.rows.end());
  *rows = std::move(q.rows);
  return true;
}

/// Shared state of one measurement window: client threads append their
/// records at the end; the controller watches the per-class counts.
struct Window {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> counts[2][2] = {};  // [class][traced]
  std::mutex mutex;
  std::vector<Record> records;
  double client_cpu_s = 0;
  std::string error;
  std::vector<std::string> acked_writes;  // /write bodies answered 200.

  void Count(const Record& rec) { counts[rec.cls][rec.traced ? 1 : 0].fetch_add(1); }

  /// Runs `body` as a client thread: its records, CPU time and any
  /// failure are merged under the lock when it returns.
  std::thread Client(std::function<void(std::vector<Record>*)> body) {
    return std::thread([this, body = std::move(body)] {
      double cpu0 = ThreadCpuSeconds();
      std::vector<Record> local;
      std::string failure;
      try {
        body(&local);
      } catch (const std::exception& e) {
        failure = e.what();
        done = true;
      }
      double cpu = ThreadCpuSeconds() - cpu0;
      std::lock_guard<std::mutex> lock(mutex);
      records.insert(records.end(), local.begin(), local.end());
      client_cpu_s += cpu;
      if (!failure.empty()) error = failure;
    });
  }
};

std::string RequestId(uint64_t seed, const char* cls, uint64_t k) {
  return "pb" + std::to_string(seed) + "-" + cls + "-" + std::to_string(k);
}

struct WindowPlan {
  double seconds = 10;
  /// Fewest records per [class][traced] cell before the window may end.
  uint64_t min_count[2][2] = {};
};

/// Runs the client threads until the plan is met (or the cap), then joins
/// them. Returns the window's wall seconds.
double RunWindow(Window& window, const WindowPlan& plan,
                 std::vector<std::function<void(std::vector<Record>*)>> clients) {
  int64_t start = NowNs();
  std::vector<std::thread> threads;
  for (auto& client : clients) threads.push_back(window.Client(std::move(client)));
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    bool enough = true;
    for (int c = 0; c < 2; ++c) {
      for (int t = 0; t < 2; ++t) enough = enough && window.counts[c][t] >= plan.min_count[c][t];
    }
    if ((elapsed >= plan.seconds && enough) || elapsed >= kWindowCapS || window.done) break;
  }
  window.done = true;
  for (std::thread& t : threads) t.join();
  if (!window.error.empty()) throw BenchError("client failed: " + window.error);
  return static_cast<double>(NowNs() - start) / 1e9;
}

/// The join client: one closed loop streaming the two-hop join.
std::function<void(std::vector<Record>*)> JoinClient(Window& w, uint16_t port,
                                                     const Expectations& exp,
                                                     const Args& args) {
  return [&w, port, &exp, &args](std::vector<Record>* out) {
    for (uint64_t k = 0; !w.done; ++k) {
      bool traced = args.trace && k % 2 == 1;
      std::string rid = traced ? RequestId(args.seed, "join", k) : "";
      HttpResult r = HttpCall(port, "POST", traced ? "/query?stats=1" : "/query",
                              kJoinPattern, rid);
      Record rec = FromHttp(r, kReq, traced, rid);
      std::vector<std::string> rows;
      rec.ok = DecodeQuery(r, &rec, &rows) && rows.size() == exp.join_rows &&
               Fnv1a(rows) == exp.join_digest;
      rec.verified_ns = NowNs();
      w.Count(rec);
      out->push_back(std::move(rec));
    }
  };
}

/// One closed loop of anchored /query patterns, checked against their
/// precomputed answer sets; with `probes`, alternating with /contains.
/// Client 1 starts half-way through the rotation of client 0.
std::function<void(std::vector<Record>*)> PointClient(Window& w, uint16_t port,
                                                      const Expectations& exp,
                                                      const Args& args, int query_cls,
                                                      bool probes, int client) {
  return [&w, port, &exp, &args, query_cls, probes, client](std::vector<Record>* out) {
    for (uint64_t k = 0; !w.done; ++k) {
      bool probe = probes && k % 2 == 1;
      uint64_t turn = probes ? k / 2 : k;
      bool traced = args.trace && turn % 2 == 1;
      std::string rid = traced ? RequestId(args.seed, probe ? "contains" : "point", k) : "";
      Record rec;
      if (probe) {
        const std::size_t n = exp.probes.size();
        const ProbeCase& c = exp.probes[(client * n / 2 + turn) % n];
        HttpResult r = HttpCall(port, "POST", "/contains", c.body, rid);
        rec = FromHttp(r, kSide, traced, rid);
        Json answer;
        const Json* contains = nullptr;
        rec.ok = r.transport_ok && r.status == 200 && ParseJson(r.body, &answer) &&
                 (contains = answer.Get("contains")) != nullptr &&
                 contains->kind == Json::Kind::kBool && contains->boolean == c.expected;
      } else {
        const std::size_t n = exp.points.size();
        const PointCase& c = exp.points[(client * n / 2 + turn) % n];
        HttpResult r = HttpCall(port, "POST", traced ? "/query?stats=1" : "/query",
                                c.pattern, rid);
        rec = FromHttp(r, query_cls, traced, rid);
        std::vector<std::string> rows;
        rec.ok = DecodeQuery(r, &rec, &rows) && rows == c.rows;
      }
      rec.verified_ns = NowNs();
      w.Count(rec);
      out->push_back(std::move(rec));
    }
  };
}

/// The open-loop writer: a 64-triple /write batch due every 10 ms, each
/// timed from when it was due. Every triple is new (fresh object IRIs on
/// predicate p4, which no read pattern mentions), so reads keep their
/// precomputed answers and every batch must report added == 64.
std::function<void(std::vector<Record>*)> WriteClient(Window& w, uint16_t port,
                                                      const Args& args) {
  return [&w, port, &args](std::vector<Record>* out) {
    std::mt19937_64 rng(args.seed * 0x2545f4914f6cdd1dull + 1);
    const int64_t interval_ns = 1'000'000'000 / kWritesPerSecond;
    const int64_t start = NowNs();
    std::vector<std::string> acked;
    for (uint64_t k = 0; !w.done; ++k) {
      int64_t due = start + static_cast<int64_t>(k) * interval_ns;
      int64_t wait = due - NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      if (w.done) break;
      std::string body;
      for (int i = 0; i < kWriteTriples; ++i) {
        body += Node(rng() % kNodes) + " p4 m" + std::to_string(args.seed) + "_" +
                std::to_string(k) + "_" + std::to_string(i) + " .\n";
      }
      bool traced = args.trace && k % 2 == 1;
      std::string rid = traced ? RequestId(args.seed, "write", k) : "";
      HttpResult r = HttpCall(port, "POST", "/write", body, rid);
      Record rec = FromHttp(r, kReq, traced, rid);
      rec.due_ns = due;
      Json answer;
      rec.ok = r.transport_ok && r.status == 200 && ParseJson(r.body, &answer) &&
               answer.Number("added", -1) == kWriteTriples;
      if (rec.ok) acked.push_back(std::move(body));
      rec.verified_ns = NowNs();
      w.Count(rec);
      out->push_back(std::move(rec));
    }
    std::lock_guard<std::mutex> lock(w.mutex);
    w.acked_writes = std::move(acked);
  };
}

/// Acknowledged /write batches with a triple missing after the drain:
/// reopens the checkpointed snapshot (replaying any WAL tail) and looks
/// every acknowledged triple up.
std::size_t MissingAckedWrites(const std::string& snapshot,
                               const std::vector<std::string>& acked) {
  OpenOptions options;
  options.durability = wdsparql::Durability::kWal;
  Database db = OpenOrThrow(snapshot, options);
  Snapshot view = db.GetSnapshot();
  const wdsparql::TermPool& pool = db.pool();
  std::size_t missing = 0;
  for (const std::string& body : acked) {
    WriteBatch batch;
    CheckOk(batch.LoadNTriples(body), "acknowledged /write body");
    bool all = true;
    for (const WriteBatch::Op& op : batch.ops()) {
      auto s = pool.FindIri(op.subject), p = pool.FindIri(op.predicate), o = pool.FindIri(op.object);
      all = all && s && p && o && view.Contains(wdsparql::Triple(*s, *p, *o));
    }
    if (!all) ++missing;
  }
  return missing;
}

// ---------------------------------------------------------------------
// In-process layer timings (traced run only)

using Metrics = std::map<std::string, double>;

/// Times the engine's public calls on the pinned snapshot, over the
/// workload's own query set: Prepare; Execute + Cursor::Open; the Next
/// drain; Cursor::Value (one clock-read pair per row included); a drain
/// at the degree the server picks for a lone request; and one drain with
/// ExecStats for the engine's and optimizer's own counts.
void EngineLayer(const Database& db, const Snapshot& snapshot,
                 const std::vector<std::string>& patterns, int repeats, Tracer& tracer,
                 Metrics* m) {
  // The server's automatic degree for a request with nothing else in
  // flight: hardware_concurrency() clamped to max_parallelism (8).
  uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  uint32_t degree = std::min(hw, 8u);
  Session session = db.OpenSession();
  std::vector<double> prepare_us, open_us, plan_us, qerror;
  double next_ns = 0, value_ns = 0, serial_ns = 0, parallel_ns = 0;
  uint64_t serial_rows = 0, value_calls = 0, parallel_rows = 0;
  uint64_t rows = 0, decodes = 0, scanned = 0, candidates = 0, max_tests = 0;
  std::size_t sink = 0;
  uint32_t root = tracer.Add("inproc.engine", "", NowNs(), 0, 0);
  for (int rep = 0; rep < repeats; ++rep) {
    for (const std::string& pattern : patterns) {
      int64_t t0 = NowNs();
      Statement stmt = session.Prepare(pattern);
      int64_t t1 = NowNs();
      tracer.Add("engine.prepare", "", t0, t1, root);
      prepare_us.push_back(static_cast<double>(t1 - t0) / 1e3);

      t0 = NowNs();
      Cursor serial = stmt.Execute(snapshot, ExecOptions{});
      serial.Open();
      t1 = NowNs();
      uint64_t n = 0;
      while (serial.Next()) ++n;
      int64_t t2 = NowNs();
      tracer.Add("engine.open", "", t0, t1, root);
      tracer.Add("engine.next", "", t1, t2, root);
      open_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      next_ns += static_cast<double>(t2 - t1);
      serial_ns += static_cast<double>(t2 - t0);
      serial_rows += n;

      t0 = NowNs();
      Cursor values = stmt.Execute(snapshot, ExecOptions{});
      while (values.Next()) {
        int64_t a = NowNs();
        for (std::size_t col = 0; col < values.width(); ++col) sink += values.Value(col).size();
        value_ns += static_cast<double>(NowNs() - a);
        value_calls += values.width();
      }
      tracer.Add("engine.value_drain", "", t0, NowNs(), root);

      ExecOptions parallel;
      parallel.parallelism = degree;
      t0 = NowNs();
      Cursor fanned = stmt.Execute(snapshot, parallel);
      n = 0;
      while (fanned.Next()) ++n;
      t1 = NowNs();
      tracer.Add("engine.parallel_drain", "", t0, t1, root);
      parallel_ns += static_cast<double>(t1 - t0);
      parallel_rows += n;

      ExecOptions with_stats;
      with_stats.collect_stats = true;
      t0 = NowNs();
      Cursor counted = stmt.Execute(snapshot, with_stats);
      while (counted.Next()) {
        for (std::size_t col = 0; col < counted.width(); ++col) sink += counted.Value(col).size();
      }
      tracer.Add("engine.stats_drain", "", t0, NowNs(), root);
      const ExecStats* stats = counted.stats();
      if (stats == nullptr) throw BenchError("collect_stats produced no ExecStats");
      rows += stats->rows_emitted;
      decodes += stats->dict_decodes;
      scanned += stats->base_triples_scanned + stats->delta_triples_scanned;
      candidates += stats->candidates;
      max_tests += stats->maximality_tests;
      plan_us.push_back(static_cast<double>(stats->optimize_ns) / 1e3);
      // q-error of each planned subtree's estimate against the
      // candidates it actually produced (+1 smoothing for empty ones).
      for (const ExecStats::Subpattern& sub : stats->subpatterns) {
        if (sub.est_rows < 0) continue;
        double ratio = (sub.est_rows + 1) / (static_cast<double>(sub.candidates) + 1);
        qerror.push_back(std::max(ratio, 1 / ratio));
      }
    }
  }
  tracer.End(root);
  if (sink == 0 && rows != 0) throw BenchError("Cursor::Value returned nothing");
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  (*m)["engine.prepare_us"] = Median(prepare_us);
  (*m)["engine.open_us"] = Median(open_us);
  (*m)["engine.next_ns_per_row"] = per(next_ns, static_cast<double>(serial_rows));
  (*m)["engine.value_ns"] = per(value_ns, static_cast<double>(value_calls));
  (*m)["engine.serial_rows_per_s"] = per(static_cast<double>(serial_rows), serial_ns / 1e9);
  (*m)["engine.default_parallel_rows_per_s"] =
      per(static_cast<double>(parallel_rows), parallel_ns / 1e9);
  (*m)["engine.dict_decodes_per_row"] = per(static_cast<double>(decodes), static_cast<double>(rows));
  (*m)["engine.triples_scanned_per_row"] =
      per(static_cast<double>(scanned), static_cast<double>(rows));
  (*m)["engine.rows_per_candidate"] = per(static_cast<double>(rows), static_cast<double>(candidates));
  (*m)["engine.maximality_tests_per_row"] =
      per(static_cast<double>(max_tests), static_cast<double>(rows));
  (*m)["optimizer.plan_us"] = Median(plan_us);
  (*m)["optimizer.est_rows_qerror"] = Median(qerror);
}

/// `count` fresh triples (new objects on predicate p4) as a batch and as
/// the N-Triples text a client would send for it.
WriteBatch FreshBatch(uint64_t* next, int count, std::string* text = nullptr) {
  WriteBatch batch;
  for (int i = 0; i < count; ++i, ++*next) {
    std::string s = Node(*next % kNodes), o = "f" + std::to_string(*next);
    batch.Add(s, "p4", o);
    if (text != nullptr) *text += s + " p4 " + o + " .\n";
  }
  return batch;
}

/// Times the storage layer's public calls on the workload's own inputs:
/// N-Triples parsing alone, the streaming loader's batch commits (from
/// its LoadProgress callback), Save, an explicit Compact of a full
/// delta, 64-triple Apply commits, WAL bytes per user byte, the
/// statistics sections' share of the file, and Open without checksums.
void StorageLayer(const std::string& nt, const std::string& snapshot,
                  const std::string& dir, Tracer& tracer, Metrics* m) {
  uint32_t root = tracer.Add("inproc.storage", "", NowNs(), 0, 0);
  std::vector<double> parse_s;
  for (int i = 0; i < 3; ++i) {
    int64_t t0 = NowNs();
    WriteBatch batch;
    CheckOk(batch.LoadNTriplesFile(nt), "WriteBatch::LoadNTriplesFile");
    int64_t t1 = NowNs();
    tracer.Add("storage.parse", "", t0, t1, root);
    parse_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  (*m)["storage.parse_mb_per_s"] = static_cast<double>(FileSize(nt)) / 1e6 / Median(parse_s);

  {
    Database loaded;
    std::vector<double> commit_ms;
    int64_t last = NowNs();
    uint32_t load_span = tracer.Add("storage.load", "", last, 0, root);
    CheckOk(loaded.LoadNTriplesFile(nt, 4096,
                                    [&](std::size_t, std::size_t) {
                                      int64_t now = NowNs();
                                      tracer.Add("storage.batch_commit", "", last, now, load_span);
                                      commit_ms.push_back(static_cast<double>(now - last) / 1e6);
                                      last = now;
                                    }),
            "Database::LoadNTriplesFile");
    tracer.End(load_span);
    Samples commits(commit_ms);
    (*m)["storage.batch_commit_p50_ms"] = commits.Quantile(0.50);
    (*m)["storage.batch_commit_p75_ms"] = commits.Quantile(0.75);
    loaded.Compact();
    std::vector<double> save_ms;
    for (int i = 0; i < 3; ++i) {
      int64_t t0 = NowNs();
      CheckOk(loaded.Save(dir + "/saved.snap"), "Database::Save");
      int64_t t1 = NowNs();
      tracer.Add("storage.save", "", t0, t1, root);
      save_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    (*m)["storage.save_ms"] = Median(save_ms);
  }

  uint64_t fresh = 0;
  {
    OpenOptions manual;
    manual.merge_threshold = 0;  // Only the explicit Compact merges.
    Database db = OpenOrThrow(snapshot, manual);
    std::vector<double> merge_ms;
    for (int i = 0; i < 5; ++i) {
      CheckOk(db.Apply(FreshBatch(&fresh, 4096)), "Database::Apply");
      int64_t t0 = NowNs();
      db.Compact();
      int64_t t1 = NowNs();
      tracer.Add("storage.merge", "", t0, t1, root);
      merge_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    (*m)["storage.merge_ms"] = Median(merge_ms);
  }
  {
    Database db = OpenOrThrow(snapshot);
    std::vector<double> commit_us;
    for (int i = 0; i < 320; ++i) {
      WriteBatch batch = FreshBatch(&fresh, kWriteTriples);
      int64_t t0 = NowNs();
      CheckOk(db.Apply(std::move(batch)), "Database::Apply");
      int64_t t1 = NowNs();
      tracer.Add("storage.commit", "", t0, t1, root);
      commit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    (*m)["storage.commit_us"] = Median(commit_us);
  }
  {
    OpenOptions logged;
    logged.durability = wdsparql::Durability::kWal;
    Database db = OpenOrThrow(snapshot, logged);
    double wal_bytes = 0, user_bytes = 0;
    for (int i = 0; i < 64; ++i) {
      std::string text;
      WriteBatch batch = FreshBatch(&fresh, kWriteTriples, &text);
      wdsparql::ApplyResult result;
      int64_t t0 = NowNs();
      CheckOk(db.Apply(std::move(batch), &result), "Database::Apply (WAL)");
      tracer.Add("storage.wal_commit", "", t0, NowNs(), root);
      wal_bytes += static_cast<double>(result.wal_bytes);
      user_bytes += static_cast<double>(text.size());
    }
    (*m)["storage.wal_bytes_per_user_byte"] = wal_bytes / user_bytes;
  }
  (*m)["storage.stats_bytes_frac"] =
      static_cast<double>(StatsSectionBytes(snapshot)) / static_cast<double>(FileSize(snapshot));
  OpenOptions trusting;
  trusting.verify_checksums = false;
  std::vector<double> open_ms;
  for (int i = 0; i < kOpenRepeats; ++i) {
    int64_t t0 = NowNs();
    Database db = OpenOrThrow(snapshot, trusting);
    int64_t t1 = NowNs();
    tracer.Add("storage.open_noverify", "", t0, t1, root);
    open_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  (*m)["storage.open_noverify_ms"] = Median(open_ms);
  tracer.End(root);
}

// ---------------------------------------------------------------------
// Reporting

/// A failed request counts as missing any latency limit: it enters the
/// latency samples as the whole window cap.
constexpr double kMissedMs = kWindowCapS * 1e3;

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Latency samples (ms) of the records `pick` selects, measured by `span`.
Samples Latencies(const std::vector<Record>& records,
                  const std::function<bool(const Record&)>& pick,
                  const std::function<int64_t(const Record&)>& span) {
  std::vector<double> ms;
  for (const Record& r : records) {
    if (pick(r)) ms.push_back(r.ok ? Ms(span(r)) : kMissedMs);
  }
  return Samples(std::move(ms));
}

/// The fixed tail percentile per workload. ~30 joins a run support only
/// the median. serve_point reports p90: its p99 is set by scheduling
/// collisions between the two clients' parallel workers and spread 0.19
/// across seeds on a 4-core machine, too close to the 0.25 bound.
/// ingest_mixed keeps p99, the percentile that sees the merges (one
/// write in 64 crosses the merge threshold).
double TailQuantile(Workload w) {
  switch (w) {
    case Workload::kServeJoin: return 0.50;
    case Workload::kServePoint: return 0.90;
    case Workload::kIngestMixed: return 0.99;
  }
  return 0.99;
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> notes;
};

std::string ContextJson(const Args& args, const Metrics& shape) {
  cpu_set_t set;
  CPU_ZERO(&set);
  int affinity = ::sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::string out = "{\"context\":{";
  out += "\"workload\":" + JsonString(args.workload_name);
  out += ",\"seed\":" + std::to_string(args.seed);
  out += ",\"seconds\":" + std::to_string(args.seconds);
  out += ",\"trace\":" + std::string(args.trace ? "true" : "false");
  out += ",\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"affinity_cpus\":" + std::to_string(affinity);
  out += ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE);
  out += ",\"compiler\":" + JsonString(std::string("gcc ") + __VERSION__);
  out += ",\"commit\":" + JsonString(args.commit);
  out += ",\"dataset\":{\"triples\":" + std::to_string(kTriples) +
         ",\"nodes\":" + std::to_string(kNodes) +
         ",\"predicates\":" + std::to_string(kPredicates) + "}";
  out += ",\"wal_sync\":\"kNone (wdsparql_serve default)\"";
  for (const auto& [key, value] : shape) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    out += "," + JsonString(key) + ":" + buf;
  }
  return out + "}}";
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"snapshot_bytes_per_triple", "B"},
    {"peak_rss_mb", "MB"}, {"req_p50_ms", "ms"},
    {"req_tail_ms", "ms"}, {"req_per_s", "1/s"},
    {"side_p50_ms", "ms"}, {"side_tail_ms", "ms"},
};

const MetricSpec kPerLayer[] = {
    {"server.connect_us", "us"},
    {"server.ttfb_ms", "ms"},
    {"server.body_ms", "ms"},
    {"server.chunks_per_response", "count"},
    {"server.bytes_per_row", "B/row"},
    {"server.outside_engine_frac", "ratio"},
    {"server.shed_503", "count"},
    {"engine.prepare_us", "us"},
    {"engine.open_us", "us"},
    {"engine.next_ns_per_row", "ns"},
    {"engine.value_ns", "ns"},
    {"engine.serial_rows_per_s", "1/s"},
    {"engine.default_parallel_rows_per_s", "1/s"},
    {"engine.dict_decodes_per_row", "count/row"},
    {"engine.triples_scanned_per_row", "count/row"},
    {"engine.rows_per_candidate", "ratio"},
    {"engine.maximality_tests_per_row", "count/row"},
    {"optimizer.plan_us", "us"},
    {"optimizer.est_rows_qerror", "ratio"},
    {"storage.load_triples_per_s", "1/s"},
    {"storage.open_ms", "ms"},
    {"storage.parse_mb_per_s", "MB/s"},
    {"storage.batch_commit_p50_ms", "ms"},
    {"storage.batch_commit_p75_ms", "ms"},
    {"storage.save_ms", "ms"},
    {"storage.merge_ms", "ms"},
    {"storage.merges", "count"},
    {"storage.commit_us", "us"},
    {"storage.wal_bytes_per_user_byte", "ratio"},
    {"storage.stats_bytes_frac", "ratio"},
    {"storage.open_noverify_ms", "ms"},
    {"bench.client_cpu_frac", "ratio"},
    {"bench.gen_late_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.error_rate", "ratio"},
};

std::string ResultJson(const Outcome& outcome, const Metrics& metrics, bool trace) {
  std::string out = "{\"correct\":" + std::string(outcome.correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(outcome.attempted);
  out += ",\"failed\":" + std::to_string(outcome.failed);
  out += ",\"metrics\":{";
  bool first = true;
  auto emit = [&](const MetricSpec& spec) {
    auto it = metrics.find(spec.name);
    if (it == metrics.end()) throw BenchError(std::string("metric not measured: ") + spec.name);
    if (!first) out += ",";
    first = false;
    out += JsonString(spec.name) + ":{\"value\":" + Num(it->second) +
           ",\"unit\":" + JsonString(spec.unit) + "}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  return out + "}}";
}

void WriteTrace(const Args& args, const Tracer& tracer, const Metrics& metrics) {
  ::mkdir(args.trace_dir.c_str(), 0755);
  std::string path = args.trace_dir + "/trace-" + args.workload_name + "-" +
                     std::to_string(args.seed) + ".json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw BenchError("cannot write " + path);
  std::fprintf(out, "{\"self_ms\":{");
  bool first = true;
  for (const auto& [name, ms] : SelfTimesMs(tracer.spans())) {
    std::fprintf(out, "%s%s:%s", first ? "" : ",", JsonString(name).c_str(), Num(ms).c_str());
    first = false;
  }
  std::fprintf(out, "},\"metrics\":{");
  first = true;
  for (const auto& [name, value] : metrics) {
    std::fprintf(out, "%s%s:%s", first ? "" : ",", JsonString(name).c_str(), Num(value).c_str());
    first = false;
  }
  std::fprintf(out, "},\"spans\":[\n");
  first = true;
  for (const Span& s : tracer.spans()) {
    std::fprintf(out, "%s{\"id\":%u,\"parent\":%u,\"name\":%s,\"request_id\":%s,"
                      "\"start_ns\":%lld,\"end_ns\":%lld}",
                 first ? "" : ",\n", s.id, s.parent, JsonString(s.name).c_str(),
                 JsonString(s.request_id).c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  std::fclose(out);
  std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
}

/// Client-side spans of every traced request, from its timestamps.
void RecordRequestSpans(const std::vector<Record>& records, Tracer& tracer) {
  for (const Record& r : records) {
    if (!r.traced) continue;
    uint32_t root = tracer.Add(r.is_query ? "request.query" : r.cls == kReq ? "request.req" : "request.side",
                               r.request_id, r.due_ns, r.verified_ns, 0);
    if (r.start_ns > r.due_ns) tracer.Add("client.late", r.request_id, r.due_ns, r.start_ns, root);
    tracer.Add("client.connect", r.request_id, r.start_ns, r.connected_ns, root);
    tracer.Add("client.send", r.request_id, r.connected_ns, r.sent_ns, root);
    tracer.Add("server.first_byte", r.request_id, r.sent_ns, r.first_byte_ns, root);
    tracer.Add("server.body", r.request_id, r.first_byte_ns, r.end_ns, root);
    tracer.Add("client.verify", r.request_id, r.end_ns, r.verified_ns, root);
  }
}

/// `store.compactions` from the server's /metrics.
double ServerCompactions(uint16_t port) {
  HttpResult r = HttpCall(port, "GET", "/metrics", "");
  Json metrics;
  if (r.status != 200 || !ParseJson(r.body, &metrics)) throw BenchError("/metrics unreadable");
  const Json* c = metrics.Get("store.compactions");
  return c == nullptr ? 0 : c->Number("value");
}

// ---------------------------------------------------------------------
// The run

Args ParseArgs(int argc, char** argv) {
  Args args;
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) throw BenchError("flags come in --name value pairs");
  auto need = [&](const char* name) {
    auto it = flags.find(name);
    if (it == flags.end()) throw BenchError(std::string("missing ") + name);
    return it->second;
  };
  args.workload_name = need("--workload");
  if (args.workload_name == "serve_join") {
    args.workload = Workload::kServeJoin;
  } else if (args.workload_name == "serve_point") {
    args.workload = Workload::kServePoint;
  } else if (args.workload_name == "ingest_mixed") {
    args.workload = Workload::kIngestMixed;
  } else {
    throw BenchError("unknown workload " + args.workload_name);
  }
  args.seed = std::stoull(need("--seed"));
  args.seconds = std::stoi(need("--seconds"));
  if (args.seconds < 1) throw BenchError("--seconds must be >= 1");
  std::string trace = need("--trace");
  if (trace != "0" && trace != "1") throw BenchError("--trace is 0 or 1");
  args.trace = trace == "1";
  args.bin_dir = need("--bin-dir");
  args.work_dir = need("--work-dir");
  args.trace_dir = need("--trace-dir");
  if (flags.count("--commit")) args.commit = flags["--commit"];
  return args;
}

int Run(const Args& args) {
  const Workload workload = args.workload;
  const bool wal = workload == Workload::kIngestMixed;
  Tracer tracer;
  Metrics metrics;
  Metrics shape;  // Sample counts and other facts for the context line.
  Outcome outcome;

  Phase("generating the graph");
  std::string nt = GenerateGraph(args.seed, args.work_dir);
  Phase("set-up: load and serve, three times");

  // Set-up, three times: bulk load, then serve until healthy.
  std::vector<double> setup_s, load_triples_per_s;
  std::string first_snapshot, served;
  std::unique_ptr<ServerProcess> server;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (server != nullptr && server->Stop() != 0) throw BenchError("set-up server drain failed");
    server.reset();
    served = args.work_dir + "/db" + std::to_string(k) + ".snap";
    int64_t t0 = NowNs();
    double load_s = RunLoader(args.bin_dir, nt, served,
                              args.work_dir + "/load" + std::to_string(k) + ".log");
    if (k == 0) {
      first_snapshot = served;
      metrics["snapshot_bytes_per_triple"] =
          static_cast<double>(FileSize(served)) / static_cast<double>(kTriples);
    }
    server = std::make_unique<ServerProcess>(args.bin_dir, served, wal,
                                             args.work_dir + "/serve" + std::to_string(k) + ".log");
    server->WaitReady();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    load_triples_per_s.push_back(static_cast<double>(kTriples) / load_s);
  }
  metrics["setup_s"] = Median(setup_s);
  metrics["storage.load_triples_per_s"] = Median(load_triples_per_s);
  const uint16_t port = server->port();

  // In-process: open the served snapshot (timed repeatedly when
  // tracing) and pin it for the expected answers and layer timings.
  Phase("in-process opens and expected answers");
  Database db;
  std::vector<double> open_ms;
  for (int i = 0; i < (args.trace ? kOpenRepeats : 1); ++i) {
    int64_t t0 = NowNs();
    db = OpenOrThrow(served);
    open_ms.push_back(Ms(NowNs() - t0));
  }
  metrics["storage.open_ms"] = Median(open_ms);
  Snapshot snapshot = db.GetSnapshot();
  Expectations exp;
  if (workload == Workload::kServeJoin) {
    BuildJoinCase(db, &exp);
    shape["join_rows"] = static_cast<double>(exp.join_rows);
  } else if (!BuildPointCases(db, snapshot, args.seed, &exp)) {
    outcome.correct = false;
    outcome.notes.push_back("indexed engine disagrees with the naive-hash oracle");
  }
  shape["point_patterns"] = static_cast<double>(exp.points.size());

  // The measurement window.
  Window window;
  WindowPlan plan;
  plan.seconds = args.seconds;
  std::vector<std::function<void(std::vector<Record>*)>> clients;
  const uint64_t tail_need = MinSamplesFor(TailQuantile(workload));
  const uint64_t median_need = MinSamplesFor(0.5);
  for (int c = 0; c < 2; ++c) {
    bool used = workload != Workload::kServeJoin || c == kReq;
    plan.min_count[c][0] = used ? (args.trace ? median_need : tail_need) : 0;
    plan.min_count[c][1] = used && args.trace ? median_need : 0;
  }
  switch (workload) {
    case Workload::kServeJoin:
      clients.push_back(JoinClient(window, port, exp, args));
      break;
    case Workload::kServePoint:
      clients.push_back(PointClient(window, port, exp, args, kReq, true, 0));
      clients.push_back(PointClient(window, port, exp, args, kReq, true, 1));
      break;
    case Workload::kIngestMixed:
      clients.push_back(WriteClient(window, port, args));
      clients.push_back(PointClient(window, port, exp, args, kSide, false, 0));
      break;
  }
  Phase("measurement window");
  double compactions_before = args.trace ? ServerCompactions(port) : 0;
  double wall_s = RunWindow(window, plan, std::move(clients));
  double compactions_after = args.trace ? ServerCompactions(port) : 0;
  Phase("drain");
  int drain = server->Stop();
  server.reset();
  if (drain != 0) {
    outcome.correct = false;
    outcome.notes.push_back("wdsparql_serve drain exited " + std::to_string(drain));
  }
  std::size_t missing = 0;
  if (workload == Workload::kIngestMixed) {
    missing = MissingAckedWrites(served, window.acked_writes);
    if (missing != 0) {
      outcome.correct = false;
      outcome.notes.push_back(std::to_string(missing) + " acknowledged write(s) lost");
    }
  }

  const std::vector<Record>& records = window.records;
  std::size_t wrong = 0, shed = 0;
  for (const Record& r : records) {
    ++outcome.attempted;
    if (!r.ok) ++outcome.failed;
    if (!r.ok && r.status == 200) ++wrong;
    if (r.status == 503) ++shed;
  }
  outcome.failed += missing;
  if (wrong != 0) {
    outcome.correct = false;
    outcome.notes.push_back(std::to_string(wrong) + " wrong answer(s)");
  }

  // End-to-end figures over the untraced requests.
  const double tail_q = TailQuantile(workload);
  auto untraced = [](int cls) { return [cls](const Record& r) { return r.cls == cls && !r.traced; }; };
  auto due_to_end = [](const Record& r) { return r.end_ns - r.due_ns; };
  auto to_first_byte = [](const Record& r) { return r.first_byte_ns - r.start_ns; };
  Samples req = Latencies(records, untraced(kReq), due_to_end);
  Samples side = workload == Workload::kServeJoin
                     ? Latencies(records, untraced(kReq), to_first_byte)
                     : Latencies(records, untraced(kSide), due_to_end);
  metrics["req_p50_ms"] = req.Quantile(0.5);
  metrics["req_tail_ms"] = req.Quantile(tail_q);
  metrics["side_p50_ms"] = side.Quantile(0.5);
  metrics["side_tail_ms"] = side.Quantile(tail_q);
  if (workload == Workload::kServeJoin) {
    std::vector<double> rows_per_s;
    for (const Record& r : records) {
      if (r.ok && !r.traced) {
        rows_per_s.push_back(static_cast<double>(r.rows) / (static_cast<double>(r.end_ns - r.start_ns) / 1e9));
      }
    }
    metrics["req_per_s"] = Median(rows_per_s);
  } else if (workload == Workload::kServePoint) {
    std::size_t done = 0;
    for (const Record& r : records) done += r.cls == kReq && r.ok ? 1 : 0;
    metrics["req_per_s"] = static_cast<double>(done) / wall_s;
  } else {
    metrics["req_per_s"] =
        static_cast<double>(window.acked_writes.size() * kWriteTriples) / wall_s;
  }
  metrics["peak_rss_mb"] = static_cast<double>(PeakChildRssKb()) / 1024.0;
  shape["window_s"] = wall_s;
  shape["req_samples"] = static_cast<double>(req.size());
  shape["side_samples"] = static_cast<double>(side.size());
  shape["tail_quantile"] = tail_q;
  for (double q : {0.9, 0.95, 0.99}) {
    shape["req_p" + std::to_string(static_cast<int>(q * 100)) + "_ms"] = req.Quantile(q);
    shape["side_p" + std::to_string(static_cast<int>(q * 100)) + "_ms"] = side.Quantile(q);
  }
  shape["tail_supported"] = Supported(req.size(), tail_q) && Supported(side.size(), tail_q);

  if (args.trace) {
    RecordRequestSpans(records, tracer);
    std::vector<double> connect_us, ttfb_ms, body_ms, chunks, late_ms;
    double wire = 0, rows = 0, enumerate = 0, query_wall = 0;
    for (const Record& r : records) {
      if (r.cls == kReq && r.due_ns != r.start_ns) late_ms.push_back(Ms(r.start_ns - r.due_ns));
      if (!r.traced || !r.ok) continue;
      connect_us.push_back(static_cast<double>(r.connected_ns - r.start_ns) / 1e3);
      ttfb_ms.push_back(Ms(r.first_byte_ns - r.sent_ns));
      if (!r.is_query) continue;
      body_ms.push_back(Ms(r.end_ns - r.first_byte_ns));
      chunks.push_back(static_cast<double>(r.chunks));
      wire += static_cast<double>(r.wire_bytes);
      rows += static_cast<double>(r.rows);
      if (r.enumerate_ns >= 0) {
        enumerate += r.enumerate_ns;
        query_wall += static_cast<double>(r.end_ns - r.start_ns);
      }
    }
    metrics["server.connect_us"] = Median(connect_us);
    metrics["server.ttfb_ms"] = Median(ttfb_ms);
    metrics["server.body_ms"] = Median(body_ms);
    metrics["server.chunks_per_response"] = Median(chunks);
    metrics["server.bytes_per_row"] = rows > 0 ? wire / rows : 0;
    metrics["server.outside_engine_frac"] = query_wall > 0 ? 1.0 - enumerate / query_wall : 0;
    metrics["server.shed_503"] = static_cast<double>(shed);
    metrics["storage.merges"] = compactions_after - compactions_before;
    metrics["bench.client_cpu_frac"] =
        window.client_cpu_s / (wall_s * static_cast<double>(workload == Workload::kServeJoin ? 1 : 2));
    metrics["bench.gen_late_ms"] = Samples(late_ms).Quantile(tail_q);
    auto traced = [](const Record& r) { return r.cls == kReq && r.traced; };
    double plain = req.Quantile(0.5);
    metrics["bench.trace_overhead_frac"] =
        plain > 0 ? Latencies(records, traced, due_to_end).Quantile(0.5) / plain - 1.0 : 0;
    metrics["bench.error_rate"] =
        static_cast<double>(outcome.failed) / static_cast<double>(std::max<std::size_t>(1, outcome.attempted));

    std::vector<std::string> patterns;
    if (workload == Workload::kServeJoin) {
      patterns.push_back(kJoinPattern);
    } else {
      for (const PointCase& c : exp.points) patterns.push_back(c.pattern);
    }
    Phase("in-process engine timings");
    EngineLayer(db, snapshot, patterns, workload == Workload::kServeJoin ? 5 : 1, tracer, &metrics);
    Phase("in-process storage timings");
    StorageLayer(nt, first_snapshot, args.work_dir, tracer, &metrics);
    WriteTrace(args, tracer, metrics);
  }

  Phase("done");
  for (const std::string& note : outcome.notes) std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  std::printf("%s\n", ContextJson(args, shape).c_str());
  std::printf("%s\n", ResultJson(outcome, metrics, args.trace).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
