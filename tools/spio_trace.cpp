/// \file spio_trace.cpp
/// Render and validate spio observability artifacts.
///
/// Usage:
///   spio_trace <trace.json>       [--check] [--csv]
///   spio_trace <bundle.json>      [--check]
///   spio_trace <stats.spio.jsonl> [--check] [--csv]
///   spio_trace <dataset-dir>      [--csv] [--postmortem] [--check]
///
/// Given a Chrome trace-event JSON file (from `spio_bench --trace` or
/// `SPIO_TRACE=path`), prints a Fig. 6-style per-rank, per-phase
/// breakdown of the write pipeline plus a span summary. Given a dataset
/// directory holding a `trace.spio.json` run record, prints the record's
/// write phase table instead.
///
/// A `postmortem.spio.json` failure bundle is recognized by its
/// `"format"` key (or forced with `--postmortem`, which on a dataset
/// directory loads the bundle the failed write left behind) and rendered
/// as a per-rank timeline of the flight recorder's last events.
///
/// A telemetry stream (`stats.spio.jsonl` from `SPIO_STATS`, one JSON
/// object per line with `"format":"spio.stats"`) is recognized by its
/// first line and rendered as a per-sample table; `spio_top` renders the
/// same stream live.
///
/// A spatial access profile (`profile.spio.json` from `SPIO_PROFILE`,
/// `"format":"spio.access_profile"`) is recognized by its format key and
/// rendered as a totals + hot-file summary; `spio_heatmap` renders the
/// full 2-D grid. With `--against <trace.json>`, `--check` additionally
/// cross-references every profile query's request ID against the qids
/// stamped on the trace's spans.
///
/// `--check` validates the artifact structurally — a Chrome trace must
/// parse, carry a well-formed `traceEvents` array, and nest its spans
/// within each rank track; a postmortem bundle must satisfy
/// `obs::validate_postmortem`; a stats stream must parse line by line
/// with consecutive `seq`, non-decreasing `ts_us`, ordered window
/// quantiles, and `"final":true` on the last sample only; an access
/// profile must carry self-consistent byte accounting (per-file tallies
/// summing exactly to its totals, per-query file splits summing to the
/// query's totals, fetched never exceeding scanned) — and exits non-zero
/// on any violation (the `obs_artifact_check_*` ctest entries run it on
/// the artifacts of a real `spio_bench` run).

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_record.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace spio;

namespace {

struct Span {
  std::string name;
  std::string cat;
  double ts = 0;
  double dur = 0;
  int tid = 0;
};

constexpr const char* kWritePhases[] = {
    "write.setup",       "write.meta_exchange", "write.particle_exchange",
    "write.reorder",     "write.file_io",       "write.metadata_io",
};

/// Extract the complete ("X") spans of a Chrome trace document.
std::vector<Span> complete_spans(const obs::JsonValue& doc) {
  std::vector<Span> out;
  const obs::JsonValue& events = doc.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::JsonValue& e = events.at(i);
    if (e.at("ph").as_string() != "X") continue;
    Span s;
    s.name = e.at("name").as_string();
    if (const obs::JsonValue* c = e.find("cat")) s.cat = c->as_string();
    s.ts = e.at("ts").as_double();
    s.dur = e.at("dur").as_double();
    if (const obs::JsonValue* t = e.find("tid")) s.tid = int(t->as_i64());
    out.push_back(std::move(s));
  }
  return out;
}

/// Structural validation: every event carries the required keys, and the
/// complete spans of each rank track either nest or are disjoint (the
/// shape Perfetto needs to build a flame graph).
int check_trace(const obs::JsonValue& doc) {
  int problems = 0;
  const auto complain = [&](const std::string& what) {
    std::cerr << "check: " << what << "\n";
    ++problems;
  };
  const obs::JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) {
    complain("document has no traceEvents array");
    return 1;
  }
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::JsonValue& e = events->at(i);
    if (!e.is_object() || !e.contains("ph") || !e.contains("name")) {
      complain("event " + std::to_string(i) + " lacks ph/name");
      continue;
    }
    const std::string& ph = e.at("ph").as_string();
    if (ph == "X" && (!e.contains("ts") || !e.contains("dur")))
      complain("complete event " + std::to_string(i) + " lacks ts/dur");
    if (ph == "i" && !e.contains("ts"))
      complain("instant event " + std::to_string(i) + " lacks ts");
  }

  // Nesting check per track: with spans sorted by begin time, an open
  // interval must fully contain any span starting inside it.
  std::map<int, std::vector<Span>> tracks;
  for (Span& s : complete_spans(doc)) tracks[s.tid].push_back(std::move(s));
  for (auto& [tid, spans] : tracks) {
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span& a, const Span& b) { return a.ts < b.ts; });
    std::vector<const Span*> open;
    for (const Span& s : spans) {
      while (!open.empty() && s.ts >= open.back()->ts + open.back()->dur)
        open.pop_back();
      // Tolerate timer granularity: a child may end a hair after its
      // parent's recorded end.
      if (!open.empty() &&
          s.ts + s.dur > open.back()->ts + open.back()->dur + 1.0) {
        complain("span '" + s.name + "' on track " + std::to_string(tid) +
                 " overlaps '" + open.back()->name + "' without nesting");
      }
      open.push_back(&s);
    }
  }
  if (problems == 0) std::cout << "trace OK\n";
  return problems == 0 ? 0 : 1;
}

/// The Fig. 6-style view: per-rank seconds in each write phase (summed
/// over possibly several writes in the trace), plus an aggregation/IO
/// split, and the symmetric read table when read spans are present.
void render_trace(const obs::JsonValue& doc, bool csv) {
  const std::vector<Span> spans = complete_spans(doc);

  // name -> tid -> total microseconds.
  std::map<std::string, std::map<int, double>> by_name;
  std::map<std::string, std::pair<std::uint64_t, double>> summary;
  for (const Span& s : spans) {
    by_name[s.name][s.tid] += s.dur;
    auto& [count, total] = summary[s.name];
    ++count;
    total += s.dur;
  }

  const auto ranks_of = [&](const char* const* names, std::size_t n) {
    std::vector<int> ranks;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = by_name.find(names[i]);
      if (it == by_name.end()) continue;
      for (const auto& [tid, _] : it->second)
        if (std::find(ranks.begin(), ranks.end(), tid) == ranks.end())
          ranks.push_back(tid);
    }
    std::sort(ranks.begin(), ranks.end());
    return ranks;
  };

  const std::vector<int> wranks =
      ranks_of(kWritePhases, std::size(kWritePhases));
  if (!wranks.empty()) {
    Table t("write pipeline (ms per rank, Fig. 6 breakdown)",
            {"rank", "setup", "meta_exch", "particle_exch", "reorder",
             "file_io", "metadata_io", "aggregation %"});
    for (const int r : wranks) {
      double phase_ms[std::size(kWritePhases)] = {};
      double total = 0;
      for (std::size_t p = 0; p < std::size(kWritePhases); ++p) {
        const auto it = by_name.find(kWritePhases[p]);
        if (it == by_name.end()) continue;
        const auto rt = it->second.find(r);
        if (rt == it->second.end()) continue;
        phase_ms[p] = rt->second / 1e3;
        total += phase_ms[p];
      }
      const double agg =
          phase_ms[0] + phase_ms[1] + phase_ms[2] + phase_ms[3];
      t.row().add_int(r);
      for (const double ms : phase_ms) t.add_double(ms, 2);
      t.add_double(total > 0 ? 100.0 * agg / total : 0.0, 1);
    }
    csv ? t.print_csv(std::cout) : t.print(std::cout);
    std::cout << "\n";
  }

  Table s("span summary", {"span", "count", "total ms", "mean us"});
  for (const auto& [name, ct] : summary) {
    s.row()
        .add(name)
        .add_int(static_cast<long long>(ct.first))
        .add_double(ct.second / 1e3, 2)
        .add_double(ct.second / static_cast<double>(ct.first), 1);
  }
  csv ? s.print_csv(std::cout) : s.print(std::cout);
}

/// `--check` for failure bundles: structural validation via the library.
int check_postmortem(const obs::JsonValue& doc) {
  const std::vector<std::string> problems = obs::validate_postmortem(doc);
  for (const std::string& p : problems) std::cerr << "check: " << p << "\n";
  if (problems.empty()) std::cout << "postmortem bundle OK\n";
  return problems.empty() ? 0 : 1;
}

/// Render a failure bundle: the reason header, the fault-plan echo, and
/// a per-rank timeline of the flight recorder's last events — the view
/// of "what was every rank doing when it died".
void render_postmortem(const obs::JsonValue& doc) {
  std::cout << "postmortem bundle\n"
            << "  reason     : " << doc.at("reason").as_string() << "\n"
            << "  failed rank: " << doc.at("failed_rank").as_i64() << "\n"
            << "  phase      : " << doc.at("phase").as_string() << "\n";
  if (const obs::JsonValue* jr = doc.find("job_ranks"))
    std::cout << "  job ranks  : " << jr->as_i64() << "\n";
  if (const obs::JsonValue* plan = doc.find("fault_plan")) {
    const auto count = [&](const char* key) {
      const obs::JsonValue* a = plan->find(key);
      return a && a->is_array() ? a->size() : std::size_t{0};
    };
    std::cout << "  fault plan : " << count("messages")
              << " message rule(s), " << count("files") << " file rule(s), "
              << count("deaths") << " death rule(s)\n";
  }
  if (const obs::JsonValue* ws = doc.find("write_stats")) {
    if (ws->contains("particles_written") && ws->contains("bytes_written"))
      std::cout << "  progress   : "
                << ws->at("particles_written").as_u64() << " particles, "
                << format_bytes(ws->at("bytes_written").as_u64())
                << " written before the failure\n";
  }

  const obs::JsonValue& fr = doc.at("flight_recorder");
  std::cout << "\nflight recorder (ring capacity "
            << fr.at("capacity").as_u64() << " events per rank)\n";
  const obs::JsonValue& ranks = fr.at("ranks");
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const obs::JsonValue& r = ranks.at(i);
    const long long rank = r.at("rank").as_i64();
    std::cout << "\n"
              << (rank < 0 ? std::string("non-rank threads")
                           : "rank " + std::to_string(rank))
              << ": " << r.at("recorded").as_u64() << " event(s), "
              << r.at("dropped").as_u64() << " overwritten\n";
    const obs::JsonValue& events = r.at("events");
    for (std::size_t j = 0; j < events.size(); ++j) {
      const obs::JsonValue& e = events.at(j);
      std::ostringstream extra;
      if (const obs::JsonValue* a = e.find("a")) extra << "  a=" << a->as_u64();
      if (const obs::JsonValue* b = e.find("b")) extra << " b=" << b->as_u64();
      if (const obs::JsonValue* d = e.find("detail"))
        extra << " detail=" << d->as_u64();
      std::cout << "  +" << std::fixed << std::setprecision(1)
                << std::setw(12) << e.at("ts_us").as_double() << "us  "
                << std::left << std::setw(11) << e.at("type").as_string()
                << std::right << e.at("name").as_string() << extra.str()
                << "\n";
    }
  }
}

/// Render a dataset's `trace.spio.json` run record.
void render_record(const std::filesystem::path& dir, bool csv) {
  const obs::JsonValue rec = obs::load_run_record(dir);
  const obs::JsonValue* w = rec.find("write");
  if (!w) {
    std::cout << "run record holds no write section\n";
    return;
  }
  Table t("write phases (seconds per rank)",
          {"rank", "setup", "meta_exch", "particle_exch", "reorder",
           "file_io", "metadata_io"});
  const obs::JsonValue& phases = w->at("phase_seconds");
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const obs::JsonValue& p = phases.at(i);
    t.row()
        .add_int(p.at("rank").as_i64())
        .add_double(p.at("setup").as_double(), 4)
        .add_double(p.at("meta_exchange").as_double(), 4)
        .add_double(p.at("particle_exchange").as_double(), 4)
        .add_double(p.at("reorder").as_double(), 4)
        .add_double(p.at("file_io").as_double(), 4)
        .add_double(p.at("metadata_io").as_double(), 4);
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
  std::cout << "\n";
  const obs::JsonValue& totals = w->at("totals");
  std::cout << "write totals: " << totals.at("particles_written").as_u64()
            << " particles, "
            << format_bytes(totals.at("bytes_written").as_u64()) << " in "
            << totals.at("files_written").as_u64() << " files, "
            << format_bytes(totals.at("bytes_sent").as_u64())
            << " exchanged\n\n";
}

/// Does this document look like one line of an `SPIO_STATS` stream?
bool is_stats_line(std::string_view line) {
  return line.find("\"format\":\"spio.stats\"") != std::string_view::npos;
}

/// Split a JSONL stream into parsed per-line documents. Throws on any
/// malformed line (the writer emits each line atomically, so a torn
/// line is a real defect, not an artifact of concurrent reading).
std::vector<obs::JsonValue> parse_stats_lines(std::string_view text) {
  std::vector<obs::JsonValue> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    out.push_back(obs::JsonValue::parse(line));
  }
  return out;
}

/// `--check` for stats streams: every line is a well-formed sample, seq
/// is consecutive from 0, time moves forward, quantiles are ordered, and
/// only the last sample is final.
int check_stats(std::string_view text) {
  int problems = 0;
  const auto complain = [&](const std::string& what) {
    std::cerr << "check: " << what << "\n";
    ++problems;
  };
  std::vector<obs::JsonValue> samples;
  try {
    samples = parse_stats_lines(text);
  } catch (const std::exception& e) {
    std::cerr << "check: malformed stats line: " << e.what() << "\n";
    return 1;
  }
  if (samples.empty()) {
    std::cerr << "check: stats stream holds no samples\n";
    return 1;
  }
  double prev_ts = -1;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const obs::JsonValue& s = samples[i];
    const std::string at = "sample " + std::to_string(i);
    if (!s.is_object() || !s.contains("format") ||
        s.at("format").as_string() != "spio.stats") {
      complain(at + " lacks format spio.stats");
      continue;
    }
    for (const char* key : {"version", "seq", "ts_us", "interval_ms"}) {
      if (!s.contains(key) || !s.at(key).is_number())
        complain(at + " lacks numeric " + key);
    }
    for (const char* key : {"derived", "windows", "counters", "gauges"}) {
      if (!s.contains(key) || !s.at(key).is_object())
        complain(at + " lacks object " + key);
    }
    if (!s.contains("final") || !s.at("final").is_bool()) {
      complain(at + " lacks boolean final");
      continue;
    }
    if (s.at("seq").as_u64() != i)
      complain(at + " has seq " + std::to_string(s.at("seq").as_u64()) +
               ", expected " + std::to_string(i));
    const double ts = s.at("ts_us").as_double();
    if (ts < prev_ts) complain(at + " moves backward in time");
    prev_ts = ts;
    if (s.at("final").as_bool() != (i + 1 == samples.size()))
      complain(at + (i + 1 == samples.size()
                         ? " is the last sample but not final"
                         : " is final before the end of the stream"));
    if (const obs::JsonValue* w = s.find("windows")) {
      for (const auto& [name, v] : w->members()) {
        if (!v.is_object() || !v.contains("count") || !v.contains("p50") ||
            !v.contains("p95") || !v.contains("p99")) {
          complain(at + " window '" + name + "' lacks count/p50/p95/p99");
          continue;
        }
        const std::uint64_t p50 = v.at("p50").as_u64();
        const std::uint64_t p95 = v.at("p95").as_u64();
        const std::uint64_t p99 = v.at("p99").as_u64();
        if (p50 > p95 || p95 > p99)
          complain(at + " window '" + name + "' has unordered quantiles");
      }
    }
  }
  if (problems == 0)
    std::cout << "stats stream OK (" << samples.size() << " samples)\n";
  return problems == 0 ? 0 : 1;
}

/// Render a stats stream as a per-sample table — the static sibling of
/// `spio_top --replay`.
void render_stats(std::string_view text, bool csv) {
  const std::vector<obs::JsonValue> samples = parse_stats_lines(text);
  Table t("telemetry stream (stats.spio.jsonl)",
          {"seq", "t (s)", "qps", "p50 ms", "p99 ms", "queue", "q max",
           "hit %", "slo viol"});
  for (const obs::JsonValue& s : samples) {
    const obs::JsonValue& d = s.at("derived");
    double p50_ms = 0, p99_ms = 0;
    if (const obs::JsonValue* w = s.at("windows").find("service.latency_us")) {
      p50_ms = w->at("p50").as_double() / 1e3;
      p99_ms = w->at("p99").as_double() / 1e3;
    }
    t.row()
        .add_int(static_cast<long long>(s.at("seq").as_u64()))
        .add_double(s.at("ts_us").as_double() / 1e6, 2)
        .add_double(d.at("qps").as_double(), 1)
        .add_double(p50_ms, 3)
        .add_double(p99_ms, 3)
        .add_int(static_cast<long long>(d.at("queue_depth").as_double()))
        .add_int(static_cast<long long>(d.at("queue_depth_max").as_double()))
        .add_double(100.0 * d.at("cache_hit_rate").as_double(), 1)
        .add_int(static_cast<long long>(
            d.at("slo_violations_total").as_double()));
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
}

/// Every request ID stamped on a Chrome trace's span args — the join key
/// the access profile's query records carry.
std::set<std::uint64_t> trace_qids(const obs::JsonValue& doc) {
  std::set<std::uint64_t> out;
  const obs::JsonValue* events = doc.find("traceEvents");
  if (!events || !events->is_array()) return out;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const obs::JsonValue& e = events->at(i);
    if (!e.is_object()) continue;
    const obs::JsonValue* args = e.find("args");
    if (!args || !args->is_object()) continue;
    const obs::JsonValue* qid = args->find("qid");
    if (qid && qid->is_number()) out.insert(qid->as_u64());
  }
  return out;
}

/// `--check` for spatial access profiles (`profile.spio.json`,
/// docs/OBSERVABILITY.md "Spatial access profiles"): structural schema
/// validation plus exact byte-accounting cross-checks. When `trace` is
/// given (`--against`), every query record's qid must appear among the
/// trace's span qids.
int check_profile(const obs::JsonValue& doc, const obs::JsonValue* trace) {
  int problems = 0;
  const auto complain = [&](const std::string& what) {
    std::cerr << "check: " << what << "\n";
    ++problems;
  };
  const auto require_u64 = [&](const obs::JsonValue& obj, const char* key,
                               const std::string& at) -> std::uint64_t {
    const obs::JsonValue* v = obj.find(key);
    if (!v || !v->is_number()) {
      complain(at + " lacks numeric " + key);
      return 0;
    }
    return v->as_u64();
  };
  const auto check_box = [&](const obs::JsonValue& obj, const char* key,
                             const std::string& at) {
    const obs::JsonValue* b = obj.find(key);
    if (!b || !b->is_object()) {
      complain(at + " lacks object " + key);
      return;
    }
    for (const char* face : {"lo", "hi"}) {
      const obs::JsonValue* f = b->find(face);
      if (!f || !f->is_array() || f->size() != 3)
        complain(at + " " + key + "." + face + " is not a 3-vector");
    }
  };

  if (!doc.is_object() || !doc.contains("format") ||
      !doc.at("format").is_string() ||
      doc.at("format").as_string() != "spio.access_profile") {
    complain("document lacks format spio.access_profile");
    return 1;
  }
  require_u64(doc, "version", "profile");
  require_u64(doc, "unattributed", "profile");
  require_u64(doc, "queries_dropped", "profile");

  // Per-file accounting, summed for the totals cross-check.
  std::uint64_t sum_accesses = 0, sum_scanned = 0, sum_fetched = 0,
                sum_used = 0;
  const obs::JsonValue* datasets = doc.find("datasets");
  if (!datasets || !datasets->is_array()) {
    complain("profile lacks datasets array");
    return 1;
  }
  for (std::size_t d = 0; d < datasets->size(); ++d) {
    const obs::JsonValue& ds = datasets->at(d);
    const std::string at = "dataset " + std::to_string(d);
    if (!ds.is_object()) {
      complain(at + " is not an object");
      continue;
    }
    if (!ds.contains("dir") || !ds.at("dir").is_string())
      complain(at + " lacks string dir");
    require_u64(ds, "record_size", at);
    check_box(ds, "domain", at);
    const obs::JsonValue* files = ds.find("files");
    if (!files || !files->is_array()) {
      complain(at + " lacks files array");
      continue;
    }
    for (std::size_t i = 0; i < files->size(); ++i) {
      const obs::JsonValue& f = files->at(i);
      const std::string fat = at + " file " + std::to_string(i);
      if (!f.is_object()) {
        complain(fat + " is not an object");
        continue;
      }
      if (!f.contains("name") || !f.at("name").is_string())
        complain(fat + " lacks string name");
      if (require_u64(f, "index", fat) != i)
        complain(fat + " has index out of order");
      check_box(f, "bounds", fat);
      const std::uint64_t accesses = require_u64(f, "accesses", fat);
      const std::uint64_t scanned = require_u64(f, "bytes_scanned", fat);
      const std::uint64_t fetched = require_u64(f, "bytes_fetched", fat);
      const std::uint64_t used = require_u64(f, "bytes_used", fat);
      const std::uint64_t outcomes =
          require_u64(f, "hits", fat) + require_u64(f, "misses", fat) +
          require_u64(f, "followers", fat) + require_u64(f, "bypasses", fat);
      if (fetched > scanned) complain(fat + " fetched more than it scanned");
      if (outcomes != accesses)
        complain(fat + " outcome tallies do not sum to accesses");
      const obs::JsonValue* hist = f.find("fetch_us_hist");
      if (!hist || !hist->is_array()) {
        complain(fat + " lacks fetch_us_hist array");
      } else {
        std::uint64_t events = 0;
        for (std::size_t b = 0; b < hist->size(); ++b)
          events += hist->at(b).as_u64();
        const std::uint64_t disk = f.find("misses")->as_u64() +
                                   f.find("bypasses")->as_u64();
        if (events != disk)
          complain(fat + " fetch_us_hist does not sum to disk fetches");
      }
      sum_accesses += accesses;
      sum_scanned += scanned;
      sum_fetched += fetched;
      sum_used += used;
    }
  }

  const obs::JsonValue* totals = doc.find("totals");
  if (!totals || !totals->is_object()) {
    complain("profile lacks totals object");
  } else {
    if (require_u64(*totals, "accesses", "totals") != sum_accesses)
      complain("totals.accesses does not match the per-file sum");
    if (require_u64(*totals, "bytes_scanned", "totals") != sum_scanned)
      complain("totals.bytes_scanned does not match the per-file sum");
    if (require_u64(*totals, "bytes_fetched", "totals") != sum_fetched)
      complain("totals.bytes_fetched does not match the per-file sum");
    if (require_u64(*totals, "bytes_used", "totals") != sum_used)
      complain("totals.bytes_used does not match the per-file sum");
  }

  const obs::JsonValue* queries = doc.find("queries");
  if (!queries || !queries->is_array()) {
    complain("profile lacks queries array");
    return problems == 0 ? 0 : 1;
  }
  std::set<std::uint64_t> span_qids;
  if (trace) span_qids = trace_qids(*trace);
  for (std::size_t i = 0; i < queries->size(); ++i) {
    const obs::JsonValue& q = queries->at(i);
    const std::string at = "query " + std::to_string(i);
    if (!q.is_object()) {
      complain(at + " is not an object");
      continue;
    }
    const std::uint64_t qid = require_u64(q, "qid", at);
    if (qid == 0) complain(at + " has qid 0 (unattributed)");
    if (!q.contains("kind") || !q.at("kind").is_string())
      complain(at + " lacks string kind");
    for (const char* key : {"fetch_us", "filter_us", "merge_us", "total_us"})
      require_u64(q, key, at);
    const std::uint64_t scanned = require_u64(q, "bytes_scanned", at);
    const std::uint64_t fetched = require_u64(q, "bytes_fetched", at);
    const std::uint64_t used = require_u64(q, "bytes_used", at);
    if (fetched > scanned) complain(at + " fetched more than it scanned");
    const obs::JsonValue* qfiles = q.find("files");
    if (!qfiles || !qfiles->is_array()) {
      complain(at + " lacks files array");
      continue;
    }
    std::uint64_t fscanned = 0, ffetched = 0, fused = 0;
    for (std::size_t k = 0; k < qfiles->size(); ++k) {
      const obs::JsonValue& f = qfiles->at(k);
      const std::string fat = at + " file " + std::to_string(k);
      fscanned += require_u64(f, "bytes_scanned", fat);
      ffetched += require_u64(f, "bytes_fetched", fat);
      fused += require_u64(f, "bytes_used", fat);
    }
    if (fscanned != scanned || ffetched != fetched || fused != used)
      complain(at + " per-file byte split does not sum to the query totals");
    if (trace && !span_qids.empty() && qid != 0 && !span_qids.contains(qid))
      complain(at + " qid " + std::to_string(qid) +
               " appears in no trace span");
  }
  if (trace && span_qids.empty())
    complain("--against trace carries no span qids to cross-reference");

  if (problems == 0)
    std::cout << "access profile OK (" << queries->size() << " queries)\n";
  return problems == 0 ? 0 : 1;
}

/// Render an access profile: totals and the hottest files. The spatial
/// view lives in `spio_heatmap`.
void render_profile(const obs::JsonValue& doc, bool csv) {
  const obs::JsonValue& totals = doc.at("totals");
  std::cout << "access profile: " << totals.at("accesses").as_u64()
            << " file accesses, "
            << format_bytes(totals.at("bytes_scanned").as_u64())
            << " scanned, "
            << format_bytes(totals.at("bytes_fetched").as_u64())
            << " from disk, "
            << format_bytes(totals.at("bytes_used").as_u64())
            << " surviving filters (amplification "
            << totals.at("read_amplification").as_double() << ")\n"
            << doc.at("queries").size() << " query record(s), "
            << doc.at("queries_dropped").as_u64() << " dropped\n\n";

  struct Row {
    const obs::JsonValue* f;
    std::string dir;
  };
  std::vector<Row> rows;
  const obs::JsonValue& datasets = doc.at("datasets");
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const obs::JsonValue& ds = datasets.at(d);
    const obs::JsonValue& files = ds.at("files");
    for (std::size_t i = 0; i < files.size(); ++i)
      if (files.at(i).at("accesses").as_u64() > 0)
        rows.push_back({&files.at(i), ds.at("dir").as_string()});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.f->at("bytes_scanned").as_u64() > b.f->at("bytes_scanned").as_u64();
  });
  if (rows.size() > 10) rows.resize(10);
  Table t("hottest files (by bytes scanned)",
          {"file", "accesses", "scanned", "fetched", "used", "amp", "hits",
           "misses"});
  for (const Row& r : rows) {
    t.row()
        .add(r.f->at("name").as_string())
        .add_int(static_cast<long long>(r.f->at("accesses").as_u64()))
        .add(format_bytes(r.f->at("bytes_scanned").as_u64()))
        .add(format_bytes(r.f->at("bytes_fetched").as_u64()))
        .add(format_bytes(r.f->at("bytes_used").as_u64()))
        .add_double(r.f->at("read_amplification").as_double(), 2)
        .add_int(static_cast<long long>(r.f->at("hits").as_u64()))
        .add_int(static_cast<long long>(r.f->at("misses").as_u64()));
  }
  csv ? t.print_csv(std::cout) : t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: spio_trace <trace.json | bundle.json | stats.spio.jsonl | "
      "profile.spio.json | dataset-dir> [--check] [--csv] [--postmortem] "
      "[--against <trace.json>]\n";
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  std::filesystem::path target;
  std::filesystem::path against;
  bool check = false, csv = false, postmortem = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
    else if (std::strcmp(argv[i], "--csv") == 0) csv = true;
    else if (std::strcmp(argv[i], "--postmortem") == 0) postmortem = true;
    else if (std::strcmp(argv[i], "--against") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--against needs a trace path\n";
        return 2;
      }
      against = argv[++i];
    }
    else if (target.empty() && argv[i][0] != '-') target = argv[i];
    else {
      std::cerr << "unknown option: " << argv[i] << "\n";
      return 2;
    }
  }
  if (target.empty()) {
    std::cerr << kUsage;
    return 2;
  }

  try {
    if (std::filesystem::is_directory(target)) {
      if (postmortem || (check && obs::postmortem_present(target))) {
        if (!obs::postmortem_present(target)) {
          std::cerr << "no " << obs::kPostmortemFile << " in '"
                    << target.string() << "' (no failed write to explain)\n";
          return 1;
        }
        const obs::JsonValue doc = obs::load_postmortem(target);
        if (check) return check_postmortem(doc);
        render_postmortem(doc);
        return 0;
      }
      if (!obs::run_record_present(target)) {
        std::cerr << "no " << obs::kRunRecordFile << " in '"
                  << target.string() << "' (write with tracing enabled)\n";
        return 1;
      }
      render_record(target, csv);
      return 0;
    }
    const std::vector<std::byte> bytes = read_file(target);
    const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
    {
      std::size_t eol = text.find('\n');
      if (eol == std::string_view::npos) eol = text.size();
      if (is_stats_line(text.substr(0, eol))) {
        if (check) return check_stats(text);
        render_stats(text, csv);
        return 0;
      }
    }
    const obs::JsonValue doc = obs::JsonValue::parse(text);
    const auto format_is = [&](const char* fmt) {
      return doc.is_object() && doc.contains("format") &&
             doc.at("format").is_string() && doc.at("format").as_string() == fmt;
    };
    if (format_is("spio.access_profile")) {
      std::optional<obs::JsonValue> trace_doc;
      if (!against.empty()) {
        const std::vector<std::byte> tb = read_file(against);
        trace_doc = obs::JsonValue::parse(std::string_view(
            reinterpret_cast<const char*>(tb.data()), tb.size()));
      }
      if (check)
        return check_profile(doc, trace_doc ? &*trace_doc : nullptr);
      render_profile(doc, csv);
      return 0;
    }
    const bool is_bundle = format_is("spio.postmortem");
    if (is_bundle || postmortem) {
      if (check) return check_postmortem(doc);
      render_postmortem(doc);
      return 0;
    }
    if (check) return check_trace(doc);
    render_trace(doc, csv);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
