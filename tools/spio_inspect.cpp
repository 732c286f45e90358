/// \file spio_inspect.cpp
/// Command-line dataset inspector and validator.
///
/// Usage:
///   spio_inspect <dataset-dir> [--deep] [--files] [--zones] [--repair]
///
///   --deep    also read every particle and check bounds / field ranges
///             (and verify data-file checksums when recorded)
///   --files   print the full per-file table (default: first 16 files)
///   --zones   print the zone-map sidecar (per-file, per-LOD-level
///             min/max of every field component) and simulate the
///             planner's pruning on the domain's octants
///   --repair  finalize a stale write journal, or delete the artifacts of
///             an interrupted write so the directory can be rewritten

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <iostream>

#include "core/journal.hpp"
#include "core/query_plan/zone_map.hpp"
#include "core/reader.hpp"
#include "core/timeseries.hpp"
#include "core/validate.hpp"
#include "obs/json.hpp"
#include "obs/postmortem.hpp"
#include "obs/run_record.hpp"
#include "util/serialize.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace spio;

namespace {

const char* heuristic_name(LodHeuristic h) {
  switch (h) {
    case LodHeuristic::kRandom:
      return "random";
    case LodHeuristic::kStride:
      return "stride";
    case LodHeuristic::kStratified:
      return "stratified";
  }
  return "?";
}

/// Pretty-print `trace.spio.json` when the dataset carries one. Phase
/// columns report the max over ranks (the job-critical path, the view the
/// paper's Fig. 6 plots).
void print_run_record(const std::filesystem::path& dir) {
  if (!obs::run_record_present(dir)) return;
  try {
    const obs::JsonValue rec = obs::load_run_record(dir);
    std::cout << "  run record: " << obs::kRunRecordFile << "\n";
    const auto max_phase = [](const obs::JsonValue& phases,
                              const char* key) {
      double m = 0;
      for (std::size_t i = 0; i < phases.size(); ++i) {
        if (const obs::JsonValue* v = phases.at(i).find(key))
          m = std::max(m, v->as_double());
      }
      return m;
    };
    if (const obs::JsonValue* w = rec.find("write")) {
      const obs::JsonValue& totals = w->at("totals");
      std::cout << "    write: " << w->at("ranks").as_i64() << " ranks, "
                << totals.at("files_written").as_u64() << " files, "
                << format_bytes(totals.at("bytes_written").as_u64())
                << " written, factor "
                << w->at("config").at("factor").as_string() << "\n"
                << "      max phase seconds: setup="
                << max_phase(w->at("phase_seconds"), "setup")
                << " meta_exchange="
                << max_phase(w->at("phase_seconds"), "meta_exchange")
                << " particle_exchange="
                << max_phase(w->at("phase_seconds"), "particle_exchange")
                << " reorder=" << max_phase(w->at("phase_seconds"), "reorder")
                << " file_io=" << max_phase(w->at("phase_seconds"), "file_io")
                << " metadata_io="
                << max_phase(w->at("phase_seconds"), "metadata_io") << "\n";
    }
  } catch (const Error& e) {
    std::cout << "  run record: unreadable (" << e.what() << ")\n";
  }
}

/// One-screen summary of `profile.spio.json` when the dataset carries a
/// spatial access profile (SPIO_PROFILE, docs/OBSERVABILITY.md). The
/// full grid view lives in `spio_heatmap`.
void print_access_profile(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "profile.spio.json";
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) return;
  try {
    const std::vector<std::byte> bytes = read_file(path);
    const obs::JsonValue doc = obs::JsonValue::parse(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    if (!doc.is_object() || !doc.contains("format") ||
        doc.at("format").as_string() != "spio.access_profile")
      return;
    const obs::JsonValue& totals = doc.at("totals");
    std::cout << "  access profile: profile.spio.json (see spio_heatmap)\n"
              << "    " << totals.at("accesses").as_u64()
              << " file accesses — "
              << format_bytes(totals.at("bytes_scanned").as_u64())
              << " scanned, "
              << format_bytes(totals.at("bytes_fetched").as_u64())
              << " from disk, "
              << format_bytes(totals.at("bytes_used").as_u64())
              << " surviving filters (amplification "
              << totals.at("read_amplification").as_double() << ")\n"
              << "    " << doc.at("queries").size() << " query record(s), "
              << doc.at("queries_dropped").as_u64() << " dropped, "
              << doc.at("unattributed").as_u64() << " unattributed\n";
    // The three hottest files by bytes scanned, across all datasets in
    // the profile (normally just this one).
    struct Hot {
      const obs::JsonValue* f;
    };
    std::vector<Hot> hot;
    const obs::JsonValue& datasets = doc.at("datasets");
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      const obs::JsonValue& files = datasets.at(d).at("files");
      for (std::size_t i = 0; i < files.size(); ++i) {
        const obs::JsonValue* a = files.at(i).find("accesses");
        if (a && a->as_u64() > 0) hot.push_back({&files.at(i)});
      }
    }
    std::sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
      return a.f->at("bytes_scanned").as_u64() >
             b.f->at("bytes_scanned").as_u64();
    });
    if (hot.size() > 3) hot.resize(3);
    for (const Hot& h : hot) {
      std::cout << "    hot: " << h.f->at("name").as_string() << " — "
                << h.f->at("accesses").as_u64() << " accesses, "
                << format_bytes(h.f->at("bytes_scanned").as_u64())
                << " scanned, amplification "
                << h.f->at("read_amplification").as_double() << "\n";
    }
  } catch (const std::exception& e) {
    std::cout << "  access profile: unreadable (" << e.what() << ")\n";
  }
}

/// `--zones`: dump the zone-map sidecar as a per-file, per-level min/max
/// table, then replay the planner over the domain's eight octants to show
/// what the zones actually buy (files skipped, LOD tail bytes shaved).
void print_zone_maps(const Dataset& ds, bool all_files) {
  const DatasetMetadata& m = ds.metadata();
  const ZoneMapTable* zones = ds.planner().zones();
  if (zones == nullptr) {
    std::cout << (m.has_zone_maps
                      ? "zones: sidecar missing or unusable — the planner "
                        "runs zone-free (see warnings below)\n"
                      : "zones: none recorded (written with "
                        "write_zone_maps=false?)\n");
    return;
  }

  // Column per field component, row per (file, LOD level).
  std::vector<std::string> headers = {"file", "level", "records"};
  for (const FieldDesc& f : m.schema.fields()) {
    if (f.components == 1) {
      headers.push_back(f.name);
    } else {
      for (std::uint32_t c = 0; c < f.components; ++c)
        headers.push_back(f.name + "[" + std::to_string(c) + "]");
    }
  }
  const auto fmt = [](const FieldRange& r) {
    std::ostringstream s;
    s << std::setprecision(4) << r.min << ".." << r.max;
    return s.str();
  };
  Table t("zone maps", headers);
  const std::size_t limit =
      all_files ? m.files.size() : std::min<std::size_t>(16, m.files.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const FileRecord& f = m.files[i];
    const FileZones* fz = zones->find(f.aggregator_rank);
    if (fz == nullptr) continue;
    const std::vector<std::uint64_t> bounds =
        zone_bounds(zones->lod, fz->particle_count);
    for (std::size_t z = 0; z + 1 < bounds.size(); ++z) {
      Table& row = t.row();
      row.add(f.file_name())
          .add_int(static_cast<long long>(z))
          .add_int(static_cast<long long>(bounds[z + 1] - bounds[z]));
      for (std::size_t c = 0; c < zones->range_count; ++c)
        row.add(fmt(fz->zones[z * zones->range_count + c]));
    }
  }
  t.print(std::cout);
  if (limit < m.files.size())
    std::cout << "(" << m.files.size() - limit
              << " more files; pass --files to list all)\n";

  // Prune simulation: what the planner does with these zones for the
  // canonical "read a corner of the domain" queries.
  std::cout << "prune simulation (8 domain octants, all LOD levels):\n";
  const Vec3d mid = {(m.domain.lo.x + m.domain.hi.x) / 2,
                     (m.domain.lo.y + m.domain.hi.y) / 2,
                     (m.domain.lo.z + m.domain.hi.z) / 2};
  for (int o = 0; o < 8; ++o) {
    const Vec3d lo = {o & 1 ? mid.x : m.domain.lo.x,
                      o & 2 ? mid.y : m.domain.lo.y,
                      o & 4 ? mid.z : m.domain.lo.z};
    const Vec3d hi = {o & 1 ? m.domain.hi.x : mid.x,
                      o & 2 ? m.domain.hi.y : mid.y,
                      o & 4 ? m.domain.hi.z : mid.z};
    const QueryPlan plan = ds.plan_query(Box3(lo, hi), {}, -1, 1);
    std::uint64_t fetch_bytes = 0;
    for (const FilePlan& fp : plan.files)
      fetch_bytes += fp.fetch_records * m.schema.record_size();
    std::cout << "  octant " << o << ": " << plan.files.size() << "/"
              << plan.files_considered << " files read ("
              << plan.files_skipped << " skipped), "
              << format_bytes(fetch_bytes) << " fetched, "
              << format_bytes(plan.lod_bytes_skipped)
              << " of LOD tails skipped\n";
  }
}

int inspect_dataset(const std::filesystem::path& dir, bool deep,
                    bool all_files, bool show_zones) {
  const Dataset ds = Dataset::open(dir);
  const DatasetMetadata& m = ds.metadata();

  std::cout << "dataset: " << dir.string() << "\n"
            << "  particles : " << m.total_particles << " ("
            << format_bytes(m.total_particles * m.schema.record_size())
            << ")\n"
            << "  files     : " << m.files.size() << "\n"
            << "  domain    : " << m.domain << "\n"
            << "  LOD       : P=" << m.lod.P << " S=" << m.lod.S << " ("
            << ds.level_count(1) << " levels for 1 reader), "
            << heuristic_name(m.heuristic) << " order\n"
            << "  metadata  : bounds=" << (m.has_bounds ? "yes" : "no")
            << " field-ranges=" << (m.has_field_ranges ? "yes" : "no")
            << "\n  integrity : journal="
            << (WriteJournal::present(dir) ? "OPEN (interrupted write?)"
                                           : "closed")
            << " checksums=" << (ChecksumTable::present(dir) ? "yes" : "no")
            << " zones="
            << (ds.planner().zones() != nullptr
                    ? "yes"
                    : (m.has_zone_maps ? "UNUSABLE (fallback)" : "no"))
            << " postmortem="
            << (obs::postmortem_present(dir)
                    ? "PRESENT (see spio_trace --postmortem)"
                    : "none")
            << "\n  schema    : " << m.schema.record_size()
            << " B/particle\n";
  for (const FieldDesc& f : m.schema.fields()) {
    std::cout << "    " << f.name << " "
              << (f.type == FieldType::kF64 ? "f64" : "f32") << " x"
              << f.components << "\n";
  }
  print_run_record(dir);
  print_access_profile(dir);
  if (show_zones) print_zone_maps(ds, all_files);

  Table t("files", {"file", "particles", "bytes", "bounds"});
  const std::size_t limit = all_files ? m.files.size()
                                      : std::min<std::size_t>(16, m.files.size());
  for (std::size_t i = 0; i < limit; ++i) {
    const FileRecord& f = m.files[i];
    std::ostringstream b;
    if (m.has_bounds) b << f.bounds;
    t.row()
        .add(f.file_name())
        .add_int(static_cast<long long>(f.particle_count))
        .add(format_bytes(f.particle_count * m.schema.record_size()))
        .add(b.str());
  }
  t.print(std::cout);
  if (limit < m.files.size()) {
    std::cout << "(" << m.files.size() - limit
              << " more files; pass --files to list all)\n";
  }

  const ValidationReport report = validate_dataset(dir, deep);
  for (const std::string& w : report.warnings)
    std::cout << "warning: " << w << "\n";
  for (const std::string& e : report.errors)
    std::cout << "ERROR: " << e << "\n";
  std::cout << (report.ok() ? "dataset OK" : "dataset INVALID")
            << (deep ? " (deep check)" : "") << "\n";
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: spio_inspect <dataset-dir> [--deep] [--files] "
                 "[--zones] [--repair]\n";
    return 2;
  }
  const std::filesystem::path dir = argv[1];
  bool deep = false, all_files = false, repair = false, show_zones = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--deep") == 0) deep = true;
    else if (std::strcmp(argv[i], "--files") == 0) all_files = true;
    else if (std::strcmp(argv[i], "--zones") == 0) show_zones = true;
    else if (std::strcmp(argv[i], "--repair") == 0) repair = true;
    else {
      std::cerr << "unknown option: " << argv[i] << "\n";
      return 2;
    }
  }

  try {
    if (repair) {
      switch (check_and_repair(dir, /*remove_partial=*/true)) {
        case RepairOutcome::kClean:
          std::cout << "no journal: nothing to repair\n";
          break;
        case RepairOutcome::kFinalizedJournal:
          std::cout << "finalized stale journal; dataset is complete\n";
          break;
        case RepairOutcome::kRemovedPartial:
          std::cout << "removed the artifacts of an interrupted write\n";
          return 0;
        case RepairOutcome::kIncomplete:
          break;  // unreachable with remove_partial
      }
    }
    // A series base directory? Inspect every step.
    if (std::filesystem::exists(dir / TimeSeries::kIndexName)) {
      const TimeSeries series = TimeSeries::open(dir);
      std::cout << "time series with " << series.step_count()
                << " step(s)\n\n";
      int rc = 0;
      for (const int step : series.steps()) {
        std::cout << "--- step " << step << " ---\n";
        rc |= inspect_dataset(TimeSeries::step_dir(dir, step), deep,
                              all_files, show_zones);
        std::cout << "\n";
      }
      return rc;
    }
    return inspect_dataset(dir, deep, all_files, show_zones);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
