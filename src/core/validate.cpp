#include "core/validate.hpp"

#include <limits>
#include <optional>
#include <sstream>

#include "core/journal.hpp"
#include "core/query_plan/zone_map.hpp"
#include "core/reader.hpp"
#include "util/checksum.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

template <typename... Args>
std::string fmt(Args&&... args) {
  std::ostringstream oss;
  (oss << ... << args);
  return oss.str();
}

void deep_check_file(const Dataset& ds, int fi, const ZoneMapTable* zones,
                     ValidationReport& report) {
  const DatasetMetadata& meta = ds.metadata();
  const FileRecord& rec = meta.files[static_cast<std::size_t>(fi)];
  ParticleBuffer buf(meta.schema);
  try {
    buf = ds.read_data_file(fi);
  } catch (const Error& e) {
    report.errors.push_back(e.what());
    return;
  }
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (meta.has_bounds && !rec.bounds.contains_closed(buf.position(i))) {
      report.errors.push_back(
          fmt("file '", rec.file_name(), "': particle ", i, " at ",
              buf.position(i), " lies outside the recorded bounds ",
              rec.bounds));
      break;  // one example per file is enough
    }
  }
  if (meta.has_field_ranges) {
    for (std::size_t f = 0; f < meta.schema.field_count(); ++f) {
      const FieldDesc& fd = meta.schema.fields()[f];
      for (std::uint32_t c = 0; c < fd.components; ++c) {
        const FieldRange& fr =
            rec.field_ranges[meta.range_index(f, c)];
        for (std::size_t i = 0; i < buf.size(); ++i) {
          const double v =
              fd.type == FieldType::kF64
                  ? buf.get_f64(i, f, c)
                  : static_cast<double>(buf.get_f32(i, f, c));
          if (v < fr.min || v > fr.max) {
            report.errors.push_back(
                fmt("file '", rec.file_name(), "': field '", fd.name,
                    "' component ", c, " value ", v,
                    " outside recorded range [", fr.min, ", ", fr.max, "]"));
            i = buf.size();  // one example per component
          }
        }
      }
    }
  }
  if (const FileZones* fz =
          zones ? zones->find(rec.aggregator_rank) : nullptr) {
    // Every record must lie inside its zone's recorded ranges; a NaN
    // record is legal only under the conservative [-inf, +inf] zone.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::size_t rc = zones->range_count;
    const std::vector<std::uint64_t> bounds =
        zone_bounds(zones->lod, rec.particle_count);
    std::size_t z = 0;
    bool reported = false;
    for (std::size_t i = 0; i < buf.size() && !reported; ++i) {
      while (i >= bounds[z + 1]) ++z;
      for (std::size_t f = 0;
           f < meta.schema.field_count() && !reported; ++f) {
        const FieldDesc& fd = meta.schema.fields()[f];
        for (std::uint32_t c = 0; c < fd.components && !reported; ++c) {
          const double v =
              fd.type == FieldType::kF64
                  ? buf.get_f64(i, f, c)
                  : static_cast<double>(buf.get_f32(i, f, c));
          const FieldRange& zr = fz->zones[z * rc + meta.range_index(f, c)];
          const bool bad = v != v ? !(zr.min == -kInf && zr.max == kInf)
                                  : (v < zr.min || v > zr.max);
          if (bad) {
            report.errors.push_back(
                fmt("file '", rec.file_name(), "': field '", fd.name,
                    "' component ", c, " value ", v, " of record ", i,
                    " outside zone ", z, " range [", zr.min, ", ", zr.max,
                    "]"));
            reported = true;  // one example per file is enough
          }
        }
      }
    }
  }
}

}  // namespace

ValidationReport validate_dataset(const std::filesystem::path& dir,
                                  bool deep) {
  ValidationReport report;
  const bool journal_open = WriteJournal::present(dir);

  DatasetMetadata meta;
  try {
    meta = DatasetMetadata::load(dir);
  } catch (const Error& e) {
    if (journal_open) {
      report.errors.push_back(
          "write journal present and metadata unreadable: the last write "
          "did not complete (repair with check_and_repair)");
    }
    report.errors.push_back(e.what());
    return report;
  }

  std::uint64_t count_sum = 0;
  for (const FileRecord& rec : meta.files) {
    count_sum += rec.particle_count;
    const auto path = dir / rec.file_name();
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) {
      report.errors.push_back(
          fmt("data file '", rec.file_name(), "' is missing"));
      continue;
    }
    const std::uint64_t expect =
        rec.particle_count * meta.schema.record_size();
    if (size != expect) {
      report.errors.push_back(fmt("data file '", rec.file_name(), "' holds ",
                                  size, " bytes, metadata expects ", expect));
    }
    if (meta.has_bounds && !meta.domain.contains_box(rec.bounds)) {
      report.warnings.push_back(fmt("file '", rec.file_name(), "' bounds ",
                                    rec.bounds,
                                    " extend outside the domain ",
                                    meta.domain));
    }
    if (rec.particle_count == 0) {
      report.warnings.push_back(
          fmt("file '", rec.file_name(), "' holds no particles"));
    }
  }
  // The metadata loader already enforces count_sum == total_particles; a
  // mismatch here would mean the loader changed, so treat it as an error
  // anyway (defense in depth for hand-edited metadata).
  if (count_sum != meta.total_particles) {
    report.errors.push_back(fmt("file counts sum to ", count_sum,
                                " but the header claims ",
                                meta.total_particles));
  }

  if (meta.has_bounds) {
    for (std::size_t a = 0; a < meta.files.size(); ++a) {
      for (std::size_t b = a + 1; b < meta.files.size(); ++b) {
        if (meta.files[a].bounds.overlaps(meta.files[b].bounds)) {
          report.warnings.push_back(
              fmt("files '", meta.files[a].file_name(), "' and '",
                  meta.files[b].file_name(), "' have overlapping bounds"));
        }
      }
    }
  }

  // Zone-map sidecar: absence is benign (the planner degrades to
  // zone-free pruning), but a sidecar that fails its CRC or does not
  // match the metadata is detectable corruption.
  std::optional<ZoneMapTable> zones;
  if (ZoneMapTable::present(dir)) {
    try {
      ZoneMapTable table = ZoneMapTable::load(dir);
      if (!zones_consistent(table, meta)) {
        report.errors.push_back(
            "zone-map sidecar 'zones.spio' does not match the metadata "
            "(stale or partially rewritten dataset)");
      } else {
        zones = std::move(table);
      }
    } catch (const Error& e) {
      report.errors.push_back(e.what());
    }
  } else if (meta.has_zone_maps) {
    report.warnings.push_back(
        "metadata promises zone maps but 'zones.spio' is missing (queries "
        "fall back to zone-free planning)");
  }

  // An open journal over an otherwise-consistent dataset is a crash
  // between the metadata commit and the journal removal: the data is
  // whole, but the directory should be finalized.
  if (journal_open) {
    if (report.errors.empty()) {
      report.warnings.push_back(
          "stale write journal over a complete dataset (finalize with "
          "check_and_repair)");
    } else {
      report.errors.push_back(
          "write journal present: the last write did not complete (repair "
          "with check_and_repair)");
    }
  }

  if (deep && report.errors.empty()) {
    // Checksum pass first: it catches silent corruption (bit rot, torn
    // writes that kept the expected size) that the per-particle checks
    // below could misattribute to writer bugs.
    std::optional<ChecksumTable> crcs;
    if (ChecksumTable::present(dir)) {
      try {
        crcs = ChecksumTable::load(dir);
      } catch (const Error& e) {
        report.errors.push_back(e.what());
      }
    }
    if (crcs) {
      for (const FileRecord& rec : meta.files) {
        const auto want = crcs->crc_for(rec.aggregator_rank);
        if (!want) {
          report.warnings.push_back(
              fmt("file '", rec.file_name(),
                  "' has no entry in the checksum table"));
          continue;
        }
        try {
          const auto bytes = read_file(dir / rec.file_name());
          if (crc64(bytes) != *want) {
            report.errors.push_back(
                fmt("file '", rec.file_name(),
                    "' fails its recorded checksum: silent data corruption"));
          }
        } catch (const Error& e) {
          report.errors.push_back(e.what());
        }
      }
    }
  }

  if (deep && report.errors.empty()) {
    const Dataset ds = Dataset::open(dir);
    for (int fi = 0; fi < ds.file_count(); ++fi)
      deep_check_file(ds, fi, zones ? &*zones : nullptr, report);
  }
  return report;
}

}  // namespace spio
