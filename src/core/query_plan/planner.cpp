#include "core/query_plan/planner.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "core/lod.hpp"
#include "util/error.hpp"

namespace spio {

std::uint64_t file_prefix_count(const DatasetMetadata& meta, int file_index,
                                int levels, int n_readers) {
  SPIO_EXPECTS(file_index >= 0 &&
               static_cast<std::size_t>(file_index) < meta.files.size());
  SPIO_EXPECTS(n_readers >= 1);
  const FileRecord& f = meta.files[static_cast<std::size_t>(file_index)];
  if (levels < 0) return f.particle_count;
  if (meta.total_particles == 0) return 0;
  const std::uint64_t global =
      lod_cumulative(meta.lod, n_readers, levels, meta.total_particles);
  // Proportional share of this file, rounded up so that reading "all
  // levels" always yields the whole file. 128-bit intermediate: counts can
  // be large enough for the product to overflow 64 bits.
  __extension__ typedef unsigned __int128 uint128_t;
  const uint128_t num = static_cast<uint128_t>(global) * f.particle_count +
                        meta.total_particles - 1;
  const auto share = static_cast<std::uint64_t>(num / meta.total_particles);
  return std::min(share, f.particle_count);
}

PlanMode plan_mode_from_env() {
  const char* v = std::getenv("SPIO_PLAN");
  return v != nullptr && std::strcmp(v, "linear") == 0 ? PlanMode::kLinear
                                                       : PlanMode::kPruned;
}

namespace {

/// The closed file-range test shared by both planners: can any record of
/// `f` pass every filter, judging by the recorded per-file min/max?
bool ranges_admit(const DatasetMetadata& meta, const FileRecord& f,
                  std::span<const RangeFilter> filters) {
  if (filters.empty() || !meta.has_field_ranges || f.field_ranges.empty())
    return true;
  for (const RangeFilter& rf : filters) {
    const std::size_t idx = meta.range_index(rf.field, rf.component);
    if (!f.field_ranges[idx].intersects(rf.lo, rf.hi)) return false;
  }
  return true;
}

/// Can any record of zone `zr` (one zone's component ranges) pass the
/// query? Closed on both sides: conservative for the half-open box
/// kernel AND for the `contains_box` whole-file fast path, which appends
/// upper-face records the half-open test would drop.
bool zone_admits(const DatasetMetadata& meta, const FieldRange* zr,
                 const Box3& box, std::span<const RangeFilter> filters) {
  for (int a = 0; a < 3; ++a) {
    const FieldRange& p =
        zr[meta.range_index(0, static_cast<std::uint32_t>(a))];
    const double lo = a == 0 ? box.lo.x : a == 1 ? box.lo.y : box.lo.z;
    const double hi = a == 0 ? box.hi.x : a == 1 ? box.hi.y : box.hi.z;
    if (!p.intersects(lo, hi)) return false;
  }
  for (const RangeFilter& rf : filters) {
    if (!zr[meta.range_index(rf.field, rf.component)].intersects(rf.lo,
                                                                 rf.hi))
      return false;
  }
  return true;
}

void check_plannable(const DatasetMetadata& meta) {
  // Same diagnosis as the metadata's linear path, raised before any work.
  SPIO_CHECK(meta.has_bounds, ConfigError,
             "dataset was written without spatial metadata; spatial "
             "queries require a full scan (use query_box_scan_all)");
}

}  // namespace

std::vector<int> QueryPlanner::intersecting(const DatasetMetadata& meta,
                                            const Box3& box) const {
  check_plannable(meta);
  if (mode_ == PlanMode::kLinear || tree_ == nullptr)
    return meta.files_intersecting(box);
  return tree_->query(box);
}

QueryPlan QueryPlanner::plan(const DatasetMetadata& meta, const Box3& box,
                             std::span<const RangeFilter> filters,
                             int levels, int n_readers) const {
  if (mode_ == PlanMode::kLinear)
    return plan_reference(meta, box, filters, levels, n_readers);
  check_plannable(meta);

  QueryPlan out;
  // File bounds are partition boxes, subsets of the domain: a query box
  // disjoint from the domain can hit nothing. Early-out before touching
  // any per-file metadata.
  if (!box.overlaps(meta.domain)) return out;

  const std::vector<int> candidates =
      tree_ != nullptr ? tree_->query(box) : meta.files_intersecting(box);
  out.files_considered = static_cast<int>(candidates.size());
  out.files.reserve(candidates.size());

  const std::uint64_t record = meta.schema.record_size();
  for (const int fi : candidates) {
    const FileRecord& f = meta.files[static_cast<std::size_t>(fi)];
    if (!ranges_admit(meta, f, filters)) {
      out.files_skipped += 1;
      continue;
    }
    const std::uint64_t want = file_prefix_count(meta, fi, levels, n_readers);
    std::uint64_t fetch = want;
    const FileZones* fz =
        zones_ != nullptr ? zones_->find(f.aggregator_rank) : nullptr;
    if (fz != nullptr && want > 0) {
      // Scan the zones that overlap the [0, want) prefix; the fetch ends
      // after the last zone that can still match. Prefixes are all a
      // reader can fetch, so only the tail is skippable.
      const std::size_t rc = meta.range_count();
      std::uint64_t keep = 0;
      for (std::uint64_t z = 0, b = 0; b < want; ++z) {
        const std::uint64_t e = zone_end(zones_->lod, z, b, f.particle_count);
        if (zone_admits(meta, fz->zones.data() + z * rc, box, filters))
          keep = std::min(want, e);
        b = e;
      }
      if (keep == 0) {
        // No zone of the prefix can match: skip the file entirely.
        out.files_skipped += 1;
        out.zone_pruned = true;
        continue;
      }
      if (keep < want) {
        out.lod_bytes_skipped += (want - keep) * record;
        out.zone_pruned = true;
        fetch = keep;
      }
    }
    out.files.push_back({fi, fetch, want});
  }
  return out;
}

QueryPlan QueryPlanner::plan_reference(const DatasetMetadata& meta,
                                       const Box3& box,
                                       std::span<const RangeFilter> filters,
                                       int levels, int n_readers) const {
  check_plannable(meta);
  QueryPlan out;
  out.used_linear = true;
  if (!box.overlaps(meta.domain)) return out;
  const std::vector<int> candidates = meta.files_intersecting(box);
  out.files_considered = static_cast<int>(candidates.size());
  out.files.reserve(candidates.size());
  for (const int fi : candidates) {
    const FileRecord& f = meta.files[static_cast<std::size_t>(fi)];
    if (!ranges_admit(meta, f, filters)) {
      out.files_skipped += 1;
      continue;
    }
    const std::uint64_t want = file_prefix_count(meta, fi, levels, n_readers);
    out.files.push_back({fi, want, want});
  }
  return out;
}

}  // namespace spio
