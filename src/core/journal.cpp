#include "core/journal.hpp"

#include <algorithm>
#include <string>

#include "core/metadata.hpp"
#include "core/query_plan/zone_map.hpp"
#include "obs/log.hpp"
#include "obs/postmortem.hpp"
#include "util/serialize.hpp"

namespace spio {

namespace {

void remove_if_exists(const std::filesystem::path& p) {
  std::error_code ec;
  std::filesystem::remove(p, ec);
  SPIO_CHECK(!ec, IoError,
             "cannot remove '" << p.string() << "': " << ec.message());
}

/// True when every data file promised by the metadata exists with exactly
/// the size the record implies.
bool files_intact(const std::filesystem::path& dir,
                  const DatasetMetadata& meta) {
  for (const FileRecord& rec : meta.files) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(dir / rec.file_name(), ec);
    if (ec) return false;
    if (size != rec.particle_count * meta.schema.record_size()) return false;
  }
  return true;
}

}  // namespace

void WriteJournal::begin(const std::filesystem::path& dir) {
  BinaryWriter w;
  w.write<std::uint32_t>(kMagic);
  w.write<std::uint32_t>(kVersion);
  write_file(dir / kFileName, w.bytes());
  // Only after the journal is durable may the previous commit be
  // invalidated — a crash in between must read as "incomplete", never as
  // "the old dataset is still whole". A stale postmortem bundle belongs
  // to the previous failed attempt; a fresh write restarts the
  // directory's failure history.
  remove_if_exists(dir / DatasetMetadata::kFileName);
  remove_if_exists(dir / ChecksumTable::kFileName);
  remove_if_exists(dir / ZoneMapTable::kFileName);
  remove_if_exists(dir / obs::kPostmortemFile);
}

void WriteJournal::commit(const std::filesystem::path& dir) {
  remove_if_exists(dir / kFileName);
}

bool WriteJournal::present(const std::filesystem::path& dir) {
  std::error_code ec;
  return std::filesystem::exists(dir / kFileName, ec) && !ec;
}

std::optional<std::uint64_t> ChecksumTable::crc_for(
    std::uint32_t aggregator_rank) const {
  for (const Entry& e : entries)
    if (e.aggregator_rank == aggregator_rank) return e.crc;
  return std::nullopt;
}

void ChecksumTable::save(const std::filesystem::path& dir) const {
  BinaryWriter w;
  w.write<std::uint32_t>(kMagic);
  w.write<std::uint32_t>(kVersion);
  w.write<std::uint64_t>(entries.size());
  for (const Entry& e : entries) {
    w.write<std::uint32_t>(e.aggregator_rank);
    w.write<std::uint64_t>(e.crc);
  }
  write_file(dir / kFileName, w.bytes());
}

ChecksumTable ChecksumTable::load(const std::filesystem::path& dir) {
  const auto bytes = read_file(dir / kFileName);
  BinaryReader r(bytes);
  SPIO_CHECK(r.read<std::uint32_t>() == kMagic, FormatError,
             "not a spio checksum table (bad magic)");
  const auto version = r.read<std::uint32_t>();
  SPIO_CHECK(version == kVersion, FormatError,
             "unsupported checksum table version " << version);
  const auto count = r.read<std::uint64_t>();
  // Each entry is 12 bytes on disk: bound the count before reserving.
  SPIO_CHECK(count <= r.remaining() / (sizeof(std::uint32_t) +
                                       sizeof(std::uint64_t)),
             FormatError,
             "checksum table claims " << count << " entries in "
                                      << r.remaining() << " bytes");
  ChecksumTable table;
  table.entries.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    Entry e;
    e.aggregator_rank = r.read<std::uint32_t>();
    e.crc = r.read<std::uint64_t>();
    table.entries.push_back(e);
  }
  SPIO_CHECK(r.remaining() == 0, FormatError,
             "checksum table holds " << r.remaining()
                                     << " trailing bytes after "
                                     << count << " entries");
  return table;
}

bool ChecksumTable::present(const std::filesystem::path& dir) {
  std::error_code ec;
  return std::filesystem::exists(dir / kFileName, ec) && !ec;
}

RepairOutcome check_and_repair(const std::filesystem::path& dir,
                               bool remove_partial) {
  if (!WriteJournal::present(dir)) return RepairOutcome::kClean;

  // Journal present: the dataset is complete iff the commit point was
  // reached (metadata parses) and every promised data file is intact.
  bool complete = false;
  try {
    complete = files_intact(dir, DatasetMetadata::load(dir));
  } catch (const Error&) {
    complete = false;
  }
  const auto log_outcome = [&](const char* outcome) {
    obs::log::Event(obs::log::Level::kInfo, "journal.repair")
        .kv("dir", dir.string())
        .kv("outcome", outcome);
  };
  if (complete) {
    WriteJournal::commit(dir);
    log_outcome("finalized_journal");
    return RepairOutcome::kFinalizedJournal;
  }
  if (!remove_partial) {
    // An incomplete dataset left standing should explain itself: when
    // the failing write could not dump a bundle (hard process crash),
    // lay one down now from this process's flight rings. A bundle the
    // writer already produced carries more context — keep it.
    if (!obs::postmortem_present(dir)) {
      obs::PostmortemInfo info;
      info.reason =
          "incomplete dataset detected by check_and_repair (journal "
          "present, metadata or data files missing)";
      info.phase = "repair";
      obs::save_postmortem(dir, info);
    }
    log_outcome("incomplete");
    return RepairOutcome::kIncomplete;
  }

  // Clear out every artifact the writer could have produced — the
  // postmortem bundle of the failed attempt included — leaving the
  // journal's removal for last so an interrupted repair stays detectable.
  remove_if_exists(dir / DatasetMetadata::kFileName);
  remove_if_exists(dir / ChecksumTable::kFileName);
  remove_if_exists(dir / ZoneMapTable::kFileName);
  remove_if_exists(dir / obs::kPostmortemFile);
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with("File_") && name.ends_with(".bin"))
      remove_if_exists(entry.path());
  }
  SPIO_CHECK(!ec, IoError,
             "cannot scan '" << dir.string() << "': " << ec.message());
  remove_if_exists(dir / WriteJournal::kFileName);
  log_outcome("removed_partial");
  return RepairOutcome::kRemovedPartial;
}

}  // namespace spio
