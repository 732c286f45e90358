#include "obs/run_record.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace spio::obs {

namespace {

std::filesystem::path record_path(const std::filesystem::path& dir) {
  return dir / kRunRecordFile;
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream f(path, std::ios::binary);
  SPIO_CHECK(f.good(), IoError,
             "cannot open run record '" << path.string() << "'");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void save(const std::filesystem::path& dir, const JsonValue& doc) {
  const auto path = record_path(dir);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  SPIO_CHECK(f.good(), IoError,
             "cannot write run record '" << path.string() << "'");
  f << doc.dump(2) << "\n";
  f.flush();
  SPIO_CHECK(f.good(), IoError,
             "failed writing run record '" << path.string() << "'");
}

JsonValue fresh_document() {
  JsonValue doc = JsonValue::object();
  doc.set("format", JsonValue::string("spio.run_record"));
  doc.set("version", JsonValue::number(std::int64_t{1}));
  return doc;
}

}  // namespace

JsonValue metrics_to_json(const MetricsRegistry::Snapshot& snapshot) {
  JsonValue out = JsonValue::object();
  for (const auto& [name, v] : snapshot.counters)
    out.set(name, JsonValue::number(v));
  for (const auto& [name, v] : snapshot.gauges)
    out.set(name, JsonValue::number(v));
  for (const auto& [name, h] : snapshot.histograms) {
    JsonValue hv = JsonValue::object();
    hv.set("count", JsonValue::number(h.count));
    hv.set("sum", JsonValue::number(h.sum));
    JsonValue buckets = JsonValue::array();
    for (const auto& [bound, n] : h.buckets) {
      JsonValue pair = JsonValue::array();
      pair.push_back(JsonValue::number(bound));
      pair.push_back(JsonValue::number(n));
      buckets.push_back(std::move(pair));
    }
    hv.set("buckets", std::move(buckets));
    out.set(name, std::move(hv));
  }
  return out;
}

void save_write_record(const std::filesystem::path& dataset_dir,
                       const WriteRunInfo& info,
                       const MetricsRegistry::Snapshot& metrics) {
  JsonValue doc = fresh_document();

  JsonValue w = JsonValue::object();
  w.set("ranks", JsonValue::number(std::int64_t{info.ranks}));
  w.set("schema_bytes", JsonValue::number(info.schema_bytes));
  w.set("partition_count",
        JsonValue::number(std::int64_t{info.partition_count}));

  JsonValue cfg = JsonValue::object();
  for (const auto& [k, v] : info.config) cfg.set(k, JsonValue::string(v));
  w.set("config", std::move(cfg));

  JsonValue phases = JsonValue::array();
  for (const WritePhaseSeconds& p : info.phases) {
    JsonValue row = JsonValue::object();
    row.set("rank", JsonValue::number(std::int64_t{p.rank}));
    row.set("setup", JsonValue::number(p.setup));
    row.set("meta_exchange", JsonValue::number(p.meta_exchange));
    row.set("particle_exchange", JsonValue::number(p.particle_exchange));
    row.set("reorder", JsonValue::number(p.reorder));
    row.set("file_io", JsonValue::number(p.file_io));
    row.set("metadata_io", JsonValue::number(p.metadata_io));
    phases.push_back(std::move(row));
  }
  w.set("phase_seconds", std::move(phases));

  JsonValue totals = JsonValue::object();
  totals.set("particles_sent", JsonValue::number(info.totals.particles_sent));
  totals.set("bytes_sent", JsonValue::number(info.totals.bytes_sent));
  totals.set("particles_written",
             JsonValue::number(info.totals.particles_written));
  totals.set("bytes_written", JsonValue::number(info.totals.bytes_written));
  totals.set("files_written", JsonValue::number(info.totals.files_written));
  w.set("totals", std::move(totals));

  JsonValue lb = JsonValue::object();
  lb.set("partition_particles_max",
         JsonValue::number(info.load_balance.partition_particles_max));
  lb.set("partition_particles_mean",
         JsonValue::number(info.load_balance.partition_particles_mean));
  lb.set("imbalance", JsonValue::number(info.load_balance.imbalance));
  w.set("load_balance", std::move(lb));

  w.set("counters", metrics_to_json(metrics));

  JsonValue env = JsonValue::object();
  env.set("transport", JsonValue::string("simmpi"));
  env.set("threads_as_ranks", JsonValue::boolean(true));
  w.set("environment", std::move(env));

  doc.set("write", std::move(w));
  save(dataset_dir, doc);
}

bool run_record_present(const std::filesystem::path& dataset_dir) {
  std::error_code ec;
  return std::filesystem::exists(record_path(dataset_dir), ec);
}

JsonValue load_run_record(const std::filesystem::path& dataset_dir) {
  JsonValue doc = JsonValue::parse(slurp(record_path(dataset_dir)));
  SPIO_CHECK(doc.is_object() && doc.contains("format") &&
                 doc.at("format").is_string() &&
                 doc.at("format").as_string() == "spio.run_record",
             FormatError,
             "'" << record_path(dataset_dir).string()
                 << "' is not an spio run record");
  return doc;
}

}  // namespace spio::obs
