#include "obs/access_profile.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace spio::obs {

namespace {

constexpr auto kRx = std::memory_order_relaxed;

int latency_bucket(std::uint64_t us) {
  const int b = static_cast<int>(std::bit_width(us));
  return b < AccessProfiler::kLatencyBuckets ? b
                                             : AccessProfiler::kLatencyBuckets - 1;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

JsonValue vec_json(const Vec3d& v) {
  JsonValue a = JsonValue::array();
  a.push_back(JsonValue::number(v.x));
  a.push_back(JsonValue::number(v.y));
  a.push_back(JsonValue::number(v.z));
  return a;
}

JsonValue box_json(const Box3& b) {
  JsonValue v = JsonValue::object();
  v.set("lo", vec_json(b.lo));
  v.set("hi", vec_json(b.hi));
  return v;
}

}  // namespace

AccessProfiler& AccessProfiler::instance() {
  // Leaked (see Tracer): the SPIO_PROFILE exit writer is registered with
  // std::atexit *during* construction, so it would run after a static
  // instance's destructor and serialize freed state.
  static AccessProfiler* p = new AccessProfiler();
  return *p;
}

AccessProfiler::AccessProfiler() { init_from_env(); }

void AccessProfiler::init_from_env() {
  const char* env = std::getenv("SPIO_PROFILE");
  if (env != nullptr && *env != '\0') set_detailed(true, env);
}

void AccessProfiler::set_detailed(bool on, std::string path) {
  if (!on) {
    detailed_.store(false, kRx);
    return;
  }
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    if (!path.empty()) {
      std::error_code ec;
      if (std::filesystem::is_directory(path, ec))
        path = (std::filesystem::path(path) / "profile.spio.json").string();
      path_ = std::move(path);
      if (!exit_writer_registered_) {
        exit_writer_registered_ = true;
        std::atexit([] {
          // A throw here is std::terminate; a profile is diagnostics and
          // must never turn a clean exit into an abort.
          try {
            AccessProfiler& p = AccessProfiler::instance();
            const std::string out = p.profile_path();
            if (!out.empty() && !p.write(out))
              std::fprintf(stderr, "spio: access profile write failed: %s\n",
                           out.c_str());
          } catch (const std::exception& e) {
            std::fprintf(stderr, "spio: access profile write failed: %s\n",
                         e.what());
          }
        });
      }
    }
  }
  detailed_.store(true, kRx);
}

std::string AccessProfiler::profile_path() const {
  std::lock_guard<std::mutex> lk(reg_mu_);
  return path_;
}

int AccessProfiler::register_dataset(const std::string& dir, const Box3& domain,
                                     std::uint64_t record_size, bool has_bounds,
                                     std::vector<FileInfo> files) {
  std::lock_guard<std::mutex> lk(reg_mu_);
  for (const DatasetReg& d : datasets_)
    if (d.dir == dir && d.files.size() == files.size()) return d.base;
  if (next_slot_ + static_cast<int>(files.size()) > kMaxSlots) return -1;
  if (slots_.load(std::memory_order_acquire) == nullptr) {
    // One full-size table for the process lifetime, never freed: record
    // sites read it with a single acquire load and no further fencing.
    slots_.store(new FileSlot[kMaxSlots], std::memory_order_release);
  }
  DatasetReg reg;
  reg.dir = dir;
  reg.domain = domain;
  reg.record_size = record_size;
  reg.has_bounds = has_bounds;
  reg.base = next_slot_;
  reg.files = std::move(files);
  next_slot_ += static_cast<int>(reg.files.size());
  datasets_.push_back(std::move(reg));
  return datasets_.back().base;
}

void AccessProfiler::record_access(int base, int file_index,
                                   const FileAccess& a) {
  if (!enabled_.load(kRx)) return;
  FileSlot* slots = slots_.load(std::memory_order_acquire);
  const int slot = base + file_index;
  if (base < 0 || slots == nullptr || slot < 0 || slot >= kMaxSlots) {
    unattributed_.fetch_add(1, kRx);
    return;
  }
  FileSlot& s = slots[slot];
  s.accesses.fetch_add(1, kRx);
  s.bytes_scanned.fetch_add(a.bytes_scanned, kRx);
  s.bytes_used.fetch_add(a.bytes_used, kRx);
  const bool disk =
      a.outcome == AccessOutcome::kBypass || a.outcome == AccessOutcome::kMiss;
  std::uint64_t fetched = 0;
  if (disk) {
    fetched = a.bytes_scanned;
    s.bytes_fetched.fetch_add(fetched, kRx);
    s.fetch_us_hist[latency_bucket(a.fetch_us)].fetch_add(1, kRx);
  }
  switch (a.outcome) {
    case AccessOutcome::kBypass:
      s.bypasses.fetch_add(1, kRx);
      break;
    case AccessOutcome::kHit:
      s.hits.fetch_add(1, kRx);
      break;
    case AccessOutcome::kMiss:
      s.misses.fetch_add(1, kRx);
      break;
    case AccessOutcome::kFollower:
      s.followers.fetch_add(1, kRx);
      break;
  }
  if (a.had_mirror) s.mirror_fetches.fetch_add(1, kRx);
  s.last_touch_us.store(static_cast<std::uint64_t>(now_us()), kRx);

  if (!detailed()) return;
  const std::uint64_t qid = current_query_id();
  if (qid == 0) return;
  std::lock_guard<std::mutex> lk(query_mu_);
  QueryRecord* q = find_open_locked(qid);
  if (q == nullptr) return;
  QueryFile& f = query_file_locked(*q, slot);
  f.bytes_scanned += a.bytes_scanned;
  f.bytes_fetched += fetched;
  f.bytes_used += a.bytes_used;
  q->bytes_scanned += a.bytes_scanned;
  q->bytes_fetched += fetched;
  q->bytes_used += a.bytes_used;
  q->fetch_us += a.fetch_us;
  q->filter_us += a.filter_us;
  q->merge_us += a.merge_us;
}

void AccessProfiler::complete_query(std::uint64_t qid, std::uint64_t wait_us,
                                    std::uint64_t latency_us,
                                    std::size_t waiters) {
  if (!detailed()) return;
  std::lock_guard<std::mutex> lk(query_mu_);
  auto annotate = [&](QueryRecord& q) {
    q.served = true;
    q.wait_us = wait_us;
    q.latency_us = latency_us;
    q.waiters = static_cast<std::uint64_t>(waiters);
  };
  for (auto it = finished_.rbegin(); it != finished_.rend(); ++it) {
    if (it->qid == qid) {
      annotate(*it);
      return;
    }
  }
  if (QueryRecord* q = find_open_locked(qid)) annotate(*q);
}

bool AccessProfiler::begin_query(std::uint64_t qid, const char* kind) {
  std::lock_guard<std::mutex> lk(query_mu_);
  if (find_open_locked(qid) != nullptr) return false;  // nested entry point
  if (finished_.size() >= kMaxQueryRecords) {
    ++queries_dropped_;
    return false;
  }
  QueryRecord q;
  q.qid = qid;
  q.kind = kind;
  q.start_us = now_us();
  open_.push_back(std::move(q));
  return true;
}

void AccessProfiler::finish_query(std::uint64_t qid, std::uint64_t total_us) {
  std::lock_guard<std::mutex> lk(query_mu_);
  for (std::size_t i = 0; i < open_.size(); ++i) {
    if (open_[i].qid != qid) continue;
    open_[i].total_us = total_us;
    open_[i].finished = true;
    if (finished_.size() < kMaxQueryRecords)
      finished_.push_back(std::move(open_[i]));
    else
      ++queries_dropped_;
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    return;
  }
}

AccessProfiler::QueryFile& AccessProfiler::query_file_locked(QueryRecord& q,
                                                             int slot) {
  for (QueryFile& f : q.files)
    if (f.slot == slot) return f;
  q.files.push_back(QueryFile{slot, 0, 0, 0});
  return q.files.back();
}

AccessProfiler::QueryRecord* AccessProfiler::find_open_locked(
    std::uint64_t qid) {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it)
    if (it->qid == qid) return &*it;
  return nullptr;
}

std::vector<AccessProfiler::FileSnapshot> AccessProfiler::snapshot_files(
    bool touched_only) const {
  std::vector<FileSnapshot> out;
  const FileSlot* slots = slots_.load(std::memory_order_acquire);
  if (slots == nullptr) return out;
  std::lock_guard<std::mutex> lk(reg_mu_);
  for (const DatasetReg& d : datasets_) {
    for (std::size_t i = 0; i < d.files.size(); ++i) {
      const FileSlot& s = slots[d.base + static_cast<int>(i)];
      FileSnapshot fs;
      fs.accesses = s.accesses.load(kRx);
      if (touched_only && fs.accesses == 0) continue;
      fs.dataset = d.dir;
      fs.name = d.files[i].name;
      fs.file_index = static_cast<int>(i);
      fs.bounds = d.files[i].bounds;
      fs.particle_count = d.files[i].particle_count;
      fs.bytes_scanned = s.bytes_scanned.load(kRx);
      fs.bytes_fetched = s.bytes_fetched.load(kRx);
      fs.bytes_used = s.bytes_used.load(kRx);
      fs.hits = s.hits.load(kRx);
      fs.misses = s.misses.load(kRx);
      fs.followers = s.followers.load(kRx);
      fs.bypasses = s.bypasses.load(kRx);
      fs.mirror_fetches = s.mirror_fetches.load(kRx);
      fs.last_touch_us = s.last_touch_us.load(kRx);
      out.push_back(std::move(fs));
    }
  }
  return out;
}

std::string AccessProfiler::dump() const {
  const FileSlot* slots = slots_.load(std::memory_order_acquire);

  JsonValue doc = JsonValue::object();
  doc.set("format", JsonValue::string("spio.access_profile"));
  doc.set("version", JsonValue::number(std::uint64_t{1}));
  doc.set("generated_us",
          JsonValue::number(static_cast<std::uint64_t>(now_us())));
  doc.set("unattributed", JsonValue::number(unattributed_.load(kRx)));

  struct {
    std::uint64_t accesses = 0;
    std::uint64_t bytes_scanned = 0;
    std::uint64_t bytes_fetched = 0;
    std::uint64_t bytes_used = 0;
  } tot;
  JsonValue datasets = JsonValue::array();
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    for (const DatasetReg& d : datasets_) {
      JsonValue jd = JsonValue::object();
      jd.set("dir", JsonValue::string(d.dir));
      jd.set("domain", box_json(d.domain));
      jd.set("record_size", JsonValue::number(d.record_size));
      jd.set("has_bounds", JsonValue::boolean(d.has_bounds));
      JsonValue files = JsonValue::array();
      for (std::size_t i = 0; i < d.files.size(); ++i) {
        const FileInfo& info = d.files[i];
        JsonValue jf = JsonValue::object();
        jf.set("name", JsonValue::string(info.name));
        jf.set("index", JsonValue::number(static_cast<std::uint64_t>(i)));
        jf.set("bounds", box_json(info.bounds));
        jf.set("particles", JsonValue::number(info.particle_count));
        std::uint64_t fetched = 0;
        std::uint64_t used = 0;
        if (slots != nullptr) {
          const FileSlot& s = slots[d.base + static_cast<int>(i)];
          const std::uint64_t accesses = s.accesses.load(kRx);
          const std::uint64_t scanned = s.bytes_scanned.load(kRx);
          fetched = s.bytes_fetched.load(kRx);
          used = s.bytes_used.load(kRx);
          tot.accesses += accesses;
          tot.bytes_scanned += scanned;
          tot.bytes_fetched += fetched;
          tot.bytes_used += used;
          jf.set("accesses", JsonValue::number(accesses));
          jf.set("bytes_scanned", JsonValue::number(scanned));
          jf.set("bytes_fetched", JsonValue::number(fetched));
          jf.set("bytes_used", JsonValue::number(used));
          jf.set("hits", JsonValue::number(s.hits.load(kRx)));
          jf.set("misses", JsonValue::number(s.misses.load(kRx)));
          jf.set("followers", JsonValue::number(s.followers.load(kRx)));
          jf.set("bypasses", JsonValue::number(s.bypasses.load(kRx)));
          jf.set("mirror_fetches",
                 JsonValue::number(s.mirror_fetches.load(kRx)));
          jf.set("last_touch_us", JsonValue::number(s.last_touch_us.load(kRx)));
          jf.set("read_amplification", JsonValue::number(ratio(fetched, used)));
          jf.set("scan_amplification", JsonValue::number(ratio(scanned, used)));
          // Trailing-zero-trimmed log2(us) histogram of disk fetches.
          int last = -1;
          for (int b = 0; b < kLatencyBuckets; ++b)
            if (s.fetch_us_hist[b].load(kRx) != 0) last = b;
          JsonValue hist = JsonValue::array();
          for (int b = 0; b <= last; ++b)
            hist.push_back(JsonValue::number(s.fetch_us_hist[b].load(kRx)));
          jf.set("fetch_us_hist", std::move(hist));
        }
        files.push_back(std::move(jf));
      }
      jd.set("files", std::move(files));
      datasets.push_back(std::move(jd));
    }
  }
  doc.set("datasets", std::move(datasets));

  JsonValue jt = JsonValue::object();
  jt.set("accesses", JsonValue::number(tot.accesses));
  jt.set("bytes_scanned", JsonValue::number(tot.bytes_scanned));
  jt.set("bytes_fetched", JsonValue::number(tot.bytes_fetched));
  jt.set("bytes_used", JsonValue::number(tot.bytes_used));
  jt.set("read_amplification",
         JsonValue::number(ratio(tot.bytes_fetched, tot.bytes_used)));
  jt.set("scan_amplification",
         JsonValue::number(ratio(tot.bytes_scanned, tot.bytes_used)));
  doc.set("totals", std::move(jt));

  // Slot -> (dataset dir, file name) for the per-query file entries.
  struct SlotName {
    const std::string* dir;
    const std::string* name;
    int index;
  };
  std::vector<SlotName> names;
  {
    std::lock_guard<std::mutex> lk(reg_mu_);
    names.resize(static_cast<std::size_t>(next_slot_), SlotName{});
    for (const DatasetReg& d : datasets_)
      for (std::size_t i = 0; i < d.files.size(); ++i)
        names[static_cast<std::size_t>(d.base) + i] =
            SlotName{&d.dir, &d.files[i].name, static_cast<int>(i)};

    std::lock_guard<std::mutex> qlk(query_mu_);
    JsonValue queries = JsonValue::array();
    for (const QueryRecord& q : finished_) {
      JsonValue jq = JsonValue::object();
      jq.set("qid", JsonValue::number(q.qid));
      jq.set("kind", JsonValue::string(q.kind));
      jq.set("bytes_scanned", JsonValue::number(q.bytes_scanned));
      jq.set("bytes_fetched", JsonValue::number(q.bytes_fetched));
      jq.set("bytes_used", JsonValue::number(q.bytes_used));
      jq.set("read_amplification",
             JsonValue::number(ratio(q.bytes_fetched, q.bytes_used)));
      jq.set("scan_amplification",
             JsonValue::number(ratio(q.bytes_scanned, q.bytes_used)));
      jq.set("fetch_us", JsonValue::number(q.fetch_us));
      jq.set("filter_us", JsonValue::number(q.filter_us));
      jq.set("merge_us", JsonValue::number(q.merge_us));
      jq.set("total_us", JsonValue::number(q.total_us));
      JsonValue jfiles = JsonValue::array();
      for (const QueryFile& f : q.files) {
        JsonValue jf = JsonValue::object();
        const std::size_t s = static_cast<std::size_t>(f.slot);
        if (f.slot >= 0 && s < names.size() && names[s].name != nullptr) {
          jf.set("file", JsonValue::string(*names[s].name));
          jf.set("index",
                 JsonValue::number(static_cast<std::uint64_t>(names[s].index)));
          jf.set("dataset", JsonValue::string(*names[s].dir));
        }
        jf.set("bytes_scanned", JsonValue::number(f.bytes_scanned));
        jf.set("bytes_fetched", JsonValue::number(f.bytes_fetched));
        jf.set("bytes_used", JsonValue::number(f.bytes_used));
        jfiles.push_back(std::move(jf));
      }
      jq.set("files", std::move(jfiles));
      if (q.served) {
        jq.set("wait_us", JsonValue::number(q.wait_us));
        jq.set("latency_us", JsonValue::number(q.latency_us));
        jq.set("waiters", JsonValue::number(q.waiters));
      }
      queries.push_back(std::move(jq));
    }
    doc.set("queries", std::move(queries));
    doc.set("queries_dropped", JsonValue::number(queries_dropped_));
  }

  return doc.dump(2);
}

bool AccessProfiler::write(const std::string& path) const {
  const std::string text = dump();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = std::fwrite(text.data(), 1, text.size(), f);
  const bool ok = n == text.size() && std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

void AccessProfiler::reset_counters() {
  FileSlot* slots = slots_.load(std::memory_order_acquire);
  if (slots != nullptr) {
    for (int i = 0; i < kMaxSlots; ++i) {
      FileSlot& s = slots[i];
      s.accesses.store(0, kRx);
      s.bytes_scanned.store(0, kRx);
      s.bytes_fetched.store(0, kRx);
      s.bytes_used.store(0, kRx);
      s.hits.store(0, kRx);
      s.misses.store(0, kRx);
      s.followers.store(0, kRx);
      s.bypasses.store(0, kRx);
      s.mirror_fetches.store(0, kRx);
      s.last_touch_us.store(0, kRx);
      for (int b = 0; b < kLatencyBuckets; ++b) s.fetch_us_hist[b].store(0, kRx);
    }
  }
  unattributed_.store(0, kRx);
  std::lock_guard<std::mutex> lk(query_mu_);
  open_.clear();
  finished_.clear();
  queries_dropped_ = 0;
}

ProfiledQuery::ProfiledQuery(const char* kind) {
  AccessProfiler& p = AccessProfiler::instance();
  if (!p.detailed() || !p.profiling_enabled()) return;
  qid_ = current_query_id();
  if (qid_ == 0) {
    qid_ = next_query_id();
    scope_.emplace(qid_);
  }
  t0_us_ = now_us();
  active_ = p.begin_query(qid_, kind);
}

ProfiledQuery::~ProfiledQuery() {
  if (!active_) return;
  const auto total = static_cast<std::uint64_t>(now_us() - t0_us_);
  AccessProfiler::instance().finish_query(qid_, total);
}

}  // namespace spio::obs
