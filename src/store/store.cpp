#include "store/store.hpp"

#include <unistd.h>

#include <filesystem>

#include "support/metrics.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace gp::store {

namespace {

constexpr u32 kArtifactMagic = 0x46415047;  // "GPAF"
constexpr u32 kManifestMagic = 0x464D5047;  // "GPMF"
const char* kManifestName = "manifest.gpm";

std::string hex16(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

ArtifactStore::ArtifactStore(std::string dir, u32 version)
    : dir_(std::move(dir)), version_(version) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; puts report
  load_manifest();
}

std::string ArtifactStore::key(const std::string& stage,
                               const serial::Writer& material) const {
  serial::Writer w;
  w.put_u32(version_);
  w.put_str(stage);
  w.put_raw(material.bytes());
  return stage + "-" + hex16(serial::fnv1a(w.bytes()));
}

void ArtifactStore::bump(u64 Stats::*field, u64 n) {
  stats_.*field += n;
  for (const metrics::CounterField<Stats>& f : Stats::kCounters)
    if (f.field == field)
      metrics::registry().counter(std::string("store.") + f.name).add(n);
}

std::string ArtifactStore::path_for(const std::string& key) const {
  return dir_ + "/" + key + ".gpa";
}

Status ArtifactStore::put(const std::string& key,
                          const std::vector<std::vector<u8>>& records) {
  trace::Span span("store.put", "io");
  serial::Writer w;
  w.put_u32(kArtifactMagic);
  w.put_u32(version_);
  serial::Writer header;
  header.put_u64(static_cast<u64>(::getpid()));
  header.put_str(key);
  header.put_u32(static_cast<u32>(records.size()));
  serial::put_record(w, header.bytes());
  for (const auto& rec : records) serial::put_record(w, rec);

  std::lock_guard<std::mutex> lock(mu_);
  Status st = serial::write_file_atomic(path_for(key), w.bytes());
  if (!st.ok()) {
    bump(&Stats::put_failures);
    return st;
  }
  bump(&Stats::puts);
  bump(&Stats::bytes_written, w.size());
  // Manifest is updated strictly after the artifact is live: a crash (or
  // injected rename fault) between the two leaves an orphan file, which
  // get() classifies as stale and rebuilds — never a half-trusted entry.
  manifest_[key] = {w.size(), serial::crc32(w.bytes())};
  return save_manifest_locked();
}

std::optional<Artifact> ArtifactStore::get(const std::string& key) {
  trace::Span span("store.get", "io");
  std::lock_guard<std::mutex> lock(mu_);
  const std::string path = path_for(key);
  auto it = manifest_.find(key);
  if (it == manifest_.end()) {
    std::error_code ec;
    if (std::filesystem::exists(path, ec)) {
      // Orphan: written but never published in a manifest.
      bump(&Stats::stale);
    } else {
      bump(&Stats::misses);
    }
    return std::nullopt;
  }

  auto bytes = serial::read_file(path);
  if (!bytes.ok()) {
    bump(&Stats::misses);
    manifest_.erase(it);
    return std::nullopt;
  }
  // Whole-file cross-check against the manifest first: catches truncation
  // and stale files even when the damage lands in padding the record CRCs
  // would not cover.
  const auto& data = bytes.value();
  auto drop = [&](u64 Stats::*why) -> std::optional<Artifact> {
    bump(why);
    manifest_.erase(it);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    save_manifest_locked().ok();  // best effort
    return std::nullopt;
  };
  if (data.size() != it->second.size ||
      serial::crc32(data) != it->second.crc)
    return drop(&Stats::corrupt);

  serial::Reader r(data);
  if (r.get_u32() != kArtifactMagic) return drop(&Stats::corrupt);
  if (r.get_u32() != version_) return drop(&Stats::stale);
  auto header = serial::get_record(r);
  if (!header) return drop(&Stats::corrupt);
  serial::Reader hr(*header);
  const u64 writer_pid = hr.get_u64();
  const std::string stored_key = hr.get_str();
  const u32 count = hr.get_u32();
  if (!hr.ok() || !hr.at_end() || stored_key != key)
    return drop(&Stats::corrupt);

  Artifact art;
  art.same_process = writer_pid == static_cast<u64>(::getpid());
  art.records.reserve(count);
  for (u32 i = 0; i < count; ++i) {
    auto rec = serial::get_record(r);
    if (!rec) return drop(&Stats::corrupt);
    art.records.push_back(std::move(*rec));
  }
  if (!r.at_end()) return drop(&Stats::corrupt);

  bump(&Stats::bytes_read, data.size());
  bump(art.same_process ? &Stats::hits : &Stats::resumes);
  return art;
}

void ArtifactStore::load_manifest() {
  manifest_.clear();
  auto bytes = serial::read_file(dir_ + "/" + kManifestName);
  if (!bytes.ok()) return;  // first run (or unreadable): start empty
  serial::Reader r(bytes.value());
  if (r.get_u32() != kManifestMagic || r.get_u32() != version_) return;
  auto payload = serial::get_record(r);
  if (!payload || !r.at_end()) return;
  serial::Reader pr(*payload);
  const u32 count = pr.get_u32();
  std::map<std::string, ManifestEntry> loaded;
  for (u32 i = 0; i < count; ++i) {
    const std::string key = pr.get_str();
    ManifestEntry e;
    e.size = pr.get_u64();
    e.crc = pr.get_u32();
    if (!pr.ok() || key.empty()) return;  // corrupt manifest: trust nothing
    loaded.emplace(key, e);
  }
  if (!pr.at_end()) return;
  manifest_ = std::move(loaded);
}

Status ArtifactStore::save_manifest_locked() {
  serial::Writer payload;
  payload.put_u32(static_cast<u32>(manifest_.size()));
  for (const auto& [key, e] : manifest_) {
    payload.put_str(key);
    payload.put_u64(e.size);
    payload.put_u32(e.crc);
  }
  serial::Writer w;
  w.put_u32(kManifestMagic);
  w.put_u32(version_);
  serial::put_record(w, payload.bytes());
  return serial::write_file_atomic(dir_ + "/" + kManifestName, w.bytes());
}

}  // namespace gp::store
