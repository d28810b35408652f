#include "store/store.hpp"

#include <unistd.h>

#include <filesystem>

#include "support/metrics.hpp"
#include "support/str.hpp"
#include "support/trace.hpp"

namespace gp::store {

namespace {

constexpr u32 kArtifactMagic = 0x46415047;  // "GPAF"

}  // namespace

ArtifactStore::ArtifactStore(std::string dir, u32 version)
    : dir_(std::move(dir)), version_(version) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; puts report
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

  Status st = serial::write_file_atomic(path_for(key), w.bytes());
  if (!st.ok()) {
    bump(&Stats::put_failures);
    return st;
  }
  bump(&Stats::puts);
  bump(&Stats::bytes_written, w.size());
  return st;
}

std::optional<Artifact> ArtifactStore::get(const std::string& key) {
  trace::Span span("store.get", "io");
  const std::string path = path_for(key);
  auto bytes = serial::read_file(path);
  if (!bytes.ok()) {
    bump(&Stats::misses);
    return std::nullopt;
  }
  const auto& data = bytes.value();
  auto drop = [&](u64 Stats::*why) -> std::optional<Artifact> {
    bump(why);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return std::nullopt;
  };
  serial::Reader r(data);
  if (r.get_u32() != kArtifactMagic) return drop(&Stats::corrupt);
  if (r.get_u32() != version_) return drop(&Stats::stale);
  auto header = serial::get_record(r);
  if (!header) return drop(&Stats::corrupt);
  serial::Reader hr(*header);
  const u64 writer_pid = hr.get_u64();
  const std::string stored_key = hr.get_str();
  const u32 count = hr.get_u32();
  if (!hr.ok() || !hr.at_end()) return drop(&Stats::corrupt);
  if (stored_key != key) return drop(&Stats::stale);

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

}  // namespace gp::store
