// Versioned, checksummed on-disk artifact store: the durable half of
// checkpoint/resume.
//
// An artifact is a list of byte records (a gadget pool, a chain list)
// filed under a content-hash key of (input bytes, stage options, format
// version). Invariants the rest of the system leans on:
//
//  - Nothing on disk is ever trusted. Every record carries its own CRC32,
//    the file header pins magic + format version + key, and the manifest
//    cross-checks the whole file's size and CRC. A truncated, bit-flipped,
//    version-bumped or stale file reads as *absent* — get() returns
//    nullopt and the caller recomputes; corruption is counted, never
//    propagated.
//  - Torn writes are invisible. Artifact files and the manifest are
//    published with temp-file + rename (serial::write_file_atomic), and an
//    artifact is only trusted once its manifest entry exists — the
//    manifest is written after the artifact, so a crash between the two
//    leaves an orphan file that is treated as missing.
//  - Keys are pure content hashes. The same (binary image, options,
//    version) always maps to the same key, so a new process resumes
//    whatever an interrupted one finished, and unrelated inputs can share
//    one store directory.
//
// The store distinguishes a *cache hit* (artifact written by this process)
// from a *resume* (written by an earlier, presumably interrupted process)
// via the writer pid recorded in the header — core::StageReport surfaces
// both counters.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/metrics.hpp"
#include "support/serial.hpp"
#include "support/status.hpp"

namespace gp::store {

/// Bumped whenever any serialized layout changes; artifacts from another
/// version are stale by definition.
constexpr u32 kFormatVersion = 1;

struct Stats {
  u64 hits = 0;         // artifact served (same process)
  u64 resumes = 0;      // artifact served (written by another process)
  u64 misses = 0;       // no artifact (or unreadable file)
  u64 corrupt = 0;      // CRC/framing parse failure -> dropped, recomputed
  u64 stale = 0;        // version/manifest mismatch or orphan file
  u64 puts = 0;
  u64 put_failures = 0;
  u64 bytes_read = 0;     // artifact file bytes served by get()
  u64 bytes_written = 0;  // artifact file bytes published by put()

  /// Every counter, once: the store bumps the field and the registry's
  /// "store.<name>" together, and since() diffs this list.
  static constexpr metrics::CounterField<Stats> kCounters[] = {
      {"hits", &Stats::hits},
      {"resumes", &Stats::resumes},
      {"misses", &Stats::misses},
      {"corrupt", &Stats::corrupt},
      {"stale", &Stats::stale},
      {"puts", &Stats::puts},
      {"put_failures", &Stats::put_failures},
      {"bytes_read", &Stats::bytes_read},
      {"bytes_written", &Stats::bytes_written},
  };

  /// Field-wise difference (*this - baseline). Store handles are shared by
  /// every session on one directory; a session reports the activity of its
  /// own window by snapshotting stats at open and diffing at close.
  Stats since(const Stats& b) const {
    Stats d;
    for (const metrics::CounterField<Stats>& f : kCounters)
      d.*f.field = this->*f.field - b.*f.field;
    return d;
  }
};

struct Artifact {
  std::vector<std::vector<u8>> records;
  /// True when the artifact was written by this process (cache hit rather
  /// than a cross-process resume).
  bool same_process = false;
};

class ArtifactStore {
 public:
  /// Creates `dir` (and parents) if needed and loads the manifest; an
  /// unreadable or corrupt manifest starts empty (existing artifacts then
  /// read as stale and are rebuilt).
  explicit ArtifactStore(std::string dir, u32 version = kFormatVersion);

  /// Content-hash key: fnv1a(version || stage || material). The returned
  /// string is filename-safe ("<stage>-<hex16>").
  std::string key(const std::string& stage,
                  const serial::Writer& material) const;

  /// Persist `records` under `key` (atomic write + manifest update).
  Status put(const std::string& key,
             const std::vector<std::vector<u8>>& records);

  /// Load and fully verify the artifact under `key`; nullopt on miss,
  /// corruption, truncation or version mismatch (failed artifacts are
  /// dropped from the manifest so the rebuilt value replaces them).
  std::optional<Artifact> get(const std::string& key);

  const std::string& dir() const { return dir_; }
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct ManifestEntry {
    u64 size = 0;
    u32 crc = 0;
  };

  /// Adds `n` to `field` and to the registry's "store.<name>". Caller
  /// holds mu_.
  void bump(u64 Stats::*field, u64 n = 1);
  std::string path_for(const std::string& key) const;
  void load_manifest();
  Status save_manifest_locked();

  std::string dir_;
  u32 version_;
  std::map<std::string, ManifestEntry> manifest_;
  mutable std::mutex mu_;
  Stats stats_;
};

}  // namespace gp::store
