// Versioned, checksummed on-disk artifact store: the durable half of
// checkpoint/resume.
//
// An artifact is a list of byte records (a gadget pool, a chain list)
// filed under a content-hash key of (input bytes, stage options, format
// version), one file per artifact. Invariants the rest of the system
// leans on:
//
//  - The artifact file is its own proof. Nothing on disk is trusted: the
//    file header pins magic + format version + key + record count, every
//    record carries its own length and CRC32, and the file must end
//    exactly after the last record. A truncated, bit-flipped,
//    version-bumped or mis-keyed file reads as *absent* — get() returns
//    nullopt and the caller recomputes; corruption is counted, never
//    propagated.
//  - Torn writes are invisible. Artifacts are published with temp-file +
//    rename (serial::write_file_atomic), so an artifact counts once its
//    rename lands: a crash before that leaves no file, a crash after it
//    leaves a complete one that any later process serves.
//  - Keys are pure content hashes. The same (binary image, options,
//    version) always maps to the same key, so a new process resumes
//    whatever an interrupted one finished, and unrelated inputs — or
//    several sessions and processes at once — can share one store
//    directory (concurrent writers of one key each publish a complete
//    file; the last rename wins).
//
// The store distinguishes a *cache hit* (artifact written by this process)
// from a *resume* (written by an earlier, presumably interrupted process)
// via the writer pid recorded in the header — core::StageReport surfaces
// both counters.
#pragma once

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
  u64 stale = 0;        // format version or key mismatch
  u64 puts = 0;
  u64 put_failures = 0;
  u64 bytes_read = 0;     // artifact file bytes served by get()
  u64 bytes_written = 0;  // artifact file bytes published by put()

  /// Every counter, once: the store bumps the field and the registry's
  /// "store.<name>" together.
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
};

struct Artifact {
  std::vector<std::vector<u8>> records;
  /// True when the artifact was written by this process (cache hit rather
  /// than a cross-process resume).
  bool same_process = false;
};

class ArtifactStore {
 public:
  /// Creates `dir` (and parents) if needed. An instance holds no index of
  /// the directory: every get() reads the artifact file itself.
  explicit ArtifactStore(std::string dir, u32 version = kFormatVersion);

  /// Content-hash key: fnv1a(version || stage || material). The returned
  /// string is filename-safe ("<stage>-<hex16>").
  std::string key(const std::string& stage,
                  const serial::Writer& material) const;

  /// Persist `records` under `key` (one atomic write).
  Status put(const std::string& key,
             const std::vector<std::vector<u8>>& records);

  /// Load and fully verify the artifact under `key`; nullopt on miss,
  /// corruption, truncation or version mismatch (a file that fails the
  /// checks is removed, so the rebuilt value replaces it).
  std::optional<Artifact> get(const std::string& key);

  const std::string& dir() const { return dir_; }
  /// This instance's counters. An instance is driven by one thread at a
  /// time (a Session owns its own), so the counters are plain fields.
  const Stats& stats() const { return stats_; }

 private:
  /// Adds `n` to `field` and to the registry's "store.<name>".
  void bump(u64 Stats::*field, u64 n = 1);
  std::string path_for(const std::string& key) const;

  std::string dir_;
  u32 version_;
  Stats stats_;
};

}  // namespace gp::store
