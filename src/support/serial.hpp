// Serialization primitives for the artifact store: a little-endian byte
// Writer/Reader pair, CRC32, length+CRC record framing, and torn-write-safe
// file I/O (temp file + rename discipline).
//
// Design rules the store depends on:
//  - Encoding is fixed-width little-endian: the byte stream for a given
//    value sequence is identical across runs, processes and thread counts
//    (checkpoint keys and the kill-resume determinism test hash these
//    bytes).
//  - The Reader never throws and never reads out of bounds: any overrun or
//    malformed length sets a sticky failure flag and subsequent reads
//    return zeros. Callers check ok() once at the end — a truncated or
//    bit-flipped input degrades to "artifact missing", never to UB.
//  - write_file_atomic() makes a torn write indistinguishable from a
//    missing file: bytes go to a temp name in the same directory and are
//    renamed over the target only after a successful full write, so a
//    crash mid-write leaves the target untouched. Each call gets its own
//    temp name (pid + process-wide sequence number), so concurrent writers
//    of one path never share a temp file; the last rename wins whole.
//
// Fault injection (support/fault): ShortWrite truncates the written bytes,
// RenameFail fails the publish step, ReadCorrupt flips one deterministic
// bit in a read_file() result — the chaos harness uses these to prove the
// store's per-record CRC, length and count checks actually catch
// real-world torn writes and media corruption.
#pragma once

#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hpp"

namespace gp::serial {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected).
/// crc32("123456789") == 0xCBF43926.
u32 crc32(std::span<const u8> bytes);

/// Append-only little-endian encoder.
class Writer {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v) { put_le(v, 2); }
  void put_u32(u32 v) { put_le(v, 4); }
  void put_u64(u64 v) { put_le(v, 8); }
  void put_i64(i64 v) { put_le(static_cast<u64>(v), 8); }
  void put_f64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put_u64(bits);
  }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  /// Length-prefixed byte block.
  void put_bytes(std::span<const u8> b) {
    put_u64(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  void put_str(std::string_view s) {
    put_bytes({reinterpret_cast<const u8*>(s.data()), s.size()});
  }
  /// Raw append, no length prefix (for framing headers).
  void put_raw(std::span<const u8> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  const std::vector<u8>& bytes() const { return buf_; }
  std::vector<u8> take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void put_le(u64 v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  std::vector<u8> buf_;
};

/// Bounds-checked little-endian decoder with a sticky failure flag.
class Reader {
 public:
  explicit Reader(std::span<const u8> bytes) : bytes_(bytes) {}

  u8 get_u8() { return static_cast<u8>(get_le(1)); }
  u16 get_u16() { return static_cast<u16>(get_le(2)); }
  u32 get_u32() { return static_cast<u32>(get_le(4)); }
  u64 get_u64() { return get_le(8); }
  i64 get_i64() { return static_cast<i64>(get_le(8)); }
  double get_f64() {
    const u64 bits = get_u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  bool get_bool() { return get_u8() != 0; }
  /// Length-prefixed block; a length that exceeds the remaining input is a
  /// failure (never a huge allocation from corrupted length bytes).
  std::span<const u8> get_bytes() {
    const u64 n = get_u64();
    if (failed_ || n > remaining()) {
      failed_ = true;
      return {};
    }
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::string get_str() {
    auto b = get_bytes();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  std::span<const u8> get_raw(size_t n) {
    if (failed_ || n > remaining()) {
      failed_ = true;
      return {};
    }
    auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  bool ok() const { return !failed_; }
  /// Force the stream into the failed state (semantic validation errors).
  void set_failed() { failed_ = true; }

 private:
  u64 get_le(int n) {
    if (failed_ || static_cast<size_t>(n) > remaining()) {
      failed_ = true;
      return 0;
    }
    u64 v = 0;
    for (int i = 0; i < n; ++i) v |= u64{bytes_[pos_ + i]} << (8 * i);
    pos_ += n;
    return v;
  }

  std::span<const u8> bytes_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// -- record framing ---------------------------------------------------------
// A record is [u32 payload_len][u32 crc32(payload)][payload]. Artifacts are
// a sequence of records, so a single flipped bit anywhere in a record is
// caught by that record's CRC and a truncation is caught by the length
// bounds check.

void put_record(Writer& w, std::span<const u8> payload);
/// Read and CRC-verify one record; nullopt (and Reader failure) on a short,
/// oversized or corrupted record.
std::optional<std::vector<u8>> get_record(Reader& r);

// -- file I/O ----------------------------------------------------------------

/// Write `bytes` to `path` atomically: a temp file unique to this call in
/// the same directory, flush, then rename over the target. Safe to call
/// concurrently for one path from many threads. On any failure (including
/// injected ShortWrite/RenameFail faults) the temp file is removed and the
/// previous target content, if any, is left intact.
Status write_file_atomic(const std::string& path, std::span<const u8> bytes);

/// Read a whole file; a non-Ok status for a missing/unreadable file. The
/// injected ReadCorrupt fault flips one deterministic bit of the result.
Result<std::vector<u8>> read_file(const std::string& path);

/// FNV-1a 64-bit over a byte span, for content-hash keys. Stable across
/// platforms (unlike std::hash).
u64 fnv1a(std::span<const u8> bytes, u64 seed = 0xcbf29ce484222325ULL);

}  // namespace gp::serial
