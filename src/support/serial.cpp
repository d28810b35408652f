#include "support/serial.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/fault.hpp"

namespace gp::serial {

namespace {

std::array<u32, 256> make_crc_table() {
  std::array<u32, 256> t{};
  for (u32 i = 0; i < 256; ++i) {
    u32 c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[i] = c;
  }
  return t;
}

// Unique per call, not just per process: two threads publishing the same
// path must never share (and interleave writes into) one temp file.
std::string temp_name(const std::string& path) {
  static std::atomic<u64> seq{0};
  return path + ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

u32 crc32(std::span<const u8> bytes) {
  static const std::array<u32, 256> table = make_crc_table();
  u32 c = 0xFFFFFFFFu;
  for (const u8 b : bytes) c = table[(c ^ b) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

u64 fnv1a(std::span<const u8> bytes, u64 seed) {
  u64 h = seed;
  for (const u8 b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

void put_record(Writer& w, std::span<const u8> payload) {
  w.put_u32(static_cast<u32>(payload.size()));
  w.put_u32(crc32(payload));
  w.put_raw(payload);
}

std::optional<std::vector<u8>> get_record(Reader& r) {
  const u32 len = r.get_u32();
  const u32 crc = r.get_u32();
  auto payload = r.get_raw(len);
  if (!r.ok()) return std::nullopt;
  if (crc32(payload) != crc) {
    r.set_failed();
    return std::nullopt;
  }
  return std::vector<u8>(payload.begin(), payload.end());
}

Status write_file_atomic(const std::string& path,
                         std::span<const u8> bytes) {
  const std::string tmp = temp_name(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    return Status::internal("open failed: " + tmp + ": " +
                            std::strerror(errno));

  size_t to_write = bytes.size();
  // Injected torn write: persist only a prefix, then publish it anyway —
  // the store must detect the damage by CRC/length, not by luck.
  const bool torn =
      fault::enabled() && fault::should_fire(fault::Point::ShortWrite);
  if (torn) to_write /= 2;

  const size_t written =
      to_write ? std::fwrite(bytes.data(), 1, to_write, f) : 0;
  const bool write_ok = written == to_write;
  const bool flush_ok = std::fflush(f) == 0;
  std::fclose(f);
  if (!write_ok || !flush_ok) {
    std::remove(tmp.c_str());
    return Status::internal("short write: " + tmp);
  }

  if (fault::enabled() && fault::should_fire(fault::Point::RenameFail)) {
    std::remove(tmp.c_str());
    return Status::fault_injected("injected rename failure: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::internal("rename failed: " + path + ": " +
                            std::strerror(errno));
  }
  return {};
}

Result<std::vector<u8>> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    return Status::internal("open failed: " + path + ": " +
                            std::strerror(errno));
  std::vector<u8> out;
  std::array<u8, 64 * 1024> chunk;
  size_t n;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0)
    out.insert(out.end(), chunk.begin(), chunk.begin() + n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return Status::internal("read failed: " + path);

  if (!out.empty() && fault::enabled() &&
      fault::should_fire(fault::Point::ReadCorrupt)) {
    // Deterministic single-bit flip at a position derived from the content
    // length (no RNG: chaos runs must replay exactly).
    const size_t bit = (out.size() * 8 * 5 / 7 + 3) % (out.size() * 8);
    out[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
  }
  return out;
}

}  // namespace gp::serial
