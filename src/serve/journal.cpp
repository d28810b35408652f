#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>

#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/serial.hpp"

namespace gp::serve {

namespace {

constexpr u32 kJournalMagic = 0x4C4A5047;  // "GPJL"
constexpr size_t kHeaderBytes = 8;

std::vector<u8> header_bytes() {
  serial::Writer w;
  w.put_u32(kJournalMagic);
  w.put_u32(kJournalVersion);
  return w.take();
}

/// One framed record ready to append: [u32 len][u32 crc][payload].
std::vector<u8> frame(const std::vector<u8>& payload) {
  serial::Writer w;
  serial::put_record(w, payload);
  return w.take();
}

std::vector<u8> event_payload(JournalEvent e, const std::string& job_id) {
  serial::Writer w;
  w.put_u8(static_cast<u8>(e));
  w.put_str(job_id);
  return w.take();
}

std::vector<u8> admit_payload(const JobSpec& spec, const std::string& job_id,
                              u32 dead_incarnations) {
  serial::Writer w;
  w.put_u8(static_cast<u8>(JournalEvent::kAdmit));
  w.put_str(job_id);
  w.put_u32(dead_incarnations);
  spec.encode(w);
  return w.take();
}

int close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
  return -1;
}

}  // namespace

Journal::~Journal() {
  std::lock_guard<std::mutex> lock(mu_);
  fd_ = close_quiet(fd_);
}

Status Journal::open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) return Status::internal("journal already open");

  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path_).parent_path(), ec);

  ReplayResult result;
  std::vector<u8> bytes;
  if (auto read = serial::read_file(path_); read.ok())
    bytes = std::move(read.value());

  // Parse header + records; `good_end` tracks the byte position after the
  // last fully-verified record so a torn tail can be truncated away.
  size_t good_end = 0;
  bool valid_header = false;
  if (bytes.size() >= kHeaderBytes) {
    serial::Reader hr({bytes.data(), kHeaderBytes});
    valid_header = hr.get_u32() == kJournalMagic &&
                   hr.get_u32() == kJournalVersion;
  }
  if (!bytes.empty() && !valid_header) {
    // Foreign or version-bumped file: everything in it is unreadable by
    // definition. Rotate to a fresh log; recovery falls back to client
    // resubmission + artifact-store resume.
    result.rotated = true;
    metrics::registry().counter("serve.journal_rotated").add();
  }

  if (valid_header) {
    good_end = kHeaderBytes;
    serial::Reader r(
        {bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes});
    // first-admit order; index into result.jobs.
    std::map<std::string, size_t> index;
    for (;;) {
      if (r.at_end()) break;
      if (fault::should_fire(fault::Point::JournalReplay)) {
        metrics::registry().counter("serve.journal_replay_faults").add();
        break;  // injected corrupt record: end-of-log, never a crash
      }
      const auto rec = serial::get_record(r);
      if (!rec) break;  // short/oversized/CRC-failed record: torn tail
      serial::Reader pr(*rec);
      const u8 raw_event = pr.get_u8();
      const std::string id = pr.get_str();
      if (!pr.ok()) break;
      const auto event = static_cast<JournalEvent>(raw_event);
      bool parsed = true;
      switch (event) {
        case JournalEvent::kAdmit: {
          const u32 carried = pr.get_u32();
          auto spec = JobSpec::decode(pr);
          if (!pr.ok() || !spec) {
            parsed = false;
            break;
          }
          auto [it, fresh] = index.emplace(id, result.jobs.size());
          if (fresh) result.jobs.emplace_back();
          ReplayedJob& job = result.jobs[it->second];
          job = ReplayedJob{};  // a re-admit after Done restarts the cycle
          job.spec = std::move(*spec);
          job.job_id = id;
          job.dead_incarnations = carried;
          break;
        }
        case JournalEvent::kStart: {
          auto it = index.find(id);
          if (it != index.end() && result.jobs[it->second].open)
            result.jobs[it->second].dead_incarnations++;
          break;
        }
        case JournalEvent::kDone: {
          const u8 status_code = pr.get_u8();
          const u64 digest = pr.get_u64();
          if (!pr.ok()) {
            parsed = false;
            break;
          }
          auto it = index.find(id);
          if (it != index.end()) {
            ReplayedJob& job = result.jobs[it->second];
            job.open = false;
            job.done_status = status_code;
            job.done_digest = digest;
            // Its recorded incarnations completed; none of them is dead.
            job.dead_incarnations = 0;
          }
          break;
        }
        case JournalEvent::kQuarantined: {
          auto it = index.find(id);
          if (it != index.end()) {
            result.jobs[it->second].open = false;
            result.jobs[it->second].quarantined = true;
          }
          break;
        }
        case JournalEvent::kCleanShutdown:
          result.clean_shutdown = true;
          break;
        default:
          parsed = false;  // unknown event from the future: end-of-log
          break;
      }
      if (!parsed) break;
      result.records++;
      result.clean_shutdown = (event == JournalEvent::kCleanShutdown);
      good_end = kHeaderBytes + (bytes.size() - kHeaderBytes - r.remaining());
    }
  }
  result.torn_tail_bytes =
      result.rotated ? 0 : bytes.size() - std::min(bytes.size(), good_end);

  // Materialize a clean file: fresh header on rotation/creation, or the
  // verified prefix when a torn tail must be cut so future appends land
  // after the last good record. An intact log is left untouched.
  const bool needs_rewrite =
      bytes.empty() || result.rotated || result.torn_tail_bytes > 0;
  if (needs_rewrite) {
    std::vector<u8> keep;
    if (result.rotated || bytes.empty()) {
      keep = header_bytes();
    } else {
      keep.assign(bytes.begin(), bytes.begin() + static_cast<long>(good_end));
    }
    if (Status st = serial::write_file_atomic(path_, keep); !st.ok())
      return Status::internal("journal rewrite " + path_ + ": " +
                              st.message());
    size_ = keep.size();
  } else {
    size_ = bytes.size();
  }
  if (result.torn_tail_bytes > 0)
    metrics::registry().counter("serve.journal_torn_tails").add();

  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0)
    return Status::internal("journal open " + path_ + ": " +
                            std::strerror(errno));
  replay_ = std::move(result);
  return Status();
}

ReplayResult Journal::take_replay() {
  std::lock_guard<std::mutex> lock(mu_);
  ReplayResult r = replay_ ? std::move(*replay_) : ReplayResult{};
  replay_.reset();
  return r;
}

Status Journal::append_locked(const std::vector<u8>& payload) {
  if (fd_ < 0) return Status::internal("journal not open");
  const std::vector<u8> rec = frame(payload);
  if (fault::should_fire(fault::Point::JournalAppend)) {
    // Model a crash mid-append: persist only a prefix and leave it. The
    // next replay reads the torn record as end-of-log; the server keeps
    // serving non-durably and counts the failure.
    metrics::registry().counter("serve.journal_append_faults").add();
    const size_t torn = rec.size() / 2;
    const ssize_t n = ::write(fd_, rec.data(), torn);
    if (n > 0) size_ += static_cast<u64>(n);
    return Status::fault_injected("injected journal_append fault");
  }
  size_t off = 0;
  while (off < rec.size()) {
    const ssize_t n = ::write(fd_, rec.data() + off, rec.size() - off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    // Hard error (ENOSPC/EIO): truncate the partial record away so the log
    // stays parseable end-to-end, then report the failure.
    (void)::ftruncate(fd_, static_cast<off_t>(size_));
    return Status::internal(std::string("journal append: ") +
                            std::strerror(n < 0 ? errno : EIO));
  }
  size_ += rec.size();
  (void)::fdatasync(fd_);
  metrics::registry().counter("serve.journal_appends").add();
  return Status();
}

Status Journal::append_admit(const JobSpec& spec,
                             const std::string& job_id) {
  const std::vector<u8> payload = admit_payload(spec, job_id, 0);
  std::lock_guard<std::mutex> lock(mu_);
  return append_locked(payload);
}

Status Journal::append_start(const std::string& job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return append_locked(event_payload(JournalEvent::kStart, job_id));
}

Status Journal::append_done(const std::string& job_id, u8 status_code,
                            u64 digest) {
  serial::Writer w;
  w.put_u8(static_cast<u8>(JournalEvent::kDone));
  w.put_str(job_id);
  w.put_u8(status_code);
  w.put_u64(digest);
  std::lock_guard<std::mutex> lock(mu_);
  return append_locked(w.bytes());
}

Status Journal::compact(const std::vector<LiveJob>& live, bool clean) {
  serial::Writer out;
  out.put_raw(header_bytes());
  for (const LiveJob& job : live) {
    serial::put_record(
        out, admit_payload(job.spec, job.job_id, job.dead_incarnations));
    if (job.quarantined) {
      serial::put_record(out,
                         event_payload(JournalEvent::kQuarantined, job.job_id));
    } else if (job.started) {
      serial::put_record(out,
                         event_payload(JournalEvent::kStart, job.job_id));
    }
  }
  if (clean)
    serial::put_record(out,
                       event_payload(JournalEvent::kCleanShutdown, ""));

  std::lock_guard<std::mutex> lock(mu_);
  // write_file_atomic rides the same ShortWrite/RenameFail fault points as
  // the artifact store: a failed compaction leaves the old log intact.
  if (Status st = serial::write_file_atomic(path_, out.bytes()); !st.ok())
    return st;
  fd_ = close_quiet(fd_);
  return reopen_locked();
}

Status Journal::reopen_locked() {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0)
    return Status::internal("journal reopen " + path_ + ": " +
                            std::strerror(errno));
  struct stat st {};
  size_ = ::fstat(fd_, &st) == 0 ? static_cast<u64>(st.st_size) : 0;
  metrics::registry().counter("serve.journal_compactions").add();
  return Status();
}

u64 Journal::size_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

}  // namespace gp::serve
