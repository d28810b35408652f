#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/str.hpp"

namespace gp::serve {

namespace {

void put_type(serial::Writer& w, MsgType t) {
  w.put_u8(static_cast<u8>(t));
  w.put_u32(kProtocolVersion);
}

}  // namespace

std::string JobSpec::job_id() const {
  serial::Writer w;
  encode(w);
  return "job-" + hex16(serial::fnv1a(w.bytes()));
}

void JobSpec::encode(serial::Writer& w) const {
  // Only result-determining fields: two submits that would produce the same
  // chains must collide so the registry and the artifact store deduplicate
  // them (job_id() hashes exactly these bytes).
  w.put_str(program);
  w.put_str(source);
  w.put_str(obf);
  w.put_str(goal);
  w.put_u64(seed);
  w.put_f64(deadline_ms);
  w.put_u64(solver_checks);
  w.put_u64(sym_steps);
  w.put_u64(expr_nodes);
}

std::optional<JobSpec> JobSpec::decode(serial::Reader& r) {
  JobSpec s;
  s.program = r.get_str();
  s.source = r.get_str();
  s.obf = r.get_str();
  s.goal = r.get_str();
  s.seed = r.get_u64();
  s.deadline_ms = r.get_f64();
  s.solver_checks = r.get_u64();
  s.sym_steps = r.get_u64();
  s.expr_nodes = r.get_u64();
  if (!r.ok()) return std::nullopt;
  return s;
}

void JobOutcome::encode(serial::Writer& w) const {
  w.put_str(job_id);
  w.put_u8(status_code);
  w.put_str(status_msg);
  w.put_u64(digest);
  w.put_f64(seconds);
  w.put_bool(warm);
  w.put_u32(static_cast<u32>(chains_per_goal.size()));
  for (const auto& [name, count] : chains_per_goal) {
    w.put_str(name);
    w.put_u32(count);
  }
}

std::optional<JobOutcome> JobOutcome::decode(serial::Reader& r) {
  JobOutcome o;
  o.job_id = r.get_str();
  o.status_code = r.get_u8();
  o.status_msg = r.get_str();
  o.digest = r.get_u64();
  o.seconds = r.get_f64();
  o.warm = r.get_bool();
  const u32 n = r.get_u32();
  if (!r.ok() || n > 1024) return std::nullopt;
  for (u32 i = 0; i < n; ++i) {
    std::string name = r.get_str();
    const u32 count = r.get_u32();
    o.chains_per_goal.emplace_back(std::move(name), count);
  }
  if (!r.ok()) return std::nullopt;
  return o;
}

std::vector<u8> make_submit(const JobSpec& spec, bool stream) {
  serial::Writer w;
  put_type(w, MsgType::kSubmit);
  w.put_bool(stream);
  spec.encode(w);
  return w.take();
}

std::optional<SubmitMsg> parse_submit(serial::Reader& r) {
  SubmitMsg m;
  m.stream = r.get_bool();
  auto spec = JobSpec::decode(r);
  if (!spec) return std::nullopt;
  m.spec = std::move(*spec);
  return m;
}

std::vector<u8> make_attach(const std::string& job_id) {
  serial::Writer w;
  put_type(w, MsgType::kAttach);
  w.put_str(job_id);
  return w.take();
}

std::optional<std::string> parse_attach(serial::Reader& r) {
  std::string id = r.get_str();
  if (!r.ok()) return std::nullopt;
  return id;
}

std::vector<u8> make_simple(MsgType t) {
  serial::Writer w;
  put_type(w, t);
  return w.take();
}

std::vector<u8> make_accepted(const std::string& job_id, bool already_done) {
  serial::Writer w;
  put_type(w, MsgType::kAccepted);
  w.put_str(job_id);
  w.put_bool(already_done);
  return w.take();
}

std::optional<AcceptedMsg> parse_accepted(serial::Reader& r) {
  AcceptedMsg m;
  m.job_id = r.get_str();
  m.already_done = r.get_bool();
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<u8> make_shed(u32 retry_after_ms, const std::string& reason) {
  serial::Writer w;
  put_type(w, MsgType::kShed);
  w.put_u32(retry_after_ms);
  w.put_str(reason);
  return w.take();
}

std::optional<ShedMsg> parse_shed(serial::Reader& r) {
  ShedMsg m;
  m.retry_after_ms = r.get_u32();
  m.reason = r.get_str();
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<u8> make_progress(const std::string& job_id,
                              const std::string& stage) {
  serial::Writer w;
  put_type(w, MsgType::kProgress);
  w.put_str(job_id);
  w.put_str(stage);
  return w.take();
}

std::optional<ProgressMsg> parse_progress(serial::Reader& r) {
  ProgressMsg m;
  m.job_id = r.get_str();
  m.stage = r.get_str();
  if (!r.ok()) return std::nullopt;
  return m;
}

std::vector<u8> make_result(const JobOutcome& outcome) {
  serial::Writer w;
  put_type(w, MsgType::kResult);
  outcome.encode(w);
  return w.take();
}

std::optional<JobOutcome> parse_result(serial::Reader& r) {
  return JobOutcome::decode(r);
}

std::vector<u8> make_stats_reply(const std::string& json) {
  serial::Writer w;
  put_type(w, MsgType::kStatsReply);
  w.put_str(json);
  return w.take();
}

std::optional<std::string> parse_stats_reply(serial::Reader& r) {
  std::string json = r.get_str();
  if (!r.ok()) return std::nullopt;
  return json;
}

std::vector<u8> make_error(const std::string& message) {
  serial::Writer w;
  put_type(w, MsgType::kError);
  w.put_str(message);
  return w.take();
}

std::optional<std::string> parse_error(serial::Reader& r) {
  std::string msg = r.get_str();
  if (!r.ok()) return std::nullopt;
  return msg;
}

std::optional<MsgType> read_header(serial::Reader& r) {
  const u8 type = r.get_u8();
  const u32 version = r.get_u32();
  if (!r.ok() || version != kProtocolVersion) return std::nullopt;
  return static_cast<MsgType>(type);
}

// -- socket framing ----------------------------------------------------------

namespace {

Status send_all(int fd, const u8* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::internal(std::string("socket write: ") +
                            std::strerror(n < 0 ? errno : EPIPE));
  }
  return Status();
}

/// Read exactly len bytes. `eof_ok` distinguishes a clean close at a frame
/// boundary (Cancelled, "peer closed") from truncation mid-frame
/// (Internal).
Status recv_all(int fd, u8* data, size_t len, bool eof_ok) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::recv(fd, data + off, len - off, 0);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0 && off == 0 && eof_ok)
      return Status::cancelled("peer closed");
    return Status::internal(n == 0 ? "socket read: truncated frame"
                                   : std::string("socket read: ") +
                                         std::strerror(errno));
  }
  return Status();
}

}  // namespace

Status write_frame(int fd, std::span<const u8> payload) {
  if (fault::should_fire(fault::Point::SockWrite)) {
    static metrics::Counter& faults =
        metrics::registry().counter("serve.sock_write_faults");
    faults.add();
    return Status::fault_injected("injected sock_write fault");
  }
  serial::Writer w;
  w.put_u32(static_cast<u32>(payload.size()));
  w.put_u32(serial::crc32(payload));
  w.put_raw(payload);
  return send_all(fd, w.bytes().data(), w.size());
}

Result<std::vector<u8>> read_frame(int fd, u32 max_len) {
  if (fault::should_fire(fault::Point::SockRead)) {
    static metrics::Counter& faults =
        metrics::registry().counter("serve.sock_read_faults");
    faults.add();
    return Status::fault_injected("injected sock_read fault");
  }
  u8 header[8];
  if (Status st = recv_all(fd, header, sizeof header, /*eof_ok=*/true);
      !st.ok())
    return st;
  serial::Reader hr({header, sizeof header});
  const u32 len = hr.get_u32();
  const u32 crc = hr.get_u32();
  if (len > max_len)
    return Status::internal("frame length " + std::to_string(len) +
                            " exceeds limit " + std::to_string(max_len));
  std::vector<u8> payload(len);
  if (Status st = recv_all(fd, payload.data(), len, /*eof_ok=*/false);
      !st.ok())
    return st;
  if (serial::crc32(payload) != crc)
    return Status::internal("frame CRC mismatch");
  return payload;
}

}  // namespace gp::serve
