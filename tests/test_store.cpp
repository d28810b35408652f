// Artifact-store + checkpoint/resume coverage (ISSUE 3):
//  - serialization primitives (CRC vector, round trips, truncation safety),
//  - round trips of every artifact type through a *fresh* solver context,
//  - single-bit corruption at randomized offsets, truncation, version
//    bumps — every damage mode must read as "absent", never crash — and
//    complete artifacts served to any instance on the directory,
//  - the injected I/O faults (torn write, read bit-flip, rename failure),
//  - kill-resume determinism: a warm (checkpoint-served) pipeline emits
//    byte-identical payloads to a cold run,
//  - the stage supervisor's retry-with-widened-budgets loop.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "codegen/codegen.hpp"
#include "core/campaign.hpp"
#include "core/session.hpp"
#include "corpus/corpus.hpp"
#include "gadget/serialize.hpp"
#include "minic/minic.hpp"
#include "obfuscate/obfuscate.hpp"
#include "payload/serialize.hpp"
#include "store/store.hpp"
#include "subsume/subsume.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/serial.hpp"

namespace gp {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("gp_store_" + tag + "_" + std::to_string(::getpid()));
    std::error_code ec;
    fs::remove_all(path, ec);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

const char* kSource = R"(
int scale(int x, int k) { return x * k + 3; }
int clamp(int v, int lo, int hi) { if (v < lo) return lo; if (v > hi) return hi; return v; }
int a[16];
int main() {
  int i = 0;
  while (i < 16) { a[i] = clamp(scale(i, 37), 5, 900) & 0xff; i = i + 1; }
  int j = 0; int best = 0;
  while (j < 16) { if (a[j] > best) best = a[j]; j = j + 1; }
  out(best); return best;
})";

image::Image obfuscated_image() {
  auto prog = minic::compile_source(kSource);
  obf::obfuscate(prog, obf::Options::llvm_obf(7));
  return codegen::compile(prog);
}

// -- serialization primitives -------------------------------------------------

TEST(Crc32, MatchesTheIEEETestVector) {
  const std::string s = "123456789";
  EXPECT_EQ(serial::crc32({reinterpret_cast<const u8*>(s.data()), s.size()}),
            0xCBF43926u);
  EXPECT_EQ(serial::crc32({}), 0u);
}

TEST(Serial, WriterReaderRoundTripsEveryType) {
  serial::Writer w;
  w.put_u8(0xab);
  w.put_u16(0xbeef);
  w.put_u32(0xdeadbeef);
  w.put_u64(0x0123456789abcdefULL);
  w.put_i64(-42);
  w.put_f64(3.5);
  w.put_bool(true);
  w.put_str("hello");
  const std::vector<u8> blob{1, 2, 3};
  w.put_bytes(blob);

  serial::Reader r(w.bytes());
  EXPECT_EQ(r.get_u8(), 0xab);
  EXPECT_EQ(r.get_u16(), 0xbeef);
  EXPECT_EQ(r.get_u32(), 0xdeadbeefu);
  EXPECT_EQ(r.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_EQ(r.get_f64(), 3.5);
  EXPECT_TRUE(r.get_bool());
  EXPECT_EQ(r.get_str(), "hello");
  auto b = r.get_bytes();
  EXPECT_EQ(std::vector<u8>(b.begin(), b.end()), blob);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serial, OversizedLengthPrefixFailsInsteadOfAllocating) {
  serial::Writer w;
  w.put_u64(~u64{0});  // length prefix far past the end of the buffer
  serial::Reader r(w.bytes());
  EXPECT_TRUE(r.get_bytes().empty());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.get_u32(), 0u);  // sticky failure: reads keep returning zeros
}

TEST(Serial, TruncatedInputNeverReadsOutOfBounds) {
  serial::Writer w;
  w.put_u64(7);
  w.put_str("payload");
  const auto& full = w.bytes();
  for (size_t len = 0; len < full.size(); ++len) {
    serial::Reader r({full.data(), len});
    (void)r.get_u64();
    (void)r.get_str();
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

TEST(Serial, RecordSingleBitFlipIsAlwaysDetected) {
  std::vector<u8> payload(123);
  for (size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<u8>(i * 37);
  serial::Writer w;
  serial::put_record(w, payload);

  std::mt19937 rng(7);
  for (int trial = 0; trial < 256; ++trial) {
    auto bytes = w.bytes();
    const size_t bit = rng() % (bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    serial::Reader r(bytes);
    EXPECT_FALSE(serial::get_record(r).has_value()) << "flipped bit " << bit;
  }
}

TEST(Serial, ConcurrentAtomicWritesOfOnePathNeverTear) {
  // Four threads publish one path 50 times each, every call with its own
  // payload: each write must succeed, every read-back must be one whole
  // payload (whichever rename landed last), and no temp file may remain.
  TempDir dir("concurrent");
  const std::string path = dir.str() + "/one.gpa";
  auto payload = [](u32 id) {
    std::vector<u8> p(512 + id % 61);
    for (size_t i = 0; i < p.size(); ++i) p[i] = static_cast<u8>(id * 7 + i);
    serial::Writer w;
    w.put_u32(id);
    w.put_raw(p);
    return w.take();
  };
  constexpr u32 kThreads = 4, kWrites = 50;
  std::vector<u32> failed_writes(kThreads), torn_reads(kThreads);
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (u32 i = 0; i < kWrites; ++i) {
        if (!serial::write_file_atomic(path, payload(t * kWrites + i)).ok())
          ++failed_writes[t];
        auto back = serial::read_file(path);
        if (!back.ok() || back.value().size() < 4) {
          ++torn_reads[t];
          continue;
        }
        serial::Reader r(back.value());
        const u32 id = r.get_u32();
        if (id >= kThreads * kWrites || back.value() != payload(id))
          ++torn_reads[t];
      }
    });
  for (auto& th : threads) th.join();
  for (u32 t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failed_writes[t], 0u) << "thread " << t;
    EXPECT_EQ(torn_reads[t], 0u) << "thread " << t;
  }
  for (const auto& entry : fs::directory_iterator(dir.str()))
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
}

// -- artifact round trips -----------------------------------------------------

TEST(ArtifactRoundTrip, GadgetPoolThroughAFreshContext) {
  const auto img = obfuscated_image();
  solver::Context ctx;
  gadget::Extractor ex(ctx, img);
  auto pool = ex.extract();
  ASSERT_GT(pool.size(), 10u);

  const auto records = gadget::encode_pool(ctx, pool);
  // Decode into a fresh context, the way a resumed process starts.
  solver::Context ctx2;
  auto decoded = gadget::decode_pool(ctx2, records);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ((*decoded)[i].addr, pool[i].addr);
    EXPECT_EQ((*decoded)[i].len, pool[i].len);
    EXPECT_EQ((*decoded)[i].end, pool[i].end);
    EXPECT_EQ((*decoded)[i].clobbered, pool[i].clobbered);
    EXPECT_EQ((*decoded)[i].controlled, pool[i].controlled);
    EXPECT_EQ((*decoded)[i].path.size(), pool[i].path.size());
  }
  // Re-encoding from the fresh context is byte-identical: expressions replay
  // through the smart constructors in table order, so ids and bytes are a
  // pure function of the pool — the determinism kill-resume depends on.
  EXPECT_EQ(gadget::encode_pool(ctx2, *decoded), records);
}

// A Session canonicalizes a computed pool by compaction rather than by
// decoding its encoding; a resumed run decodes. Both must leave the same
// context and refs, for raw and minimized pools alike.
TEST(ArtifactRoundTrip, CompactionEqualsTheRoundTrip) {
  const std::pair<const char*, const char*> binaries[] = {
      {"hash_table", "none"},
      {"fibonacci", "llvm-obf"},
      {"state_machine", "virtualize"},
      {"bubble_sort", "tigress"},
  };
  // Canonicalize `pool` both ways, compare, and return the compacted pool.
  const auto check = [](const solver::Context& ctx,
                        const std::vector<gadget::Record>& pool,
                        solver::Context& out, const std::string& label) {
    std::vector<gadget::Record> compacted = pool;
    EXPECT_TRUE(gadget::compact_pool(ctx, compacted, out)) << label;
    solver::Context decoded_ctx;
    const auto decoded =
        gadget::decode_pool(decoded_ctx, gadget::encode_pool(ctx, pool));
    EXPECT_TRUE(decoded.has_value()) << label;
    if (!decoded) return compacted;
    EXPECT_EQ(out.num_nodes(), decoded_ctx.num_nodes()) << label;
    EXPECT_EQ(gadget::pool_refs(compacted), gadget::pool_refs(*decoded))
        << label;
    EXPECT_EQ(gadget::encode_pool(out, compacted),
              gadget::encode_pool(decoded_ctx, *decoded))
        << label;
    return compacted;
  };
  for (const auto& [program, profile] : binaries) {
    const std::string label = std::string(program) + "/" + profile;
    auto prog = minic::compile_source(corpus::by_name(program).source);
    obf::obfuscate(prog, core::profile_by_name(profile, /*seed=*/7));
    const image::Image img = codegen::compile(prog);

    solver::Context ctx;
    const auto raw = gadget::Extractor(ctx, img).extract();
    ASSERT_FALSE(raw.empty()) << label;
    solver::Context canon;
    const auto pool = check(ctx, raw, canon, label + " raw");
    const auto kept = subsume::minimize(canon, pool);
    solver::Context canon_kept;
    (void)check(canon, kept, canon_kept, label + " minimized");
  }
}

TEST(ArtifactRoundTrip, PoolDecodeRejectsBitFlipsAtRandomOffsets) {
  const auto img = obfuscated_image();
  solver::Context ctx;
  gadget::Extractor ex(ctx, img);
  auto pool = ex.extract();
  const auto records = gadget::encode_pool(ctx, pool);

  std::mt19937 rng(11);
  for (int trial = 0; trial < 32; ++trial) {
    auto damaged = records;
    auto& rec = damaged[rng() % damaged.size()];
    if (rec.empty()) continue;
    const size_t bit = rng() % (rec.size() * 8);
    rec[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    solver::Context fresh;
    // Either the corruption is structurally detected (nullopt) or it only
    // touched value bytes that decode to a *different* pool — never UB or
    // a crash. In the real store the per-record CRC rejects both before
    // decode ever runs; this exercises the decoder's own hardening.
    (void)gadget::decode_pool(fresh, damaged);
  }
}

TEST(ArtifactRoundTrip, ChainsSurviveAndBadIndicesAreRejected) {
  payload::Chain c;
  c.goal_name = "execve";
  c.gadgets = {3, 1, 4};
  c.payload = {0xde, 0xad, 0xbe, 0xef};
  c.entry = 0x400123;
  c.total_insts = 9;
  c.ret_gadgets = 2;
  c.ij_gadgets = 1;

  const auto records = payload::encode_chains({c});
  auto decoded = payload::decode_chains(records, /*library_size=*/5);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->size(), 1u);
  EXPECT_EQ((*decoded)[0].goal_name, c.goal_name);
  EXPECT_EQ((*decoded)[0].gadgets, c.gadgets);
  EXPECT_EQ((*decoded)[0].payload, c.payload);
  EXPECT_EQ((*decoded)[0].entry, c.entry);
  EXPECT_EQ((*decoded)[0].total_insts, c.total_insts);
  EXPECT_EQ((*decoded)[0].ret_gadgets, c.ret_gadgets);

  // A chain for a different (smaller) pool must not pass: index 4 out of a
  // 4-gadget library is stale data, not a usable chain.
  EXPECT_FALSE(payload::decode_chains(records, /*library_size=*/4).has_value());
  EXPECT_EQ(payload::encode_chains(*decoded), records);
}

// -- the store itself ---------------------------------------------------------

std::vector<std::vector<u8>> sample_records() {
  std::vector<std::vector<u8>> recs;
  recs.push_back({1, 2, 3});
  recs.push_back({});  // empty records are legal
  std::vector<u8> big(4096);
  for (size_t i = 0; i < big.size(); ++i) big[i] = static_cast<u8>(i);
  recs.push_back(std::move(big));
  return recs;
}

TEST(Store, PutThenGetRoundTripsSameProcess) {
  TempDir dir("roundtrip");
  store::ArtifactStore s(dir.str());
  serial::Writer material;
  material.put_str("input");
  const std::string key = s.key("extract", material);
  EXPECT_TRUE(s.put(key, sample_records()).ok());

  auto art = s.get(key);
  ASSERT_TRUE(art.has_value());
  EXPECT_EQ(art->records, sample_records());
  EXPECT_TRUE(art->same_process);
  EXPECT_EQ(s.stats().hits, 1u);
  EXPECT_EQ(s.stats().misses, 0u);
}

TEST(Store, KeysSeparateStagesAndMaterials) {
  TempDir dir("keys");
  store::ArtifactStore s(dir.str());
  serial::Writer a, b;
  a.put_u64(1);
  b.put_u64(2);
  EXPECT_NE(s.key("extract", a), s.key("extract", b));
  EXPECT_NE(s.key("extract", a), s.key("subsume", a));
  EXPECT_EQ(s.key("extract", a), s.key("extract", a));
}

TEST(Store, MissingKeyIsAMiss) {
  TempDir dir("miss");
  store::ArtifactStore s(dir.str());
  EXPECT_FALSE(s.get("extract-0000000000000000").has_value());
  EXPECT_EQ(s.stats().misses, 1u);
}

TEST(Store, SurvivesReopenAcrossInstances) {
  TempDir dir("reopen");
  std::string key;
  {
    store::ArtifactStore s(dir.str());
    serial::Writer m;
    m.put_str("x");
    key = s.key("plan", m);
    ASSERT_TRUE(s.put(key, sample_records()).ok());
  }
  store::ArtifactStore s2(dir.str());
  auto art = s2.get(key);
  ASSERT_TRUE(art.has_value());
  EXPECT_EQ(art->records, sample_records());
  // Same pid, so still a "hit"; the cross-process resume path is exercised
  // by scripts/tier1.sh (SIGKILL + re-run) where the pid really differs.
}

TEST(Store, SingleBitCorruptionAtRandomOffsetsIsDetected) {
  TempDir dir("corrupt");
  serial::Writer m;
  m.put_str("x");
  std::mt19937 rng(23);
  for (int trial = 0; trial < 24; ++trial) {
    store::ArtifactStore s(dir.str());
    const std::string key = s.key("extract", m);
    ASSERT_TRUE(s.put(key, sample_records()).ok());

    const std::string path = dir.str() + "/" + key + ".gpa";
    auto bytes = serial::read_file(path);
    ASSERT_TRUE(bytes.ok());
    auto damaged = bytes.value();
    const size_t bit = rng() % (damaged.size() * 8);
    damaged[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
    ASSERT_TRUE(serial::write_file_atomic(path, damaged).ok());

    EXPECT_FALSE(s.get(key).has_value()) << "flipped bit " << bit;
    EXPECT_EQ(s.stats().corrupt, 1u) << "flipped bit " << bit;
    // The damaged artifact was dropped; a re-put re-publishes cleanly.
    ASSERT_TRUE(s.put(key, sample_records()).ok());
    EXPECT_TRUE(s.get(key).has_value());
  }
}

TEST(Store, TruncationReadsAsAbsent) {
  metrics::set_enabled(true);
  metrics::registry().reset();
  TempDir dir("trunc");
  store::ArtifactStore s(dir.str());
  serial::Writer m;
  m.put_str("x");
  const std::string key = s.key("subsume", m);
  ASSERT_TRUE(s.put(key, sample_records()).ok());
  ASSERT_TRUE(s.get(key).has_value());
  EXPECT_FALSE(s.get("subsume-0000000000000000").has_value());

  const std::string path = dir.str() + "/" + key + ".gpa";
  auto bytes = serial::read_file(path);
  ASSERT_TRUE(bytes.ok());
  auto truncated = bytes.value();
  truncated.resize(truncated.size() / 2);
  ASSERT_TRUE(serial::write_file_atomic(path, truncated).ok());

  EXPECT_FALSE(s.get(key).has_value());
  EXPECT_EQ(s.stats().corrupt, 1u);

  // Each event is counted once, in the store's stats and the registry
  // alike.
  const store::Stats st = s.stats();
  EXPECT_EQ(st.puts, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.bytes_read, bytes.value().size());
  EXPECT_EQ(st.bytes_written, bytes.value().size());
  for (const auto& f : store::Stats::kCounters)
    EXPECT_EQ(metrics::registry().counter(std::string("store.") + f.name)
                  .value(),
              st.*f.field)
        << f.name;
}

TEST(Store, CompleteArtifactIsServedByAFreshInstance) {
  // Two instances open on one directory at once (two sessions, or two
  // processes) each publish an artifact; neither put may hide the other's
  // from a third instance opened afterwards. An artifact counts once its
  // rename lands: the file is the only record of it.
  TempDir dir("fresh");
  serial::Writer ma, mb;
  ma.put_str("a");
  mb.put_str("b");
  std::string key_a, key_b;
  {
    store::ArtifactStore s1(dir.str());
    store::ArtifactStore s2(dir.str());
    key_a = s1.key("extract", ma);
    key_b = s2.key("extract", mb);
    ASSERT_TRUE(s1.put(key_a, sample_records()).ok());
    ASSERT_TRUE(s2.put(key_b, sample_records()).ok());
  }
  store::ArtifactStore s3(dir.str());
  for (const std::string& key : {key_a, key_b}) {
    auto art = s3.get(key);
    ASSERT_TRUE(art.has_value()) << key;
    EXPECT_EQ(art->records, sample_records());
  }
  EXPECT_EQ(s3.stats().hits, 2u);
  EXPECT_EQ(s3.stats().stale, 0u);
  // The directory holds the artifacts and nothing else.
  for (const auto& entry : fs::directory_iterator(dir.str()))
    EXPECT_EQ(entry.path().extension(), ".gpa") << entry.path();
}

TEST(Store, VersionBumpInvalidatesOldArtifacts) {
  TempDir dir("version");
  std::string key;
  {
    store::ArtifactStore s(dir.str(), /*version=*/1);
    serial::Writer m;
    m.put_str("x");
    key = s.key("extract", m);
    ASSERT_TRUE(s.put(key, sample_records()).ok());
  }
  // A bumped format version must never deserialize v1 bytes: the file
  // header's version check reads the old artifact as stale.
  store::ArtifactStore s2(dir.str(), /*version=*/2);
  EXPECT_FALSE(s2.get(key).has_value());
  const auto stats = s2.stats();
  EXPECT_EQ(stats.stale + stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

// -- injected I/O faults ------------------------------------------------------

TEST(StoreFault, TornWriteIsIndistinguishableFromMissing) {
  TempDir dir("torn");
  store::ArtifactStore s(dir.str());
  serial::Writer m;
  m.put_str("x");
  const std::string key = s.key("extract", m);
  {
    fault::ScopedSpec spec("seed=9,write=1");
    // The injected short write publishes a half-written artifact; the
    // record length/CRC, record count and end-of-file checks must catch it.
    (void)s.put(key, sample_records()).ok();
    EXPECT_FALSE(s.get(key).has_value());
  }
  EXPECT_EQ(s.stats().hits, 0u);
  // Fault gone: the stage recomputes and re-publishes.
  ASSERT_TRUE(s.put(key, sample_records()).ok());
  EXPECT_TRUE(s.get(key).has_value());
}

TEST(StoreFault, ReadBitFlipIsDetectedAndDropped) {
  TempDir dir("readflip");
  store::ArtifactStore s(dir.str());
  serial::Writer m;
  m.put_str("x");
  const std::string key = s.key("plan", m);
  ASSERT_TRUE(s.put(key, sample_records()).ok());
  {
    fault::ScopedSpec spec("seed=9,read=1");
    EXPECT_FALSE(s.get(key).has_value());
  }
  EXPECT_GE(s.stats().corrupt, 1u);
  // The poisoned read dropped the artifact — by design (a store cannot
  // distinguish flaky media from rot); the caller recomputes and re-puts.
  ASSERT_TRUE(s.put(key, sample_records()).ok());
  EXPECT_TRUE(s.get(key).has_value());
}

TEST(StoreFault, RenameFailureFailsThePutAndLeavesNoTrace) {
  TempDir dir("rename");
  store::ArtifactStore s(dir.str());
  serial::Writer m;
  m.put_str("x");
  const std::string key = s.key("extract", m);
  {
    fault::ScopedSpec spec("seed=9,rename=1");
    const Status st = s.put(key, sample_records());
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::FaultInjected);
  }
  EXPECT_EQ(s.stats().put_failures, 1u);
  EXPECT_FALSE(s.get(key).has_value());  // no orphan, no temp file trusted
  ASSERT_TRUE(s.put(key, sample_records()).ok());
  EXPECT_TRUE(s.get(key).has_value());
}

// -- checkpoint/resume through the pipeline ----------------------------------

TEST(CheckpointResume, WarmRunEmitsByteIdenticalPayloads) {
  const auto img = obfuscated_image();
  core::PipelineOptions base;  // cold reference: no checkpointing at all
  base.plan.max_chains = 2;
  base.plan.time_budget_seconds = 60;

  core::Session cold(core::Engine::shared(), img, base);
  cold.prepare();
  const auto cold_chains = cold.find_chains(payload::Goal::execve());
  ASSERT_FALSE(cold_chains.empty());
  EXPECT_EQ(cold.report().store.puts, 0u);

  TempDir dir("resume");
  core::PipelineOptions warm = base;
  warm.store_dir = dir.str();

  // Populates the store.
  core::Session writer(core::Engine::shared(), img, warm);
  writer.prepare();
  const auto first_chains = writer.find_chains(payload::Goal::execve());
  EXPECT_GE(writer.report().store.puts, 2u);  // extract + subsume (+ plan)
  EXPECT_EQ(writer.report().extract_runs.attempts, 1u);

  // Everything served from disk.
  core::Session reader(core::Engine::shared(), img, warm);
  reader.prepare();
  const auto warm_chains = reader.find_chains(payload::Goal::execve());
  const auto& runs = reader.report();
  EXPECT_EQ(runs.extract_runs.attempts, 0u);
  EXPECT_EQ(runs.subsume_runs.attempts, 0u);
  EXPECT_EQ(runs.plan_runs.attempts, 0u);
  EXPECT_GE(runs.extract_runs.cache_hits + runs.extract_runs.resumes, 1u);
  EXPECT_GE(runs.plan_runs.cache_hits + runs.plan_runs.resumes, 1u);
  // A checkpoint-served plan is measured like a planned one (0 would read
  // as a real "0 MiB"; a failed probe reads kRssUnknown).
  EXPECT_GT(runs.rss_mb_after_plan, 0u);

  ASSERT_EQ(cold_chains.size(), first_chains.size());
  ASSERT_EQ(cold_chains.size(), warm_chains.size());
  for (size_t i = 0; i < cold_chains.size(); ++i) {
    EXPECT_EQ(cold_chains[i].payload, first_chains[i].payload);
    EXPECT_EQ(cold_chains[i].payload, warm_chains[i].payload);
    EXPECT_EQ(cold_chains[i].entry, warm_chains[i].entry);
    EXPECT_EQ(cold_chains[i].gadgets, warm_chains[i].gadgets);
  }
}

TEST(CheckpointResume, ResumesFromTheLastGoodCheckpoint) {
  const auto img = obfuscated_image();
  TempDir dir("partial");

  // An "interrupted" run that only completed extraction (the pipeline died
  // before subsumption, so only the extract checkpoint exists).
  core::PipelineOptions partial;
  partial.store_dir = dir.str();
  partial.run_subsumption = false;
  core::Session interrupted(core::Engine::shared(), img, partial);
  interrupted.prepare();
  EXPECT_EQ(interrupted.report().extract_runs.attempts, 1u);

  // The resumed full run serves extraction from the checkpoint and only
  // computes the missing stages.
  core::PipelineOptions full;
  full.store_dir = dir.str();
  core::Session resumed(core::Engine::shared(), img, full);
  resumed.prepare();
  EXPECT_EQ(resumed.report().extract_runs.attempts, 0u);
  EXPECT_GE(resumed.report().extract_runs.cache_hits +
                resumed.report().extract_runs.resumes,
            1u);
  EXPECT_EQ(resumed.report().subsume_runs.attempts, 1u);

  core::Session reference(core::Engine::shared(), img);
  reference.prepare();
  EXPECT_EQ(resumed.report().pool_raw, reference.report().pool_raw);
  EXPECT_EQ(resumed.report().pool_minimized, reference.report().pool_minimized);
}

TEST(CheckpointResume, CorruptedCheckpointIsTransparentlyRecomputed) {
  const auto img = obfuscated_image();
  TempDir dir("heal");
  core::PipelineOptions opts;
  opts.store_dir = dir.str();
  core::Session writer(core::Engine::shared(), img, opts);
  writer.prepare();
  ASSERT_GE(writer.report().store.puts, 1u);

  // Flip one bit in every artifact on disk.
  for (const auto& entry : fs::directory_iterator(dir.str())) {
    if (entry.path().extension() != ".gpa") continue;
    auto bytes = serial::read_file(entry.path().string());
    ASSERT_TRUE(bytes.ok());
    auto damaged = bytes.value();
    damaged[damaged.size() / 3] ^= 0x10;
    ASSERT_TRUE(
        serial::write_file_atomic(entry.path().string(), damaged).ok());
  }

  core::Session healed(core::Engine::shared(), img, opts);
  healed.prepare();
  EXPECT_EQ(healed.report().extract_runs.attempts, 1u);  // recomputed
  EXPECT_GE(healed.report().store.corrupt, 1u);
  EXPECT_EQ(healed.report().pool_raw, writer.report().pool_raw);
  EXPECT_EQ(healed.report().pool_minimized, writer.report().pool_minimized);

  // And the recomputed checkpoints are good again.
  core::Session warm(core::Engine::shared(), img, opts);
  warm.prepare();
  EXPECT_EQ(warm.report().extract_runs.attempts, 0u);
}

TEST(CheckpointResume, WarmSubsumeDecodesToTheColdContext) {
  // A stored winnow decodes once, straight into a fresh context: the warm
  // session's arena and pool encoding equal those of the cold session that
  // wrote the checkpoint (decoding into the extract-stage context instead
  // would leave the raw pool's nodes in the arena).
  const auto img = obfuscated_image();
  TempDir dir("warmctx");
  core::PipelineOptions opts;
  opts.store_dir = dir.str();
  core::Session cold(core::Engine::shared(), img, opts);
  cold.prepare();
  ASSERT_EQ(cold.report().subsume_runs.attempts, 1u);

  core::Session warm(core::Engine::shared(), img, opts);
  warm.prepare();
  ASSERT_EQ(warm.report().subsume_runs.attempts, 0u);
  EXPECT_EQ(warm.ctx().num_nodes(), cold.ctx().num_nodes());
  EXPECT_EQ(gadget::encode_pool(warm.ctx(), warm.library().all()),
            gadget::encode_pool(cold.ctx(), cold.library().all()));
}

TEST(CheckpointResume, UndecodableSubsumeCheckpointIsRecomputed) {
  const auto img = obfuscated_image();
  TempDir dir("undecodable");
  core::PipelineOptions opts;
  opts.store_dir = dir.str();
  core::Session writer(core::Engine::shared(), img, opts);
  writer.prepare();

  // Overwrite the stored winnow with records that pass every CRC but do
  // not decode as a pool (the key material mirrors Session::subsume()).
  serial::Writer material;
  material.put_u64(img.entry());
  material.put_bytes(img.code());
  material.put_bytes(img.data());
  gadget::append_extract_key(material);
  material.put_u64(subsume::kSolverCheckBudget);
  store::ArtifactStore store(dir.str());
  ASSERT_TRUE(store.put(store.key("subsume", material), {{1, 2, 3}}).ok());

  core::Session healed(core::Engine::shared(), img, opts);
  healed.prepare();
  EXPECT_EQ(healed.report().extract_runs.attempts, 0u);  // served
  EXPECT_EQ(healed.report().subsume_runs.attempts, 1u);  // recomputed
  EXPECT_TRUE(healed.report().subsume_status.ok());
  EXPECT_EQ(healed.report().pool_minimized, writer.report().pool_minimized);
}

TEST(CheckpointResume, InterleavedSessionsOnOneStoreCountOnlyTheirOwnPuts) {
  // Two sessions on one engine and one store directory, interleaved on
  // one thread over distinct images: each session's store counters are
  // its own activity, never the other's.
  const auto img1 = obfuscated_image();
  const auto img2 = codegen::compile(minic::compile_source(kSource));
  TempDir dir("interleaved");
  core::PipelineOptions opts;
  opts.store_dir = dir.str();
  core::Session s1(core::Engine::shared(), img1, opts);
  core::Session s2(core::Engine::shared(), img2, opts);
  (void)s1.extract();
  (void)s2.extract();
  (void)s1.subsume();
  (void)s2.subsume();
  for (const core::Session* s : {&s1, &s2}) {
    ASSERT_TRUE(s->report().worst_status().ok());
    EXPECT_EQ(s->report().store.puts, 2u);   // its extract + its subsume
    EXPECT_EQ(s->report().store.misses, 2u);
    EXPECT_EQ(s->report().store.hits, 0u);
  }
}

// -- the stage supervisor -----------------------------------------------------

// A clean extraction of obfuscated_image() takes ~62k symbolic steps. Each
// of the supervisor's two retries widens the budget 4x, so 8k steps is cut
// at x1 and x4 and clean at x16, and 40 steps is still cut at x16.
constexpr u64 kStepsCleanAfterRetries = 8'000;
constexpr u64 kStepsCutThroughRetries = 40;

TEST(Supervisor, RetriesWithWidenedBudgetsUntilExtractionIsClean) {
  const auto img = obfuscated_image();
  core::PipelineOptions opts;
  opts.governor.max_sym_steps = kStepsCleanAfterRetries;

  core::Session gp(core::Engine::shared(), img, opts);
  gp.prepare();
  const auto& runs = gp.report().extract_runs;
  EXPECT_EQ(runs.attempts, 3u);
  EXPECT_EQ(runs.retries, 2u);
  EXPECT_TRUE(gp.report().extract_status.ok())
      << gp.report().extract_status.to_string();
  EXPECT_GT(gp.report().pool_raw, 0u);
}

// Each extraction attempt interns into a fresh context, so a pool that
// took retries is the pool a clean first attempt computes.
TEST(Supervisor, RetriedExtractionMatchesACleanRun) {
  const auto img = obfuscated_image();
  core::PipelineOptions starved;
  starved.governor.max_sym_steps = kStepsCleanAfterRetries;
  starved.run_subsumption = false;
  core::Session retried(core::Engine::shared(), img, starved);
  ASSERT_TRUE(retried.extract().ok());
  ASSERT_EQ(retried.report().extract_runs.retries, 2u);

  core::PipelineOptions plain;
  plain.run_subsumption = false;
  core::Session clean(core::Engine::shared(), img, plain);
  ASSERT_TRUE(clean.extract().ok());
  EXPECT_EQ(retried.ctx().num_nodes(), clean.ctx().num_nodes());
  EXPECT_EQ(gadget::encode_pool(retried.ctx(), retried.library().all()),
            gadget::encode_pool(clean.ctx(), clean.library().all()));
}

TEST(Supervisor, ExhaustedRetriesKeepTheDegradedResult) {
  const auto img = obfuscated_image();
  core::PipelineOptions opts;
  opts.governor.max_sym_steps = kStepsCutThroughRetries;

  core::Session gp(core::Engine::shared(), img, opts);
  gp.prepare();
  EXPECT_EQ(gp.report().extract_runs.attempts, 3u);
  EXPECT_EQ(gp.report().extract_runs.retries, 2u);
  EXPECT_FALSE(gp.report().extract_status.ok());  // degraded after retries
}

TEST(Supervisor, DegradedResultsAreNeverCheckpointed) {
  const auto img = obfuscated_image();
  TempDir dir("nodegrade");
  core::PipelineOptions opts;
  opts.store_dir = dir.str();
  opts.governor.max_sym_steps = kStepsCutThroughRetries;
  core::Session degraded(core::Engine::shared(), img, opts);
  degraded.prepare();
  ASSERT_EQ(degraded.report().extract_runs.retries, 2u);
  ASSERT_FALSE(degraded.report().extract_status.ok());
  EXPECT_EQ(degraded.report().store.puts, 0u);

  // A later unconstrained run must not inherit the partial pool.
  core::PipelineOptions clean;
  clean.store_dir = dir.str();
  core::Session full(core::Engine::shared(), img, clean);
  full.prepare();
  EXPECT_EQ(full.report().extract_runs.attempts, 1u);
  EXPECT_GT(full.report().pool_raw, degraded.report().pool_raw);
}

}  // namespace
}  // namespace gp
