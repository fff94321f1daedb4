// Tests for the persistent compiled-program cache: store/load round-trip
// fidelity, cross-run reuse through the DseEngine (warm runs skip the
// compiler and reproduce cold-run bytes), and recovery from hostile cache
// directories — corrupt JSON, schema mismatches, unwritable paths.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>

#if defined(__linux__)
#include <fcntl.h>
#include <linux/fs.h>
#include <sys/ioctl.h>
#include <unistd.h>
#endif

#include "cimflow/compiler/compiler.hpp"
#include "cimflow/core/dse.hpp"
#include "cimflow/core/program_cache.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/support/io.hpp"
#include "cimflow/support/status.hpp"

namespace cimflow {
namespace {

namespace fs = std::filesystem;

/// A fresh, empty cache directory per test, removed on teardown.
class ProgramCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("cimflow_progcache_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

PersistentProgramCache::Key test_key() {
  PersistentProgramCache::Key key;
  key.model_fingerprint = 0x1234;
  key.arch_fingerprint = 0x5678;
  key.strategy = 2;
  key.batch = 4;
  key.materialize_data = true;
  key.hoist_memory = true;
  return key;
}

TEST_F(ProgramCacheTest, StoreLoadRoundTripsProgramAndMetadata) {
  // A real compiled program, weights materialized so the global image is
  // non-trivial.
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  compiler::CompileOptions copt;
  copt.strategy = compiler::Strategy::kDpOptimized;
  copt.batch = 2;
  copt.materialize_data = true;
  const compiler::CompileResult compiled = compiler::compile(model, arch, copt);

  PersistentProgramCache cache(dir_);
  PersistentProgramCache::Entry entry{compiled.program, compiled.stats,
                                      compiled.plan.strategy, "mapping summary text",
                                      nullptr};
  ASSERT_TRUE(cache.store(test_key(), entry));

  auto loaded = cache.load(test_key());
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->program.cores.size(), compiled.program.cores.size());
  for (std::size_t c = 0; c < compiled.program.cores.size(); ++c) {
    EXPECT_EQ(loaded->program.cores[c].binary(), compiled.program.cores[c].binary());
  }
  EXPECT_EQ(loaded->program.global_image, compiled.program.global_image);
  EXPECT_EQ(loaded->program.barrier_count, compiled.program.barrier_count);
  EXPECT_EQ(loaded->program.input_global_offset, compiled.program.input_global_offset);
  EXPECT_EQ(loaded->program.input_bytes_per_image, compiled.program.input_bytes_per_image);
  EXPECT_EQ(loaded->program.output_global_offset, compiled.program.output_global_offset);
  EXPECT_EQ(loaded->program.output_bytes_per_image,
            compiled.program.output_bytes_per_image);
  EXPECT_EQ(loaded->program.batch, compiled.program.batch);
  EXPECT_EQ(loaded->stats.total_instructions, compiled.stats.total_instructions);
  EXPECT_EQ(loaded->stats.estimated_cycles, compiled.stats.estimated_cycles);
  EXPECT_EQ(loaded->strategy_name, "dp");
  EXPECT_EQ(loaded->mapping_summary, "mapping summary text");

  const PersistentProgramCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.stores, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ProgramCacheTest, MissingKeyIsACountedMiss) {
  PersistentProgramCache cache(dir_);
  EXPECT_FALSE(cache.load(test_key()).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST_F(ProgramCacheTest, CorruptEntryIsRejectedNotFatal) {
  PersistentProgramCache cache(dir_);
  write_text_file(cache.entry_path(test_key()), "{ not json at all");
  EXPECT_FALSE(cache.load(test_key()).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);

  // Truncated-but-valid-JSON (a partial write survivor) is also rejected.
  write_text_file(cache.entry_path(test_key()), "{\"schema\": \"cimflow.progcache.v1\"}");
  EXPECT_FALSE(cache.load(test_key()).has_value());
  EXPECT_EQ(cache.stats().rejected, 2u);
}

TEST_F(ProgramCacheTest, SchemaVersionMismatchIsAMiss) {
  const graph::Graph model = models::micro_cnn({});
  compiler::CompileOptions copt;
  copt.batch = 1;
  const compiler::CompileResult compiled =
      compiler::compile(model, arch::ArchConfig::cimflow_default(), copt);
  PersistentProgramCache cache(dir_);
  cache.store(test_key(),
              {compiled.program, compiled.stats, compiled.plan.strategy, "", nullptr});
  // Rewrite the entry under a future schema tag.
  const std::string path = cache.entry_path(test_key());
  std::string text = read_text_file(path);
  const std::string from = "cimflow.progcache.v1";
  text.replace(text.find(from), from.size(), "cimflow.progcache.v9");
  write_text_file(path, text);
  EXPECT_FALSE(cache.load(test_key()).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST_F(ProgramCacheTest, KeyMismatchUnderSameFileNameIsAMiss) {
  const graph::Graph model = models::micro_cnn({});
  compiler::CompileOptions copt;
  copt.batch = 1;
  const compiler::CompileResult compiled =
      compiler::compile(model, arch::ArchConfig::cimflow_default(), copt);
  PersistentProgramCache cache(dir_);
  PersistentProgramCache::Key a = test_key();
  cache.store(a, {compiled.program, compiled.stats, compiled.plan.strategy, "", nullptr});
  // Simulate a hash collision: a different key that (hypothetically) maps to
  // the same file. Copy the entry under another key's path and load that key.
  PersistentProgramCache::Key b = test_key();
  b.batch = 99;
  fs::copy_file(cache.entry_path(a), cache.entry_path(b));
  EXPECT_FALSE(cache.load(b).has_value());
  EXPECT_EQ(cache.stats().rejected, 1u);
}

TEST_F(ProgramCacheTest, UnwritableCacheDirThrowsIoErrorNamingThePath) {
  // A regular file where the directory should be: creation fails.
  write_text_file(dir_, "occupied");
  try {
    PersistentProgramCache cache(dir_);
    FAIL() << "expected Error(kIoError)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(e.what()).find(dir_), std::string::npos)
        << "message should name the path: " << e.what();
  }
}

TEST_F(ProgramCacheTest, ModelFingerprintSeesWeightsNotJustTopology) {
  const graph::Graph a = models::micro_cnn({});
  const graph::Graph b = models::micro_cnn({});
  EXPECT_EQ(model_fingerprint(a), model_fingerprint(b));
  graph::Graph c = models::micro_cnn({});
  c.randomize_parameters(0xDEAD);  // same topology, different weights
  EXPECT_NE(model_fingerprint(a), model_fingerprint(c));
}

TEST_F(ProgramCacheTest, KeyDigestSeparatesEveryField) {
  const PersistentProgramCache::Key base = test_key();
  PersistentProgramCache::Key k = base;
  k.model_fingerprint ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.arch_fingerprint ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.strategy ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.batch ^= 1;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.materialize_data = !k.materialize_data;
  EXPECT_NE(k.digest(), base.digest());
  k = base;
  k.hoist_memory = !k.hoist_memory;
  EXPECT_NE(k.digest(), base.digest());
}

// --- DseEngine integration ---------------------------------------------------

std::string digest(const DseResult& result) {
  std::string out;
  for (const DsePoint& point : result.points) {
    out += std::to_string(point.index) + "|";
    out += std::to_string(point.input_seed) + "|";
    out += point.ok ? point.report.summary() : "FAILED:" + point.error;
    out += "\n";
  }
  return out;
}

DseJob warm_job() {
  DseJob job;
  job.mg_sizes = {4, 8};
  job.flit_sizes = {8, 16};
  job.strategies = {compiler::Strategy::kGeneric, compiler::Strategy::kDpOptimized};
  job.batch = 2;
  return job;
}

TEST_F(ProgramCacheTest, WarmEngineRunSkipsTheCompilerAndReproducesColdBytes) {
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig base = arch::ArchConfig::cimflow_default();
  const DseJob job = warm_job();

  PersistentProgramCache cold_cache(dir_);
  DseEngine::Options options;
  options.num_threads = 2;
  options.eval.persistent_cache = &cold_cache;
  const DseResult cold = DseEngine(options).run(model, base, job);
  EXPECT_EQ(cold.stats.persistent_cache_hits, 0u);
  EXPECT_EQ(cold.stats.persistent_cache_stores, cold.stats.compile_cache_misses);
  EXPECT_GT(cold.stats.persistent_cache_stores, 0u);

  // A fresh cache object (fresh process, same directory): every compile is
  // now a disk hit, and the sweep bytes are identical.
  PersistentProgramCache warm_cache(dir_);
  options.eval.persistent_cache = &warm_cache;
  const DseResult warm = DseEngine(options).run(model, base, job);
  EXPECT_EQ(warm.stats.compile_cache_misses, 0u);  // compiler never ran
  EXPECT_EQ(warm.stats.persistent_cache_hits, cold.stats.persistent_cache_stores);
  EXPECT_EQ(digest(warm), digest(cold));
  EXPECT_EQ(warm.to_json(false).dump(), cold.to_json(false).dump());
}

TEST_F(ProgramCacheTest, CorruptedEntryHealsOnTheNextSweep) {
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig base = arch::ArchConfig::cimflow_default();
  DseJob job = warm_job();

  PersistentProgramCache cache(dir_);
  DseEngine::Options options;
  options.num_threads = 1;
  options.eval.persistent_cache = &cache;
  const DseResult cold = DseEngine(options).run(model, base, job);

  // Vandalize every entry on disk.
  for (const auto& file : fs::directory_iterator(dir_)) {
    write_text_file(file.path().string(), "garbage");
  }

  PersistentProgramCache healed(dir_);
  options.eval.persistent_cache = &healed;
  const DseResult rerun = DseEngine(options).run(model, base, job);
  EXPECT_EQ(rerun.stats.persistent_cache_hits, 0u);
  EXPECT_GT(healed.stats().rejected, 0u);
  EXPECT_GT(healed.stats().stores, 0u);  // entries rewritten in place
  EXPECT_EQ(digest(rerun), digest(cold));

  // And the healed directory serves hits again.
  PersistentProgramCache verify(dir_);
  options.eval.persistent_cache = &verify;
  const DseResult warm = DseEngine(options).run(model, base, job);
  EXPECT_GT(warm.stats.persistent_cache_hits, 0u);
  EXPECT_EQ(digest(warm), digest(cold));
}

TEST_F(ProgramCacheTest, FunctionalSweepRoundTripsThroughTheCache) {
  // Functional mode materializes weights into the global image — the
  // heavyweight payload path; simulated INT8 outputs must be identical when
  // the program comes from disk.
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig base = arch::ArchConfig::cimflow_default();
  DseJob job;
  job.mg_sizes = {8};
  job.flit_sizes = {8};
  job.strategies = {compiler::Strategy::kDpOptimized};
  job.batch = 2;
  job.functional = true;

  PersistentProgramCache cache(dir_);
  DseEngine::Options options;
  options.num_threads = 1;
  options.eval.persistent_cache = &cache;
  const DseResult cold = DseEngine(options).run(model, base, job);
  PersistentProgramCache warm_cache(dir_);
  options.eval.persistent_cache = &warm_cache;
  const DseResult warm = DseEngine(options).run(model, base, job);
  ASSERT_EQ(warm.stats.persistent_cache_hits, 1u);
  EXPECT_EQ(digest(warm), digest(cold));
}

// --- size cap + LRU eviction (ROADMAP "cache eviction") ------------------------

/// A tiny but real entry; distinct keys produce distinct files.
PersistentProgramCache::Entry small_entry() {
  const graph::Graph model = models::micro_cnn({});
  const arch::ArchConfig arch = arch::ArchConfig::cimflow_default();
  compiler::CompileOptions copt;
  copt.strategy = compiler::Strategy::kGeneric;
  copt.batch = 1;
  const compiler::CompileResult compiled = compiler::compile(model, arch, copt);
  return {compiled.program, compiled.stats, "generic", "summary", nullptr};
}

PersistentProgramCache::Key keyed(std::uint64_t arch_fp) {
  PersistentProgramCache::Key key = test_key();
  key.arch_fingerprint = arch_fp;
  return key;
}

/// Sets or clears the Linux immutable bit on `path`. Returns false when the
/// platform, filesystem, or capabilities don't support it — callers skip the
/// test rather than fail it.
bool set_immutable(const std::string& path, bool on) {
#if defined(__linux__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  int flags = 0;
  bool ok = ::ioctl(fd, FS_IOC_GETFLAGS, &flags) == 0;
  if (ok) {
    if (on) {
      flags |= FS_IMMUTABLE_FL;
    } else {
      flags &= ~FS_IMMUTABLE_FL;
    }
    ok = ::ioctl(fd, FS_IOC_SETFLAGS, &flags) == 0;
  }
  ::close(fd);
  return ok;
#else
  (void)path;
  (void)on;
  return false;
#endif
}

/// Pushes a file's last-use time into the past so LRU ordering is
/// deterministic without sleeping through mtime granularity.
void age_file(const std::string& path, int seconds) {
  const auto now = fs::file_time_type::clock::now();
  fs::last_write_time(path, now - std::chrono::seconds(seconds));
}

TEST_F(ProgramCacheTest, SizeCapEvictsOldestEntriesFirst) {
  const PersistentProgramCache::Entry entry = small_entry();
  // Measure one entry's footprint, then cap the cache at two entries.
  std::int64_t entry_bytes;
  {
    PersistentProgramCache probe(dir_);
    ASSERT_TRUE(probe.store(keyed(1), entry));
    entry_bytes = static_cast<std::int64_t>(fs::file_size(probe.entry_path(keyed(1))));
    fs::remove_all(dir_);
  }

  PersistentProgramCache cache(dir_, 2 * entry_bytes + entry_bytes / 2);
  ASSERT_TRUE(cache.store(keyed(1), entry));
  age_file(cache.entry_path(keyed(1)), 300);
  ASSERT_TRUE(cache.store(keyed(2), entry));
  age_file(cache.entry_path(keyed(2)), 200);
  ASSERT_TRUE(cache.store(keyed(3), entry));  // cap exceeded: evict oldest

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(cache.entry_path(keyed(1))));  // oldest gone
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(2))));
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(3))));
  EXPECT_FALSE(cache.load(keyed(1)).has_value());  // degraded to a miss
  EXPECT_TRUE(cache.load(keyed(2)).has_value());
}

TEST_F(ProgramCacheTest, LoadsRefreshLruOrder) {
  const PersistentProgramCache::Entry entry = small_entry();
  std::int64_t entry_bytes;
  {
    PersistentProgramCache probe(dir_);
    ASSERT_TRUE(probe.store(keyed(1), entry));
    entry_bytes = static_cast<std::int64_t>(fs::file_size(probe.entry_path(keyed(1))));
    fs::remove_all(dir_);
  }

  PersistentProgramCache cache(dir_, 2 * entry_bytes + entry_bytes / 2);
  ASSERT_TRUE(cache.store(keyed(1), entry));
  age_file(cache.entry_path(keyed(1)), 300);
  ASSERT_TRUE(cache.store(keyed(2), entry));
  age_file(cache.entry_path(keyed(2)), 200);
  // Using entry 1 makes entry 2 the least recently used.
  ASSERT_TRUE(cache.load(keyed(1)).has_value());
  ASSERT_TRUE(cache.store(keyed(3), entry));

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(1))));   // refreshed by the load
  EXPECT_FALSE(fs::exists(cache.entry_path(keyed(2))));  // now the oldest
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(3))));
}

TEST_F(ProgramCacheTest, JustStoredEntryIsNeverEvicted) {
  const PersistentProgramCache::Entry entry = small_entry();
  std::int64_t entry_bytes;
  {
    PersistentProgramCache probe(dir_);
    ASSERT_TRUE(probe.store(keyed(1), entry));
    entry_bytes = static_cast<std::int64_t>(fs::file_size(probe.entry_path(keyed(1))));
    fs::remove_all(dir_);
  }

  // Cap below a single entry: every store overflows, but the entry just
  // published must survive (evicting it would make the cache useless).
  PersistentProgramCache cache(dir_, entry_bytes / 2);
  ASSERT_TRUE(cache.store(keyed(1), entry));
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(1))));
  EXPECT_EQ(cache.stats().evictions, 0u);
  age_file(cache.entry_path(keyed(1)), 300);
  ASSERT_TRUE(cache.store(keyed(2), entry));  // evicts 1, keeps itself
  EXPECT_FALSE(fs::exists(cache.entry_path(keyed(1))));
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(2))));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST_F(ProgramCacheTest, EqualMtimeTieBreaksByUseOrderNotPathOrder) {
  const PersistentProgramCache::Entry entry = small_entry();
  std::int64_t entry_bytes;
  {
    PersistentProgramCache probe(dir_);
    ASSERT_TRUE(probe.store(keyed(1), entry));
    entry_bytes = static_cast<std::int64_t>(fs::file_size(probe.entry_path(keyed(1))));
    fs::remove_all(dir_);
  }

  PersistentProgramCache cache(dir_, 2 * entry_bytes + entry_bytes / 2);
  ASSERT_TRUE(cache.store(keyed(1), entry));
  ASSERT_TRUE(cache.store(keyed(2), entry));
  // Make the entry whose file path sorts FIRST the one used last: a
  // tie-break that fell back to path order would evict exactly the wrong
  // file, so this test fails if the use counter stops participating.
  const bool one_sorts_first = cache.entry_path(keyed(1)) < cache.entry_path(keyed(2));
  const PersistentProgramCache::Key fresh = one_sorts_first ? keyed(1) : keyed(2);
  const PersistentProgramCache::Key stale = one_sorts_first ? keyed(2) : keyed(1);
  ASSERT_TRUE(cache.load(fresh).has_value());
  // Collapse both files onto one mtime tick, as a coarse-granularity
  // filesystem does to sub-second touches — only the in-process use counter
  // can order them now.
  const auto tick = fs::file_time_type::clock::now() - std::chrono::seconds(300);
  fs::last_write_time(cache.entry_path(keyed(1)), tick);
  fs::last_write_time(cache.entry_path(keyed(2)), tick);
  ASSERT_TRUE(cache.store(keyed(3), entry));  // cap exceeded: one must go

  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(fs::exists(cache.entry_path(fresh)));   // used last, survives
  EXPECT_FALSE(fs::exists(cache.entry_path(stale)));  // least recently used
  EXPECT_TRUE(fs::exists(cache.entry_path(keyed(3))));
}

TEST_F(ProgramCacheTest, FailedTouchOnLoadIsCountedNotFatal) {
  PersistentProgramCache cache(dir_);
  ASSERT_TRUE(cache.store(test_key(), small_entry()));
  const std::string path = cache.entry_path(test_key());
  // The immutable bit lets reads through but fails the LRU mtime touch with
  // EPERM even for root — owner-permission games cannot fault an explicit
  // utimensat, so this is the one deterministic way to exercise the path.
  if (!set_immutable(path, true)) {
    GTEST_SKIP() << "immutable bit unavailable "
                    "(needs CAP_LINUX_IMMUTABLE and an ext-style filesystem)";
  }
  auto loaded = cache.load(test_key());
  ASSERT_TRUE(set_immutable(path, false));  // TearDown must be able to clean up
  ASSERT_TRUE(loaded.has_value());          // the hit itself is still served
  const PersistentProgramCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.touch_failures, 1u);
  // The degraded touch must not poison later loads once the fault clears.
  EXPECT_TRUE(cache.load(test_key()).has_value());
  EXPECT_EQ(cache.stats().touch_failures, 1u);
}

TEST_F(ProgramCacheTest, UncappedCacheNeverEvicts) {
  const PersistentProgramCache::Entry entry = small_entry();
  PersistentProgramCache cache(dir_);  // max_bytes = 0 (unlimited)
  for (std::uint64_t i = 1; i <= 4; ++i) ASSERT_TRUE(cache.store(keyed(i), entry));
  EXPECT_EQ(cache.stats().evictions, 0u);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_TRUE(fs::exists(cache.entry_path(keyed(i)))) << i;
  }
  EXPECT_THROW(PersistentProgramCache(dir_, -1), Error);  // negative cap rejected
}

}  // namespace
}  // namespace cimflow
