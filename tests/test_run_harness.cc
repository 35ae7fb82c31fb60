/**
 * @file
 * Run-harness tests against a toy app: the TDRESUME payload layout,
 * the loop's checkpoint cadence and injected halt, a resume refused
 * across an instrumentation change, and the store's resume in place —
 * a crashed and resumed instrumented run must leave the same app
 * state and the same store records as an uninterrupted one, without
 * rewriting the bytes its checkpoint committed.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/serial.hh"
#include "ckpt/checkpoint.hh"
#include "core/region.hh"
#include "harness/run_harness.hh"
#include "store/format.hh"
#include "tests/test_util.hh"

namespace
{

using namespace tdfe;
using namespace tdfe::test;

/** Attenuating wave over @p total iterations; the state that must
 *  survive a restart is the iteration count. */
class WaveApp : public HarnessApp
{
  public:
    explicit WaveApp(long total) : total(total) {}

    bool finished() const override { return iter >= total; }
    void step() override { ++iter; }
    long cycle() const override { return iter; }
    void save(BinaryWriter &w) const override { w.writeI64(iter); }
    void load(BinaryReader &r) override { iter = r.readI64(); }

    double
    value(long loc) const
    {
        const double ramp =
            1.0 - std::exp(-static_cast<double>(iter) / 20.0);
        return 10.0 * std::pow(0.7, static_cast<double>(loc - 1)) *
               ramp;
    }

    long iter = 0;

  private:
    const long total;
};

AnalysisConfig
waveAnalysis()
{
    AnalysisConfig ac;
    ac.provider = [](void *app, long loc) {
        return static_cast<WaveApp *>(app)->value(loc);
    };
    ac.space = IterParam(1, 6, 1);
    ac.time = IterParam(10, 200, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.5;
    ac.searchEnd = 25;
    ac.minLocation = 1;
    ac.ar.order = 2;
    ac.ar.lag = 1;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 24;
    return ac;
}

/** One harnessed run of a fresh WaveApp; @return its final iter. */
long
runWave(const HarnessOptions &options, HarnessResult &result,
        long total = 60)
{
    WaveApp app(total);
    std::unique_ptr<Region> region =
        makeRegion("wave", &app, nullptr, options);
    if (region)
        region->addAnalysis(waveAnalysis());
    runHarness(app, region.get(), nullptr, options, result);
    return app.iter;
}

TEST(RunHarness, BareRegionIsNullAndStoreOptionsFollowTheRequest)
{
    WaveApp app(1);
    EXPECT_EQ(makeRegion("wave", &app, nullptr, HarnessOptions()),
              nullptr);

    StoreCliOptions cli;
    cli.durability = "fsync";
    const StoreOptions opts = storeOptionsFrom(cli);
    EXPECT_EQ(opts.durability, store::DurabilityPolicy::SyncPerSeal);
}

TEST(RunHarness, CheckpointCadenceHaltAndPayloadLayout)
{
    const std::string prefix = tempPath("harness_layout");
    removeGenerations(prefix);

    HarnessOptions options;
    options.ckpt.path = prefix;
    options.ckpt.every = 4;
    options.ckpt.durability = "none";
    options.haltAfterIterations = 10;
    HarnessResult result;
    EXPECT_EQ(runWave(options, result), 10);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.checkpointsWritten, 2); // iterations 4 and 8

    // tag, version 2, "has region" = false, the app's bytes, then
    // "has store" = false.
    std::string payload, error;
    std::uint64_t iteration = 0;
    ASSERT_TRUE(ckpt::readCheckpointFile(
        ckpt::generationPath(prefix, 8), &payload, &iteration, &error))
        << error;
    EXPECT_EQ(iteration, 8u);
    BinaryReader r(payload);
    r.expectTag("TDRESUME");
    EXPECT_EQ(r.readU64(), 2u);
    EXPECT_FALSE(r.readBool());
    EXPECT_EQ(r.readI64(), 8);
    EXPECT_FALSE(r.readBool());
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.remaining(), 0u);

    // A bare resume picks up at iteration 8 and runs to the end.
    options.haltAfterIterations = 0;
    options.ckpt.resumeAuto = true;
    HarnessResult resumed;
    EXPECT_EQ(runWave(options, resumed), 60);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumedFromIteration, 8);
    removeGenerations(prefix);
}

TEST(RunHarness, ResumeAcrossInstrumentationChangeStartsFresh)
{
    const std::string prefix = tempPath("harness_mismatch");
    removeGenerations(prefix);

    HarnessOptions bare;
    bare.ckpt.path = prefix;
    bare.ckpt.every = 5;
    bare.ckpt.durability = "none";
    bare.haltAfterIterations = 12;
    HarnessResult first;
    runWave(bare, first);
    ASSERT_EQ(first.checkpointsWritten, 2);

    HarnessOptions instrumented = bare;
    instrumented.instrument = true;
    instrumented.haltAfterIterations = 0;
    instrumented.ckpt.resumeAuto = true;
    HarnessResult second;
    EXPECT_EQ(runWave(instrumented, second), 60);
    EXPECT_FALSE(second.resumed);
    EXPECT_EQ(second.resumedFromIteration, -1);
    removeGenerations(prefix);
}

TEST(RunHarness, ResumeFailingInTheRegionLeavesAppAndRegionFresh)
{
    const std::string prefix = tempPath("harness_region_mismatch");
    removeGenerations(prefix);

    // One analysis, checkpointed at iteration 10.
    HarnessOptions options;
    options.instrument = true;
    options.ckpt.path = prefix;
    options.ckpt.every = 10;
    options.ckpt.durability = "none";
    options.haltAfterIterations = 10;
    HarnessResult first;
    ASSERT_EQ(runWave(options, first), 10);
    ASSERT_EQ(first.checkpointsWritten, 1);

    // Two analyses: the app's bytes load, then the region's analysis
    // count does not match. "Starting from scratch" must hold for
    // both, not only for the region.
    options.haltAfterIterations = 0;
    options.ckpt.resumeAuto = true;
    WaveApp app(60);
    std::unique_ptr<Region> region =
        makeRegion("wave", &app, nullptr, options);
    region->addAnalysis(waveAnalysis());
    region->addAnalysis(waveAnalysis());
    HarnessResult second;
    runHarness(app, region.get(), nullptr, options, second);
    EXPECT_FALSE(second.resumed);
    EXPECT_EQ(second.resumedFromIteration, -1);
    EXPECT_EQ(app.iter, 60);
    EXPECT_EQ(region->iteration(), 60);
    removeGenerations(prefix);
}

/** @return the whole file at @p path. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Expect no file in @p path's directory to start with its name and
 *  ".seg". */
void
expectNoSegments(const std::string &path)
{
    const std::filesystem::path p(path);
    const std::string seg = p.filename().string() + ".seg";
    for (const auto &entry :
         std::filesystem::directory_iterator(p.parent_path()))
        EXPECT_NE(entry.path().filename().string().rfind(seg, 0), 0u)
            << entry.path();
}

TEST(RunHarness, ResumedStoreKeepsItsCommittedBytes)
{
    // 700 records at 256 per block: two full blocks and a partial
    // one, so a commit has sealed blocks and staged records.
    constexpr long total = 700;
    HarnessOptions ref_opts;
    ref_opts.instrument = true;
    ref_opts.store.path = tempPath("harness_ref.tdfs");
    HarnessResult ref;
    ASSERT_EQ(runWave(ref_opts, ref, total), total);
    const std::vector<FeatureRecord> ref_records =
        readRecords(ref_opts.store.path);
    ASSERT_EQ(ref_records.size(), static_cast<std::size_t>(total));

    // The attempt crashes at 450; its newest checkpoint is 420.
    const std::string prefix = tempPath("harness_inplace");
    removeGenerations(prefix);
    HarnessOptions opts = ref_opts;
    opts.store.path = prefix + ".tdfs";
    opts.ckpt.path = prefix;
    opts.ckpt.every = 70;
    opts.ckpt.durability = "none";
    opts.haltAfterIterations = 450;
    HarnessResult halted;
    ASSERT_EQ(runWave(opts, halted, total), 450);
    ASSERT_TRUE(halted.halted);
    expectNoSegments(opts.store.path);
    const std::string halted_bytes = fileBytes(opts.store.path);

    // The generation at 420 commits one sealed block and 164 staged
    // records: its store section follows the region's bytes.
    std::string payload, error;
    std::uint64_t iteration = 0;
    ASSERT_TRUE(ckpt::readCheckpointFile(
        ckpt::generationPath(prefix, 420), &payload, &iteration,
        &error))
        << error;
    WaveApp probe(total);
    std::unique_ptr<Region> region =
        makeRegion("wave", &probe, nullptr, opts);
    region->addAnalysis(waveAnalysis());
    BinaryReader r(payload);
    r.expectTag("TDRESUME");
    EXPECT_EQ(r.readU64(), 2u);
    EXPECT_TRUE(r.readBool());
    EXPECT_EQ(r.readI64(), 420);
    ASSERT_TRUE(region->loadCheckpoint(r)) << region->checkpointError();
    EXPECT_TRUE(r.readBool());
    const std::uint64_t extent = r.readU64();
    EXPECT_EQ(r.readU64(), 1u);   // sealed blocks
    EXPECT_EQ(r.readU64(), 164u); // staged records
    ASSERT_TRUE(r.ok()) << r.error();
    ASSERT_GT(extent, store::headerBytes);
    ASSERT_LT(extent, halted_bytes.size());

    opts.haltAfterIterations = 0;
    opts.ckpt.resumeAuto = true;
    HarnessResult resumed;
    ASSERT_EQ(runWave(opts, resumed, total), total);
    EXPECT_TRUE(resumed.resumed);
    EXPECT_EQ(resumed.resumedFromIteration, 420);
    EXPECT_EQ(resumed.storeBytes,
              std::filesystem::file_size(opts.store.path));
    expectNoSegments(opts.store.path);

    // Only wallTime may differ from the uninterrupted run, the block
    // layout is the same, and the committed prefix was not rewritten.
    expectRecordsBitwise(readRecords(opts.store.path), ref_records,
                         WallTime::Skip);
    expectSameBlocks(opts.store.path, ref_opts.store.path);
    EXPECT_EQ(fileBytes(opts.store.path).substr(0, extent),
              halted_bytes.substr(0, extent));
    removeGenerations(prefix);
    std::remove(opts.store.path.c_str());
    std::remove(ref_opts.store.path.c_str());
}

TEST(RunHarness, StoreShorterThanItsCommitStartsFresh)
{
    // Power loss under durability "none" can leave the store shorter
    // than the extent its checkpoint committed: the payload is then
    // not usable, and the run starts from scratch with a new store.
    constexpr long total = 700;
    HarnessOptions ref_opts;
    ref_opts.instrument = true;
    ref_opts.store.path = tempPath("harness_short_ref.tdfs");
    HarnessResult ref;
    ASSERT_EQ(runWave(ref_opts, ref, total), total);

    const std::string prefix = tempPath("harness_short");
    removeGenerations(prefix);
    HarnessOptions opts = ref_opts;
    opts.store.path = prefix + ".tdfs";
    opts.ckpt.path = prefix;
    opts.ckpt.every = 70;
    opts.ckpt.durability = "none";
    opts.haltAfterIterations = 450;
    HarnessResult halted;
    ASSERT_EQ(runWave(opts, halted, total), 450);
    std::filesystem::resize_file(opts.store.path, store::headerBytes + 8);

    opts.haltAfterIterations = 0;
    opts.ckpt.resumeAuto = true;
    HarnessResult fresh;
    ASSERT_EQ(runWave(opts, fresh, total), total);
    EXPECT_FALSE(fresh.resumed);
    expectRecordsBitwise(readRecords(opts.store.path),
                         readRecords(ref_opts.store.path),
                         WallTime::Skip);
    removeGenerations(prefix);
    std::remove(opts.store.path.c_str());
    std::remove(ref_opts.store.path.c_str());
}

} // namespace
