/**
 * @file
 * Crash-safe checkpoint + resilient harness tests: envelope round
 * trips, a crash-point sweep over every byte-offset class of the
 * atomic write (header / payload / trailing CRC / missed rename)
 * with fallback to the previous good generation, sticky degrade on
 * write errors, rotation, and the supervisor's crash sweep over both
 * harnessed apps (blast, wdmerger) — a resumed run must be bitwise
 * identical to an uninterrupted one, including the feature store it
 * resumes in place, on one rank and on two.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "blastapp/runner.hh"
#include "ckpt/checkpoint.hh"
#include "par/thread_comm.hh"
#include "store/codec.hh"
#include "store/file.hh"
#include "store/reader.hh"
#include "tests/test_util.hh"
#include "wdmerger/runner.hh"

namespace
{

using namespace tdfe;
using namespace tdfe::test;
using namespace tdfe::blast;

TEST(CkptEnvelope, RoundTrips)
{
    const std::string path = tempPath("env_roundtrip.tdck");
    const std::string payload(300, 'x');
    const ckpt::CkptStatus st =
        ckpt::writeCheckpointFile(path, payload, 42);
    ASSERT_TRUE(st.ok()) << st.message;

    std::string read_back;
    std::uint64_t iteration = 0;
    std::string error;
    ASSERT_TRUE(ckpt::readCheckpointFile(path, &read_back,
                                         &iteration, &error))
        << error;
    EXPECT_EQ(read_back, payload);
    EXPECT_EQ(iteration, 42u);

    const ckpt::EnvelopeInfo info = ckpt::inspectCheckpointFile(path);
    EXPECT_TRUE(info.valid) << info.error;
    EXPECT_EQ(info.version, 1u);
    EXPECT_EQ(info.iteration, 42u);
    EXPECT_EQ(info.payloadBytes, payload.size());
    EXPECT_EQ(info.fileBytes, 36u + payload.size() + 4u);
    std::remove(path.c_str());
}

TEST(CkptEnvelope, BytesMatchDocumentedLayout)
{
    // Byte identity of checkpoint files: a known payload at a known
    // iteration must produce exactly the documented envelope.
    const std::string path = tempPath("env_layout.tdck");
    const std::string payload = "golden checkpoint payload \x01\xff";
    const std::uint64_t iteration = 0x0102030405060708ull;
    ASSERT_TRUE(
        ckpt::writeCheckpointFile(path, payload, iteration).ok());

    std::string want = "TDCKENV1";
    auto put = [&want](std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            want.push_back(static_cast<char>(v >> (8 * i)));
    };
    put(1, 4); // version
    put(0, 4); // reserved
    put(iteration, 8);
    put(payload.size(), 8);
    put(store::crc32(want.data(), 32), 4);
    want += payload;
    put(store::crc32(payload.data(), payload.size()), 4);

    std::ifstream in(path, std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(got, want);
    std::remove(path.c_str());
}

TEST(CkptEnvelope, MissingFileReportsError)
{
    std::string payload, error;
    std::uint64_t iteration = 0;
    EXPECT_FALSE(ckpt::readCheckpointFile(
        tempPath("definitely_absent.tdck"), &payload, &iteration,
        &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        ckpt::inspectCheckpointFile(tempPath("definitely_absent.tdck"))
            .valid);
}

/**
 * Crash-point sweep over the atomic write: tear the envelope at a
 * byte inside each offset class (plus the crash-before-rename
 * class) on the NEWEST generation and require openNewestValid to
 * fall back to the previous good one. FaultyFile's Crash mode lies
 * (reports success), so the torn file IS renamed into place — the
 * CRC validation on load is what must catch it.
 */
TEST(CkptSweep, EveryTearOffsetFallsBackToPreviousGood)
{
    const std::string good_payload(128, 'g');
    const std::string torn_payload(128, 't');
    const std::uint64_t envelope_bytes =
        36 + torn_payload.size() + 4;

    struct Tear
    {
        const char *name;
        std::uint64_t atByte; // ~0: skip the rename instead
    };
    const Tear tears[] = {
        {"empty-file", 0},
        {"mid-header", 8},
        {"mid-payload", 36 + 61},
        {"mid-trailing-crc", envelope_bytes - 2},
        {"crash-before-rename", ~0ull},
    };

    for (const Tear &tear : tears) {
        SCOPED_TRACE(tear.name);
        const std::string prefix =
            tempPath(std::string("sweep_") + tear.name);
        removeGenerations(prefix);

        ckpt::CheckpointSet set(prefix, 3,
                                store::DurabilityPolicy::None);
        ASSERT_TRUE(set.save(10, good_payload));

        set.setWriteHook(
            [&](std::uint64_t, ckpt::WriteOptions &opts) {
                if (tear.atByte == ~0ull) {
                    opts.skipRename = true;
                    return;
                }
                opts.wrapFile =
                    [&](std::unique_ptr<store::StoreFile> inner) {
                        store::FaultPlan plan;
                        plan.kind = store::FaultPlan::Kind::Crash;
                        plan.atByte = tear.atByte;
                        return std::unique_ptr<store::StoreFile>(
                            new store::FaultyFile(std::move(inner),
                                                  plan));
                    };
            });
        // Crash mode lies, so the save itself "succeeds".
        EXPECT_TRUE(set.save(20, torn_payload));

        std::string payload, path;
        std::uint64_t iteration = 0;
        ASSERT_TRUE(set.openNewestValid(&payload, &iteration, &path));
        EXPECT_EQ(iteration, 10u) << "torn generation not skipped";
        EXPECT_EQ(payload, good_payload);

        // The torn generation (when a file exists at all) must fail
        // inspection, and a full-length healthy rewrite supersedes it.
        if (tear.atByte != ~0ull && tear.atByte > 0) {
            EXPECT_FALSE(
                ckpt::inspectCheckpointFile(
                    ckpt::generationPath(prefix, 20))
                    .valid);
        }
        set.setWriteHook(nullptr);
        ASSERT_TRUE(set.save(20, torn_payload));
        ASSERT_TRUE(set.openNewestValid(&payload, &iteration));
        EXPECT_EQ(iteration, 20u);
        EXPECT_EQ(payload, torn_payload);
        removeGenerations(prefix);
    }
}

TEST(CkptSet, WriteErrorLatchesStickyDegrade)
{
    const std::string prefix = tempPath("degrade");
    removeGenerations(prefix);
    ckpt::CheckpointSet set(prefix, 3,
                            store::DurabilityPolicy::None);

    set.setWriteHook([](std::uint64_t, ckpt::WriteOptions &opts) {
        opts.wrapFile =
            [](std::unique_ptr<store::StoreFile> inner) {
                store::FaultPlan plan;
                plan.kind = store::FaultPlan::Kind::ErrorAt;
                plan.atByte = 0;
                plan.errCode = ENOSPC;
                return std::unique_ptr<store::StoreFile>(
                    new store::FaultyFile(std::move(inner), plan));
            };
    });
    EXPECT_FALSE(set.save(5, "payload"));
    EXPECT_TRUE(set.degraded());
    EXPECT_NE(set.status().code, 0);
    EXPECT_FALSE(set.status().message.empty());
    EXPECT_EQ(set.saved(), 0u);

    // Later saves still try (transient full scratch may drain) and
    // succeed, but degraded() stays latched for the harness report.
    set.setWriteHook(nullptr);
    EXPECT_TRUE(set.save(6, "payload"));
    EXPECT_EQ(set.saved(), 1u);
    EXPECT_TRUE(set.degraded());
    removeGenerations(prefix);
}

TEST(CkptSet, RotationKeepsNewestGenerations)
{
    const std::string prefix = tempPath("rotate");
    removeGenerations(prefix);
    ckpt::CheckpointSet set(prefix, 2,
                            store::DurabilityPolicy::None);
    for (std::uint64_t it = 1; it <= 5; ++it)
        ASSERT_TRUE(set.save(it, "payload" + std::to_string(it)));

    const std::vector<ckpt::Generation> gens =
        ckpt::listGenerations(prefix);
    ASSERT_EQ(gens.size(), 2u);
    EXPECT_EQ(gens[0].iteration, 5u);
    EXPECT_EQ(gens[1].iteration, 4u);

    std::string payload;
    std::uint64_t iteration = 0;
    ASSERT_TRUE(set.openNewestValid(&payload, &iteration));
    EXPECT_EQ(iteration, 5u);
    EXPECT_EQ(payload, "payload5");
    removeGenerations(prefix);
}

// ---------------------------------------------------------------
// Supervisor crash sweep: resumed runs are bitwise identical.
// ---------------------------------------------------------------

BlastConfig
sweepBlast()
{
    BlastConfig cfg;
    cfg.size = 12;
    return cfg;
}

AnalysisConfig
sweepAnalysis(long total_iters)
{
    AnalysisConfig ac;
    ac.space = IterParam(1, 8, 1);
    ac.time = IterParam(total_iters / 20, (total_iters * 2) / 5, 1);
    ac.feature = FeatureKind::BreakpointRadius;
    ac.threshold = 0.05;
    ac.searchEnd = 12;
    ac.minLocation = 1;
    ac.ar.order = 3;
    ac.ar.lag = 2;
    ac.ar.axis = LagAxis::Space;
    ac.ar.batchSize = 16;
    ac.ar.convergeTol = 0.1;
    ac.ar.convergePatience = 3;
    ac.ar.minBatches = 4;
    return ac;
}

RunOptions
sweepOptions(long total_iters, const std::string &store_path)
{
    RunOptions opts;
    opts.instrument = true;
    opts.analysis = sweepAnalysis(total_iters);
    opts.store.path = store_path;
    return opts;
}

void
expectPhysicsEqual(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.initialVelocity, b.initialVelocity);
    EXPECT_EQ(a.featureValue, b.featureValue);
    EXPECT_EQ(a.convergedIteration, b.convergedIteration);
    EXPECT_EQ(a.validationMse, b.validationMse);
}

TEST(ResilientRun, CrashSweepIsBitExact)
{
    const BlastConfig cfg = sweepBlast();

    // Uninterrupted reference with a store.
    const std::string ref_store = tempPath("ref_sweep.tdfs");
    RunOptions ref_opts = sweepOptions(200, ref_store);
    const RunResult ref = runBlast(cfg, nullptr, ref_opts);
    ASSERT_GT(ref.iterations, 20);
    const std::vector<FeatureRecord> ref_records =
        readRecords(ref_store);
    ASSERT_FALSE(ref_records.empty());

    // Crash points: before the first checkpoint (restart from
    // scratch), just after one, and deep into the run.
    const long halts[] = {1, 7, ref.iterations / 2};
    for (const long halt : halts) {
        SCOPED_TRACE("halt after " + std::to_string(halt));
        const std::string prefix =
            tempPath("sweep_halt" + std::to_string(halt));
        const std::string store =
            tempPath("sweep_halt" + std::to_string(halt) + ".tdfs");
        removeGenerations(prefix);

        RunOptions opts = sweepOptions(200, store);
        opts.ckpt.path = prefix;
        opts.ckpt.every = 3;
        opts.ckpt.durability = "none"; // speed; atomicity is separate
        opts.haltAfterIterations = halt;
        const RunResult res = runBlastResilient(cfg, nullptr, opts);

        EXPECT_EQ(res.restarts, 1);
        EXPECT_FALSE(res.halted);
        if (halt >= 3)
            EXPECT_TRUE(res.resumed);
        expectPhysicsEqual(res, ref);
        expectRecordsBitwise(readRecords(store), ref_records,
                             WallTime::Skip);
        removeGenerations(prefix);
        std::remove(store.c_str());
    }
    std::remove(ref_store.c_str());
}

TEST(ResilientRun, TornNewestGenerationStillRecovers)
{
    const BlastConfig cfg = sweepBlast();
    const std::string ref_store = tempPath("torn_ref.tdfs");
    const RunResult ref =
        runBlast(cfg, nullptr, sweepOptions(200, ref_store));

    const std::string prefix = tempPath("torn_gen");
    const std::string store = tempPath("torn_gen.tdfs");
    removeGenerations(prefix);

    RunOptions opts = sweepOptions(200, store);
    opts.ckpt.path = prefix;
    opts.ckpt.every = 3;
    opts.ckpt.durability = "none";
    opts.haltAfterIterations = 7;
    // Tear the generation written at iteration 6 mid-payload: the
    // resumed attempt must fall back to the one at iteration 3, and
    // its store to the commit of generation 3.
    opts.ckptWriteHook = [](std::uint64_t iteration,
                            ckpt::WriteOptions &write_opts) {
        if (iteration != 6)
            return;
        write_opts.wrapFile =
            [](std::unique_ptr<store::StoreFile> inner) {
                store::FaultPlan plan;
                plan.kind = store::FaultPlan::Kind::Crash;
                plan.atByte = 50;
                return std::unique_ptr<store::StoreFile>(
                    new store::FaultyFile(std::move(inner), plan));
            };
    };
    const RunResult res = runBlastResilient(cfg, nullptr, opts);
    EXPECT_EQ(res.restarts, 1);
    EXPECT_EQ(res.resumedFromIteration, 3);
    expectPhysicsEqual(res, ref);
    expectRecordsBitwise(readRecords(store), readRecords(ref_store),
                         WallTime::Skip);
    expectSameBlocks(store, ref_store);
    removeGenerations(prefix);
    std::remove(store.c_str());
    std::remove(ref_store.c_str());
}

TEST(ResilientRun, InterruptThenResumeAutoKeepsTheWholeStore)
{
    // No supervisor: a halted run, then a plain resumeAuto run over
    // the same store path, as a resubmitted job would do.
    const BlastConfig cfg = sweepBlast();
    const std::string ref_store = tempPath("resume_auto_ref.tdfs");
    const RunResult ref =
        runBlast(cfg, nullptr, sweepOptions(200, ref_store));
    const long halt = ref.iterations / 2;
    ASSERT_GT(halt % 3, 0); // replays the iterations past the commit

    const std::string prefix = tempPath("resume_auto");
    const std::string store = tempPath("resume_auto.tdfs");
    removeGenerations(prefix);
    RunOptions opts = sweepOptions(200, store);
    opts.ckpt.path = prefix;
    opts.ckpt.every = 3;
    opts.ckpt.durability = "none";
    opts.haltAfterIterations = halt;
    const RunResult halted = runBlast(cfg, nullptr, opts);
    ASSERT_TRUE(halted.halted);

    opts.haltAfterIterations = 0;
    opts.ckpt.resumeAuto = true;
    const RunResult res = runBlast(cfg, nullptr, opts);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.resumedFromIteration, halt - halt % 3);
    expectPhysicsEqual(res, ref);
    expectRecordsBitwise(readRecords(store), readRecords(ref_store),
                         WallTime::Skip);
    expectSameBlocks(store, ref_store);
    removeGenerations(prefix);
    std::remove(store.c_str());
    std::remove(ref_store.c_str());
}

TEST(ResilientRun, TwoRankCrashResumeWithStore)
{
    const BlastConfig cfg = sweepBlast();
    const std::string ref_store = tempPath("two_rank_ref.tdfs");
    const std::string store = tempPath("two_rank.tdfs");
    const std::string prefix = tempPath("two_rank");
    const auto removeRankGenerations = [&prefix] {
        removeGenerations(prefix + ".rk0");
        removeGenerations(prefix + ".rk1");
    };
    removeRankGenerations();

    ThreadCommWorld ref_world(2);
    long iterations = 0;
    ref_world.run([&](Communicator &comm) {
        const RunResult r =
            runBlast(cfg, &comm, sweepOptions(200, ref_store));
        if (comm.rank() == 0)
            iterations = r.iterations;
    });
    ASSERT_GT(iterations, 20);

    // Both ranks crash mid-run, leave their parts unmerged, resume
    // them in place, and merge once the resumed loop finishes.
    ThreadCommWorld world(2);
    world.run([&](Communicator &comm) {
        RunOptions opts = sweepOptions(200, store);
        opts.ckpt.path = prefix;
        opts.ckpt.every = 3;
        opts.ckpt.durability = "none";
        opts.haltAfterIterations = iterations / 2;
        const RunResult res = runBlastResilient(cfg, &comm, opts);
        EXPECT_EQ(res.restarts, 1);
        EXPECT_TRUE(res.resumed);
        EXPECT_EQ(res.iterations, iterations);
    });

    EXPECT_FALSE(std::ifstream(store + ".rk0").good());
    EXPECT_FALSE(std::ifstream(store + ".rk1").good());
    expectRecordsBitwise(readRecords(store), readRecords(ref_store),
                         WallTime::Skip);
    removeRankGenerations();
    std::remove(store.c_str());
    std::remove(ref_store.c_str());
}

TEST(ResilientRun, CheckpointWriteFailureNeverFatals)
{
    const BlastConfig cfg = sweepBlast();
    const RunResult ref =
        runBlast(cfg, nullptr, sweepOptions(200, ""));

    const std::string prefix = tempPath("enospc");
    removeGenerations(prefix);

    RunOptions opts = sweepOptions(200, "");
    opts.ckpt.path = prefix;
    opts.ckpt.every = 3;
    opts.ckpt.durability = "none";
    // Every write fails ENOSPC; the run must still complete with
    // identical physics and a sticky degraded flag.
    opts.ckptWriteHook = [](std::uint64_t,
                            ckpt::WriteOptions &write_opts) {
        write_opts.wrapFile =
            [](std::unique_ptr<store::StoreFile> inner) {
                store::FaultPlan plan;
                plan.kind = store::FaultPlan::Kind::ErrorAt;
                plan.atByte = 0;
                plan.errCode = ENOSPC;
                return std::unique_ptr<store::StoreFile>(
                    new store::FaultyFile(std::move(inner), plan));
            };
    };
    const RunResult res = runBlast(cfg, nullptr, opts);
    EXPECT_TRUE(res.ckptDegraded);
    EXPECT_FALSE(res.ckptError.empty());
    EXPECT_EQ(res.checkpointsWritten, 0);
    expectPhysicsEqual(res, ref);
    removeGenerations(prefix);
}

TEST(ResilientRun, InterruptCheckpointsThenResumesBitExact)
{
    const BlastConfig cfg = sweepBlast();
    const std::string ref_store = tempPath("sigint_ref.tdfs");
    const RunResult ref =
        runBlast(cfg, nullptr, sweepOptions(200, ref_store));

    const std::string prefix = tempPath("sigint");
    const std::string store = tempPath("sigint.tdfs");
    removeGenerations(prefix);

    // The interrupt-time checkpoint commits the store with staged
    // records, which the interrupted run then seals as its last
    // block; the resume cuts that block and stages them again.
    RunOptions opts = sweepOptions(200, store);
    opts.ckpt.path = prefix;
    opts.ckpt.every = 0; // only the interrupt-time checkpoint

    ckpt::requestInterrupt();
    const RunResult stopped = runBlast(cfg, nullptr, opts);
    ckpt::clearInterruptRequest();
    EXPECT_TRUE(stopped.interrupted);
    EXPECT_EQ(stopped.checkpointsWritten, 1);
    ASSERT_LT(stopped.iterations, ref.iterations);

    RunOptions resume = opts;
    resume.ckpt.resumeAuto = true;
    const RunResult res = runBlast(cfg, nullptr, resume);
    EXPECT_TRUE(res.resumed);
    EXPECT_EQ(res.resumedFromIteration, stopped.iterations);
    expectPhysicsEqual(res, ref);
    expectRecordsBitwise(readRecords(store), readRecords(ref_store),
                         WallTime::Skip);
    expectSameBlocks(store, ref_store);
    removeGenerations(prefix);
    std::remove(store.c_str());
    std::remove(ref_store.c_str());
}

TEST(ResilientRun, WdCrashResumeIsBitExact)
{
    wd::WdMergerConfig cfg;
    cfg.resolution = 6;
    cfg.tEnd = 30.0;
    cfg.relaxSteps = 40;

    wd::WdRunOptions ref_opts;
    ref_opts.instrument = true;
    ref_opts.trainFraction = 0.5;
    ref_opts.store.path = tempPath("wd_ref_sweep.tdfs");
    const wd::WdRunResult ref = wd::runWdMerger(cfg, nullptr, ref_opts);
    ASSERT_GT(ref.dumps, 20);
    const std::vector<FeatureRecord> ref_records =
        readRecords(ref_opts.store.path);
    ASSERT_FALSE(ref_records.empty());

    // Before the first checkpoint, just after one, and mid-run.
    const long halts[] = {1, 4, ref.dumps / 2};
    for (const long halt : halts) {
        SCOPED_TRACE("halt after " + std::to_string(halt));
        const std::string prefix =
            tempPath("wd_halt" + std::to_string(halt));
        removeGenerations(prefix);

        wd::WdRunOptions opts = ref_opts;
        opts.store.path = prefix + ".tdfs";
        opts.ckpt.path = prefix;
        opts.ckpt.every = 3;
        opts.ckpt.durability = "none";
        opts.haltAfterIterations = halt;
        const wd::WdRunResult res =
            wd::runWdMergerResilient(cfg, nullptr, opts);

        EXPECT_EQ(res.restarts, 1);
        EXPECT_FALSE(res.halted);
        EXPECT_EQ(res.resumed, halt >= 3);
        EXPECT_EQ(res.dumps, ref.dumps);
        EXPECT_EQ(res.sphSteps, ref.sphSteps);
        EXPECT_EQ(res.history, ref.history);
        EXPECT_EQ(res.delayTime, ref.delayTime);
        EXPECT_EQ(res.convergedIteration, ref.convergedIteration);
        expectRecordsBitwise(readRecords(opts.store.path),
                             ref_records, WallTime::Skip);
        removeGenerations(prefix);
        std::remove(opts.store.path.c_str());
    }
    std::remove(ref_opts.store.path.c_str());
}

} // namespace
