/**
 * @file
 * Checkpoint/restart tests: bit-exact resume equivalence for the
 * full Region (model, collector, trainer, early-stop), both
 * optimizers, multi-analysis regions, corrupt-checkpoint rejection
 * via death tests, the binary reader/writer primitives, and byte
 * identity of the writer's stream and buffer sinks and of a region
 * checkpoint against a golden hash.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <sstream>

#include "base/serial.hh"
#include "core/region.hh"

namespace
{

using namespace tdfe;

/** Write one field of every kind through @p w. */
void
writeEveryKind(BinaryWriter &w)
{
    w.writeU64(42);
    w.writeI64(-7);
    w.writeF64(3.25);
    w.writeBool(true);
    w.writeBool(false);
    w.writeVec({1.0, -2.0, 0.5});
    w.writeTag("section");
    w.writeVec({});
    w.writeVec({4.0, 5.0});
}

TEST(Serial, PrimitivesRoundTrip)
{
    std::string bytes;
    BinaryWriter w(bytes);
    writeEveryKind(w);

    // The stream sink writes the same bytes.
    std::ostringstream os(std::ios::binary);
    BinaryWriter sw(os);
    writeEveryKind(sw);
    EXPECT_EQ(os.str(), bytes);

    BinaryReader r(bytes);
    EXPECT_EQ(r.readU64(), 42u);
    EXPECT_EQ(r.readI64(), -7);
    EXPECT_DOUBLE_EQ(r.readF64(), 3.25);
    EXPECT_TRUE(r.readBool());
    EXPECT_FALSE(r.readBool());
    const std::vector<double> v = r.readVec();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v[1], -2.0);
    r.expectTag("section"); // must not die
    EXPECT_TRUE(r.readVec().empty());
    std::vector<double> into(2, 0.0);
    r.readVecInto(into, "test field");
    EXPECT_DOUBLE_EQ(into[1], 5.0);
    EXPECT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serial, TruncatedStreamIsRecoverable)
{
    std::string bytes;
    BinaryWriter w(bytes);
    w.writeU64(7);
    BinaryReader r(bytes);
    r.readU64();
    EXPECT_TRUE(r.ok());

    EXPECT_EQ(r.readF64(), 0.0); // zero-filled, not fatal
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("truncated"), std::string::npos);
}

TEST(Serial, WrongTagIsRecoverable)
{
    std::string bytes;
    BinaryWriter w(bytes);
    w.writeTag("alpha");
    BinaryReader r(bytes);
    r.expectTag("beta");
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("section mismatch"), std::string::npos);
}

TEST(Serial, FirstErrorSticks)
{
    std::string bytes;
    BinaryWriter w(bytes);
    w.writeTag("alpha");
    w.writeU64(9);
    BinaryReader r(bytes);
    r.expectTag("beta");
    const std::string first = r.error();
    EXPECT_EQ(r.readU64(), 0u); // reads past damage return zeros
    r.readF64();
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), first);
    EXPECT_EQ(r.remaining(), 8u); // ... and consume nothing
}

// A length field is checked against the bytes that follow it before
// anything is allocated: each of these would otherwise ask for up to
// 2^67 bytes. The 2^32 case used to pass a fixed sanity cap and
// allocate 32 GiB.
TEST(Serial, InflatedLengthsAreRejectedBeforeAllocating)
{
    // A length field, then 29 bytes: three 8-byte words and 5 more.
    auto with_length = [](std::uint64_t n) {
        std::string bytes;
        BinaryWriter w(bytes);
        w.writeU64(n);
        w.writeVec({1.0, 2.0}); // 8-byte count + 2 doubles
        return bytes + "tail!";
    };
    // One item more than the 29 bytes hold (a truncated vector body
    // or tag), then lengths whose byte count overflows or nearly so.
    const std::uint64_t vec_lengths[] = {29 / 8 + 1, 1ull << 32,
                                         1ull << 61, UINT64_MAX};
    const std::uint64_t tag_lengths[] = {29 + 1, 1ull << 32, 1ull << 61,
                                         UINT64_MAX};

    for (const std::uint64_t n : vec_lengths) {
        const std::string bytes = with_length(n);
        BinaryReader vec(bytes);
        EXPECT_TRUE(vec.readVec().empty()) << n;
        EXPECT_FALSE(vec.ok()) << n;
        EXPECT_NE(vec.error().find(std::to_string(n)), std::string::npos)
            << vec.error();

        std::vector<double> into(3, 7.0);
        BinaryReader fixed(bytes);
        fixed.readVecInto(into, "test field"); // damage, not a fatal
        EXPECT_FALSE(fixed.ok()) << n;
        EXPECT_EQ(into, std::vector<double>(3, 7.0)); // untouched
    }
    for (const std::uint64_t n : tag_lengths) {
        const std::string bytes = with_length(n);
        BinaryReader tag(bytes);
        tag.expectTag("section");
        EXPECT_FALSE(tag.ok()) << n;
        EXPECT_NE(tag.error().find(std::to_string(n)), std::string::npos)
            << tag.error();
        EXPECT_EQ(tag.readU64(), 0u);
    }
}

TEST(SerialDeathTest, ShapeMismatchThroughHealthyStreamIsFatal)
{
    std::string bytes;
    BinaryWriter w(bytes);
    w.writeVec({1.0, 2.0, 3.0});
    EXPECT_DEATH(
        {
            BinaryReader r(bytes);
            std::vector<double> into(4);
            r.readVecInto(into, "test field");
        },
        "test field checkpoint has 3 values, configured for 4");
}

/** Toy simulation: noisy damped travelling wave. */
struct ToySim
{
    long step = 0;

    double
    value(long site) const
    {
        const double ramp = 1.0 - std::exp(-step / 30.0);
        const double wobble =
            0.05 * std::sin(0.37 * static_cast<double>(step + site));
        return 5.0 * std::pow(0.75, site - 1) * ramp + wobble;
    }
};

AnalysisConfig
toyAnalysis(OptimizerKind kind = OptimizerKind::MiniBatchGd)
{
    AnalysisConfig cfg;
    cfg.provider = [](void *domain, long site) {
        return static_cast<ToySim *>(domain)->value(site);
    };
    cfg.space = IterParam(1, 8, 1);
    cfg.time = IterParam(10, 180, 1);
    cfg.feature = FeatureKind::BreakpointRadius;
    cfg.threshold = 0.4;
    cfg.searchEnd = 20;
    cfg.minLocation = 1;
    cfg.ar.axis = LagAxis::Space;
    cfg.ar.order = 2;
    cfg.ar.batchSize = 16;
    cfg.ar.optimizer = kind;
    return cfg;
}

/** @return the checkpoint bytes of @p region. */
std::string
save(const Region &region)
{
    std::string bytes;
    BinaryWriter w(bytes);
    region.saveCheckpoint(w);
    return bytes;
}

/** Restore @p region from the checkpoint bytes @p ckpt. */
bool
restore(Region &region, const std::string &ckpt)
{
    BinaryReader r(ckpt);
    return region.loadCheckpoint(r);
}

/** Drive @p region over steps (from, to]. */
void
drive(Region &region, ToySim &sim, long from, long to)
{
    for (sim.step = from; sim.step <= to; ++sim.step) {
        region.begin();
        region.end();
    }
}

TEST(Checkpoint, ResumedRunIsBitExact)
{
    // Reference: uninterrupted run.
    ToySim ref_sim;
    Region ref("ref", &ref_sim);
    const std::size_t id = ref.addAnalysis(toyAnalysis());
    drive(ref, ref_sim, 0, 180);

    // Checkpointed run: stop at 90, save, restore into a fresh
    // region, continue.
    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis());
    drive(a, sim_a, 0, 90);
    const std::string ckpt = save(a);

    ToySim sim_b;
    Region b("b", &sim_b);
    b.addAnalysis(toyAnalysis());
    restore(b, ckpt);
    drive(b, sim_b, 91, 180);

    const CurveFitAnalysis &ra = ref.analysis(id);
    const CurveFitAnalysis &rb = b.analysis(0);
    EXPECT_EQ(ref.iteration(), b.iteration());
    EXPECT_EQ(ra.trainingRounds(), rb.trainingRounds());
    EXPECT_DOUBLE_EQ(ra.lastValidationMse(), rb.lastValidationMse());
    EXPECT_EQ(ra.breakPoint().radius, rb.breakPoint().radius);
    // Coefficients must match bit-for-bit: the resumed trainer saw
    // exactly the same sample stream and optimizer state.
    const auto &ca = ra.model().normCoeffs();
    const auto &cb = rb.model().normCoeffs();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i)
        EXPECT_DOUBLE_EQ(ca[i], cb[i]) << "coefficient " << i;
}

TEST(Checkpoint, ResumedRlsRunIsBitExact)
{
    ToySim ref_sim;
    Region ref("ref", &ref_sim);
    ref.addAnalysis(toyAnalysis(OptimizerKind::Rls));
    drive(ref, ref_sim, 0, 180);

    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis(OptimizerKind::Rls));
    drive(a, sim_a, 0, 75);
    const std::string ckpt = save(a);

    ToySim sim_b;
    Region b("b", &sim_b);
    b.addAnalysis(toyAnalysis(OptimizerKind::Rls));
    restore(b, ckpt);
    drive(b, sim_b, 76, 180);

    const auto &ca = ref.analysis(0).model().normCoeffs();
    const auto &cb = b.analysis(0).model().normCoeffs();
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i)
        EXPECT_DOUBLE_EQ(ca[i], cb[i]) << "coefficient " << i;
}

TEST(Checkpoint, MultiAnalysisRegionRoundTrips)
{
    auto second = []() {
        AnalysisConfig c = toyAnalysis();
        c.feature = FeatureKind::DelayTime;
        c.featureLocation = 2;
        c.ar.axis = LagAxis::Time;
        c.ar.order = 3;
        return c;
    };

    ToySim ref_sim;
    Region ref("ref", &ref_sim);
    ref.addAnalysis(toyAnalysis());
    ref.addAnalysis(second());
    drive(ref, ref_sim, 0, 180);

    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis());
    a.addAnalysis(second());
    drive(a, sim_a, 0, 60);
    const std::string ckpt = save(a);

    ToySim sim_b;
    Region b("b", &sim_b);
    b.addAnalysis(toyAnalysis());
    b.addAnalysis(second());
    restore(b, ckpt);
    drive(b, sim_b, 61, 180);

    for (std::size_t k = 0; k < 2; ++k) {
        const auto &ca = ref.analysis(k).model().normCoeffs();
        const auto &cb = b.analysis(k).model().normCoeffs();
        ASSERT_EQ(ca.size(), cb.size());
        for (std::size_t i = 0; i < ca.size(); ++i)
            EXPECT_DOUBLE_EQ(ca[i], cb[i])
                << "analysis " << k << " coefficient " << i;
    }
}

TEST(Checkpoint, CheckpointAtStepZeroIsAFullRun)
{
    ToySim ref_sim;
    Region ref("ref", &ref_sim);
    ref.addAnalysis(toyAnalysis());
    drive(ref, ref_sim, 0, 180);

    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis());
    const std::string ckpt = save(a); // nothing has run yet

    ToySim sim_b;
    Region b("b", &sim_b);
    b.addAnalysis(toyAnalysis());
    restore(b, ckpt);
    drive(b, sim_b, 0, 180);

    EXPECT_EQ(ref.analysis(0).breakPoint().radius,
              b.analysis(0).breakPoint().radius);
    EXPECT_EQ(ref.analysis(0).trainingRounds(),
              b.analysis(0).trainingRounds());
}

TEST(Checkpoint, AnalysisCountMismatchIsRecoverable)
{
    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis());
    drive(a, sim_a, 0, 40);
    const std::string ckpt = save(a);

    // The stream-level shape of the checkpoint (analysis count) is
    // indistinguishable from stream damage, so it surfaces as a
    // recoverable load failure, not a fatal (the resilient harness
    // starts fresh on it).
    ToySim sim_b;
    Region b("b", &sim_b);
    b.addAnalysis(toyAnalysis());
    b.addAnalysis(toyAnalysis());
    EXPECT_FALSE(restore(b, ckpt));
    EXPECT_NE(b.checkpointError().find("analyses"),
              std::string::npos);
}

TEST(Checkpoint, DamagedStreamIsRecoverable)
{
    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis());
    drive(a, sim_a, 0, 40);
    const std::string bytes = save(a);

    // Every strict prefix of the serialized state — a cut inside any
    // tag, length, vector body or scalar — is a clean, recoverable
    // load failure: no fatal, no zero-filled success.
    ToySim sim_b;
    Region b("b", &sim_b);
    b.addAnalysis(toyAnalysis());
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        BinaryReader torn(bytes.data(), len);
        ASSERT_FALSE(b.loadCheckpoint(torn)) << "prefix " << len;
        ASSERT_FALSE(b.checkpointError().empty()) << "prefix " << len;
    }
    BinaryReader whole(bytes);
    EXPECT_TRUE(b.loadCheckpoint(whole)) << b.checkpointError();
    EXPECT_EQ(whole.remaining(), 0u);
    EXPECT_EQ(b.iteration(), a.iteration());
}

/** Two analyses, both optimizers and both lag axes, run to 90. */
void
driveTwoAnalyses(Region &region, ToySim &sim)
{
    region.addAnalysis(toyAnalysis());
    AnalysisConfig second = toyAnalysis(OptimizerKind::Rls);
    second.feature = FeatureKind::DelayTime;
    second.featureLocation = 2;
    second.ar.axis = LagAxis::Time;
    second.ar.order = 3;
    region.addAnalysis(std::move(second));
    drive(region, sim, 0, 90);
}

// perfbench builds its payload with a stream writer over an
// ostringstream, the substrate's save through the writer, then the
// region's stream save: the interleaved bytes must equal one buffer
// writer's, field for field.
TEST(Checkpoint, StreamSaveSequenceMatchesBufferBytes)
{
    ToySim sim;
    Region region("a", &sim);
    driveTwoAnalyses(region, sim);
    auto save_sim = [&sim](BinaryWriter &w) {
        w.writeTag("TOYSIM");
        w.writeI64(sim.step);
        w.writeVec({sim.value(1), sim.value(2)});
    };

    std::ostringstream os(std::ios::binary);
    BinaryWriter bw(os);
    save_sim(bw);
    region.saveCheckpoint(os);

    std::string bytes;
    BinaryWriter w(bytes);
    save_sim(w);
    region.saveCheckpoint(w);
    EXPECT_EQ(os.str(), bytes);
}

// Byte identity of region checkpoints against a hash recorded when
// the writer still appended to a std::ostream. The region's
// wall-clock doubles (overhead, stepTime: bytes 82-97) are zeroed.
TEST(Checkpoint, RegionBytesMatchGoldenHash)
{
#if defined(__FAST_MATH__) || defined(TDFE_FAST_MATH)
    GTEST_SKIP() << "training is not bitwise under fast math";
#endif
    ToySim sim;
    Region region("a", &sim);
    driveTwoAnalyses(region, sim);
    std::string bytes = save(region);
    ASSERT_EQ(bytes.size(), 12280u);
    std::memset(&bytes[82], 0, 16);
    std::uint64_t h = 14695981039346656037ull; // FNV-1a
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    EXPECT_EQ(h, 0x49600c1a88a09ff9ull);
}

TEST(CheckpointDeathTest, ReconfiguredModelOrderIsFatal)
{
    ToySim sim_a;
    Region a("a", &sim_a);
    a.addAnalysis(toyAnalysis());
    drive(a, sim_a, 0, 40);
    const std::string ckpt = save(a);

    EXPECT_DEATH(
        {
            ToySim sim_b;
            Region b("b", &sim_b);
            AnalysisConfig cfg = toyAnalysis();
            cfg.ar.order = 5; // different model shape
            b.addAnalysis(std::move(cfg));
            restore(b, ckpt);
        },
        "checkpoint dims");
}

} // namespace
