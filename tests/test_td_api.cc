/**
 * @file
 * Tests of the C API — the exact surface of paper Fig. 2.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <string>

#include "core/td_api.h"

namespace
{

/** Stand-in for LULESH's Domain with an xd() accessor. */
struct FakeDomain
{
    long iter = 0;

    double
    xd(int loc) const
    {
        const double ramp =
            1.0 - std::exp(-static_cast<double>(iter) / 15.0);
        return 8.0 * std::pow(0.6, loc - 1) * ramp;
    }
};

/** The paper's td_var_provider (Fig. 2 lines 1-5). */
double
td_var_provider(void *loc_dom, int loc)
{
    const FakeDomain *dom = static_cast<FakeDomain *>(loc_dom);
    const double v = dom->xd(loc);
    return v;
}

TEST(TdApi, PaperFigure2Lifecycle)
{
    FakeDomain dom;

    // Fig. 2 lines 10-20, adapted to this domain's scale.
    td_region_t *lulesh_region = td_region_init("", &dom);
    td_iter_param_t *lulesh_loc = td_iter_param_init(1, 6, 1);
    td_iter_param_t *lulesh_iter = td_iter_param_init(10, 150, 1);
    const int method = Curve_Fitting;
    const double threshold = 0.4;
    const int if_simulation_will_terminate = 1;

    td_ar_options_t opts;
    td_ar_options_default(&opts);
    opts.order = 2;
    opts.axis = TD_AXIS_SPACE;
    opts.batch_size = 24;
    opts.search_end = 20;
    opts.min_location = 1;
    opts.converge_tol = 1e-3;

    const int analysis = td_region_add_analysis_ex(
        lulesh_region, td_var_provider, lulesh_loc, method,
        lulesh_iter, threshold, if_simulation_will_terminate, &opts);
    EXPECT_EQ(analysis, 0);

    long stopped_at = -1;
    for (dom.iter = 0; dom.iter <= 200; ++dom.iter) {
        td_region_begin(lulesh_region);
        // (TimeIncrement / LagrangeLeapFrog would run here.)
        td_region_end(lulesh_region);
        if (td_region_should_stop(lulesh_region)) {
            stopped_at = dom.iter;
            break;
        }
    }

    EXPECT_GT(stopped_at, 0);
    EXPECT_TRUE(td_region_analysis_converged(lulesh_region,
                                             analysis));
    EXPECT_GT(td_region_converged_iteration(lulesh_region, analysis),
              0);
    EXPECT_EQ(td_region_iteration(lulesh_region), stopped_at + 1);

    // Truth: 8 * 0.6^(l-1) >= 0.4 up to l = 6.86 -> radius 6.
    const double radius =
        td_region_feature(lulesh_region, analysis);
    EXPECT_NEAR(radius, 6.0, 1.0);

    EXPECT_GT(td_region_predicted_value(lulesh_region, analysis),
              0.0);
    EXPECT_EQ(td_region_wavefront_rank(lulesh_region), 0);
    EXPECT_GT(td_region_overhead_seconds(lulesh_region), 0.0);

    td_iter_param_destroy(lulesh_loc);
    td_iter_param_destroy(lulesh_iter);
    td_region_destroy(lulesh_region);
}

TEST(TdApi, DefaultAnalysisSignatureMatchesPaper)
{
    FakeDomain dom;
    td_region_t *region = td_region_init("lulesh", &dom);
    td_iter_param_t *loc = td_iter_param_init(1, 6, 1);
    td_iter_param_t *iter = td_iter_param_init(10, 60, 1);

    // The exact 7-argument call from the paper.
    const int id = td_region_add_analysis(region, td_var_provider,
                                          loc, Curve_Fitting, iter,
                                          0.4, 0);
    EXPECT_EQ(id, 0);

    for (dom.iter = 0; dom.iter <= 80; ++dom.iter) {
        td_region_begin(region);
        td_region_end(region);
    }
    EXPECT_FALSE(td_region_should_stop(region));
    EXPECT_GE(td_region_feature(region, id), 1.0);

    td_iter_param_destroy(loc);
    td_iter_param_destroy(iter);
    td_region_destroy(region);
}

TEST(TdApi, OptionDefaultsAreSane)
{
    td_ar_options_t opts;
    td_ar_options_default(&opts);
    EXPECT_GT(opts.order, 0);
    EXPECT_GT(opts.lag, 0);
    EXPECT_GT(opts.batch_size, 0);
    EXPECT_GT(opts.learning_rate, 0.0);
    EXPECT_EQ(opts.feature_kind, TD_FEATURE_BREAKPOINT_RADIUS);
    EXPECT_EQ(opts.axis, TD_AXIS_SPACE);
}

TEST(TdApi, CxxBridgeExposesRegion)
{
    FakeDomain dom;
    td_region_t *region = td_region_init("x", &dom);
    EXPECT_NE(td_region_cxx(region), nullptr);
    td_region_destroy(region);
}


/** A region for the checkpoint tests: one space-axis analysis. */
td_region_t *
buildCkptRegion(FakeDomain *dom)
{
    td_region_t *region = td_region_init("ckpt", dom);
    td_iter_param_t *loc = td_iter_param_init(1, 6, 1);
    td_iter_param_t *iter = td_iter_param_init(10, 150, 1);
    td_ar_options_t opts;
    td_ar_options_default(&opts);
    opts.order = 2;
    opts.axis = TD_AXIS_SPACE;
    opts.search_end = 20;
    opts.min_location = 1;
    td_region_add_analysis_ex(region, td_var_provider, loc,
                              Curve_Fitting, iter, 0.4, 0, &opts);
    td_iter_param_destroy(loc);
    td_iter_param_destroy(iter);
    return region;
}

TEST(TdApi, CheckpointRoundTripThroughTheCApi)
{
    const char *path = "td_api_test.ckpt";

    // Reference: uninterrupted.
    FakeDomain ref_dom;
    td_region_t *ref = buildCkptRegion(&ref_dom);
    for (ref_dom.iter = 0; ref_dom.iter <= 150; ++ref_dom.iter) {
        td_region_begin(ref);
        td_region_end(ref);
    }

    // Interrupted at 70, checkpointed, restored, finished.
    FakeDomain dom_a;
    td_region_t *a = buildCkptRegion(&dom_a);
    for (dom_a.iter = 0; dom_a.iter <= 70; ++dom_a.iter) {
        td_region_begin(a);
        td_region_end(a);
    }
    ASSERT_EQ(td_region_checkpoint(a, path), 0);
    td_region_destroy(a);

    FakeDomain dom_b;
    td_region_t *b = buildCkptRegion(&dom_b);
    ASSERT_EQ(td_region_restore(b, path), 0);
    EXPECT_EQ(td_region_iteration(b), 71);
    for (dom_b.iter = 71; dom_b.iter <= 150; ++dom_b.iter) {
        td_region_begin(b);
        td_region_end(b);
    }

    EXPECT_DOUBLE_EQ(td_region_feature(b, 0),
                     td_region_feature(ref, 0));
    td_region_destroy(ref);
    td_region_destroy(b);
    std::remove(path);
}

TEST(TdApi, CheckpointToUnwritablePathFails)
{
    FakeDomain dom;
    td_region_t *region = td_region_init("bad", &dom);
    EXPECT_EQ(td_region_checkpoint(region,
                                   "/nonexistent-dir/x.ckpt"),
              -1);
    EXPECT_EQ(td_region_restore(region, "/nonexistent-dir/x.ckpt"),
              -1);
    td_region_destroy(region);
}

TEST(TdApi, CorruptCheckpointReportsEnvelopeError)
{
    const char *path = "td_api_corrupt.ckpt";
    FakeDomain dom;
    td_region_t *a = buildCkptRegion(&dom);
    for (dom.iter = 0; dom.iter <= 40; ++dom.iter) {
        td_region_begin(a);
        td_region_end(a);
    }
    ASSERT_EQ(td_region_checkpoint(a, path), 0);
    EXPECT_EQ(td_ckpt_status(a), 0);
    EXPECT_STREQ(td_ckpt_error(a), "");
    td_region_destroy(a);

    // Flip one payload byte: the envelope's payload CRC must catch
    // it, and the error must say so rather than whatever a second
    // parse of the damaged bytes would complain about.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f);
        f.seekg(40);
        char byte = 0;
        ASSERT_TRUE(f.get(byte));
        f.seekp(40);
        f.put(static_cast<char>(byte ^ 0x5a));
    }

    FakeDomain dom_b;
    td_region_t *b = buildCkptRegion(&dom_b);
    EXPECT_EQ(td_region_restore(b, path), -1);
    EXPECT_NE(td_ckpt_status(b), 0);
    EXPECT_NE(std::string(td_ckpt_error(b)).find("payload CRC mismatch"),
              std::string::npos)
        << td_ckpt_error(b);
    td_region_destroy(b);

    EXPECT_EQ(td_ckpt_status(nullptr), -1);
    std::remove(path);
}

} // namespace
