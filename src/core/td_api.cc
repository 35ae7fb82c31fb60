#include "core/td_api.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "base/logging.hh"
#include "base/serial.hh"
#include "ckpt/checkpoint.hh"
#include "core/iter_param.hh"
#include "core/region.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "par/store_merge.hh"
#include "store/live.hh"
#include "store/query.hh"
#include "store/reader.hh"
#include "store/writer.hh"

/** C-side region handle: owns the C++ Region. */
struct td_region
{
    explicit td_region(const char *name, void *domain)
        : region(name ? name : "", domain)
    {
    }

    tdfe::Region region;
    /** Last checkpoint/restore outcome (td_ckpt_status/_error). */
    int ckptStatus = 0;
    std::string ckptErrorMsg;
};

/** C-side window handle. */
struct td_iter_param
{
    tdfe::IterParam window;
};

/** C-side store handle: owns the writer and a reused record. */
struct td_store
{
    td_store(const char *path, tdfe::StoreSchema schema,
             tdfe::StoreOptions options)
        : writer(path, schema, options)
    {
        record.coeffs.resize(schema.coeffCount, 0.0);
    }

    tdfe::FeatureStoreWriter writer;
    tdfe::FeatureRecord record;
    /** Backs the pointer td_store_error hands out. */
    std::string errorMsg;
};

/** C-side live-view handle: the data-file follower plus the tail
 *  cursor streaming its snapshots (see store/live.hh). */
struct td_store_view
{
    td_store_view(const char *path, tdfe::LiveViewOptions options)
        : live(path, options), tail(live)
    {
    }

    tdfe::LiveStoreReader live;
    tdfe::TailCursor tail;
    tdfe::FeatureRecord record;
};

namespace
{

/** Shared filter builder of the td_store_query_* functions: a
 *  negative bound/id disables that clause; @p where is NULL/empty
 *  or a comma-separated conjunction of "col<op>value" predicates
 *  (see td_api.h). @return false on a predicate that won't parse. */
bool
buildQueryFilter(long iter_begin, long iter_end, long analysis,
                 int stop, const char *where, tdfe::EventFilter &out)
{
    if (iter_begin >= 0)
        out.iterBegin = iter_begin;
    if (iter_end >= 0)
        out.iterRange(out.iterBegin, iter_end);
    if (analysis >= 0)
        out.analysisIs(analysis);
    if (stop >= 0)
        out.stopIs(stop != 0);
    const std::string spec = where ? where : "";
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string one = spec.substr(pos, comma - pos);
        if (!one.empty()) {
            tdfe::MetricPredicate p;
            std::string error;
            if (!tdfe::parseMetricPredicate(one, p, &error)) {
                TDFE_WARN("td_store_query: ", error);
                return false;
            }
            out.where(p);
        }
        pos = comma + 1;
    }
    return true;
}

/** Shared body of the td_store_open* functions. @p durability is
 *  NULL ("none") or a policy name, parsed non-fatally: a C caller
 *  gets NULL back, not a terminated process. @return NULL on
 *  invalid arguments. */
td_store_t *
openStore(const char *path, int n_coeffs, int block_capacity,
          const char *durability)
{
    if (!path || n_coeffs < 0 || block_capacity < 0)
        return nullptr;
    tdfe::StoreSchema schema;
    schema.coeffCount = static_cast<std::size_t>(n_coeffs);
    tdfe::StoreOptions options;
    if (block_capacity > 0)
        options.blockCapacity =
            static_cast<std::size_t>(block_capacity);
    if (durability) {
        using tdfe::store::DurabilityPolicy;
        const std::string d(durability);
        bool known = false;
        for (const DurabilityPolicy p :
             {DurabilityPolicy::None, DurabilityPolicy::FlushPerSeal,
              DurabilityPolicy::SyncPerSeal})
            if (d == tdfe::store::durabilityPolicyName(p)) {
                options.durability = p;
                known = true;
            }
        if (!known)
            return nullptr;
    }
    return new td_store(path, schema, options);
}

} // namespace

extern "C" {

void
td_ar_options_default(td_ar_options_t *opts)
{
    TDFE_ASSERT(opts, "null options pointer");
    const tdfe::ArConfig def;
    opts->order = static_cast<int>(def.order);
    opts->lag = def.lag;
    opts->axis = TD_AXIS_SPACE;
    opts->batch_size = static_cast<int>(def.batchSize);
    opts->learning_rate = def.sgd.learningRate;
    opts->converge_tol = def.convergeTol;
    opts->patience = static_cast<int>(def.convergePatience);
    opts->min_batches = static_cast<int>(def.minBatches);
    opts->feature_kind = TD_FEATURE_BREAKPOINT_RADIUS;
    opts->search_end = 0;
    opts->coarse_step = 4;
    opts->smooth_window = 5;
    opts->feature_location = -1;
    opts->min_location = 0;
}

td_region_t *
td_region_init(const char *name, void *domain)
{
    return new td_region(name, domain);
}

void
td_region_destroy(td_region_t *region)
{
    delete region;
}

td_iter_param_t *
td_iter_param_init(long begin, long end, long step)
{
    auto *p = new td_iter_param;
    p->window = tdfe::IterParam(begin, end, step);
    return p;
}

void
td_iter_param_destroy(td_iter_param_t *param)
{
    delete param;
}

int
td_region_add_analysis_ex(td_region_t *region,
                          td_var_provider_fn provider,
                          td_iter_param_t *loc, int method,
                          td_iter_param_t *iter, double threshold,
                          int if_simulation_will_terminate,
                          const td_ar_options_t *opts)
{
    TDFE_ASSERT(region && provider && loc && iter && opts,
                "td_region_add_analysis_ex: null argument");

    tdfe::AnalysisConfig cfg;
    cfg.provider = [provider](void *domain, long l) {
        return provider(domain, static_cast<int>(l));
    };
    cfg.space = loc->window;
    cfg.time = iter->window;
    cfg.method = static_cast<tdfe::AnalysisMethod>(method);
    cfg.threshold = threshold;
    cfg.stopWhenConverged = if_simulation_will_terminate != 0;

    cfg.ar.order = static_cast<std::size_t>(opts->order);
    cfg.ar.lag = opts->lag;
    cfg.ar.axis = opts->axis == TD_AXIS_TIME ? tdfe::LagAxis::Time
                                             : tdfe::LagAxis::Space;
    cfg.ar.batchSize = static_cast<std::size_t>(opts->batch_size);
    cfg.ar.sgd.learningRate = opts->learning_rate;
    cfg.ar.convergeTol = opts->converge_tol;
    cfg.ar.convergePatience =
        static_cast<std::size_t>(opts->patience);
    cfg.ar.minBatches = static_cast<std::size_t>(opts->min_batches);

    switch (opts->feature_kind) {
      case TD_FEATURE_BREAKPOINT_RADIUS:
        cfg.feature = tdfe::FeatureKind::BreakpointRadius;
        break;
      case TD_FEATURE_DELAY_TIME:
        cfg.feature = tdfe::FeatureKind::DelayTime;
        break;
      case TD_FEATURE_PEAK_VALUE:
        cfg.feature = tdfe::FeatureKind::PeakValue;
        break;
      default:
        TDFE_FATAL("unknown feature kind ", opts->feature_kind);
    }
    cfg.searchEnd = opts->search_end;
    cfg.coarseStep = opts->coarse_step;
    cfg.smoothWindow =
        static_cast<std::size_t>(opts->smooth_window);
    cfg.featureLocation = opts->feature_location;
    cfg.minLocation = opts->min_location;

    return static_cast<int>(
        region->region.addAnalysis(std::move(cfg)));
}

int
td_region_add_analysis(td_region_t *region,
                       td_var_provider_fn provider,
                       td_iter_param_t *loc, int method,
                       td_iter_param_t *iter, double threshold,
                       int if_simulation_will_terminate)
{
    td_ar_options_t opts;
    td_ar_options_default(&opts);
    return td_region_add_analysis_ex(region, provider, loc, method,
                                     iter, threshold,
                                     if_simulation_will_terminate,
                                     &opts);
}

void
td_region_set_async(td_region_t *region, int async)
{
    region->region.setAsyncAnalyses(async != 0);
}

void
td_region_set_relaxed_stop(td_region_t *region, int relaxed)
{
    region->region.setRelaxedStopQuery(relaxed != 0);
}

void
td_region_begin(td_region_t *region)
{
    region->region.begin();
}

void
td_region_end(td_region_t *region)
{
    region->region.end();
}

int
td_region_should_stop(const td_region_t *region)
{
    return region->region.shouldStop() ? 1 : 0;
}

long
td_region_iteration(const td_region_t *region)
{
    return region->region.iteration();
}

double
td_region_feature(const td_region_t *region, int analysis)
{
    return region->region
        .analysis(static_cast<std::size_t>(analysis))
        .extractFeature();
}

double
td_region_predicted_value(const td_region_t *region, int analysis)
{
    return region->region
        .analysis(static_cast<std::size_t>(analysis))
        .currentPrediction();
}

int
td_region_analysis_converged(const td_region_t *region, int analysis)
{
    return region->region
                   .analysis(static_cast<std::size_t>(analysis))
                   .converged()
               ? 1
               : 0;
}

long
td_region_converged_iteration(const td_region_t *region, int analysis)
{
    return region->region
        .analysis(static_cast<std::size_t>(analysis))
        .convergedIteration();
}

int
td_region_wavefront_rank(const td_region_t *region)
{
    return region->region.wavefrontRank();
}

double
td_region_overhead_seconds(const td_region_t *region)
{
    return region->region.overheadSeconds();
}

td_store_t *
td_store_open(const char *path, int n_coeffs, int block_capacity)
{
    return openStore(path, n_coeffs, block_capacity, nullptr);
}

td_store_t *
td_store_open_ex(const char *path, int n_coeffs, int block_capacity,
                 const char *durability)
{
    return openStore(path, n_coeffs, block_capacity, durability);
}

int
td_store_append(td_store_t *store, long iteration, long analysis,
                int stop, double wall_time, double wavefront,
                double predicted, double mse, const double *coeffs)
{
    if (!store || (!coeffs && !store->record.coeffs.empty()))
        return -1;
    tdfe::FeatureRecord &rec = store->record;
    rec.iteration = iteration;
    rec.analysis = analysis;
    rec.stop = stop != 0;
    rec.wallTime = wall_time;
    rec.wavefront = wavefront;
    rec.predicted = predicted;
    rec.mse = mse;
    for (std::size_t k = 0; k < rec.coeffs.size(); ++k)
        rec.coeffs[k] = coeffs[k];
    if (!store->writer.append(rec)) {
        const int code = store->writer.status().code;
        return code > 0 ? code : EIO;
    }
    return 0;
}

int
td_store_status(const td_store_t *store)
{
    if (!store)
        return -1;
    if (store->writer.ok())
        return 0;
    const int code = store->writer.status().code;
    return code > 0 ? code : EIO;
}

const char *
td_store_error(const td_store_t *store)
{
    if (!store)
        return "";
    auto *s = const_cast<td_store_t *>(store);
    s->errorMsg = store->writer.status().message;
    return s->errorMsg.c_str();
}

long
td_store_dropped(const td_store_t *store)
{
    if (!store)
        return -1;
    return static_cast<long>(store->writer.droppedRecords());
}

long
td_store_close(td_store_t *store)
{
    if (!store)
        return -1;
    const std::size_t bytes = store->writer.finish();
    delete store;
    return static_cast<long>(bytes);
}

long
td_store_salvage(const char *src_path, const char *dst_path)
{
    if (!src_path || !dst_path)
        return -1;
    tdfe::SalvageReport report;
    if (!tdfe::salvageStore(src_path, dst_path, report))
        return -1;
    return static_cast<long>(report.records);
}

void
td_region_set_store(td_region_t *region, td_store_t *store)
{
    TDFE_ASSERT(region, "null region");
    region->region.setFeatureStore(store ? &store->writer : nullptr);
}

int
td_region_store_degraded(const td_region_t *region)
{
    if (!region)
        return 0;
    return region->region.featureStoreDegraded() ? 1 : 0;
}

int
td_store_verify(const char *path)
{
    if (!path)
        return -1;
    const auto reader = tdfe::FeatureStoreReader::open(path);
    return reader && reader->verify() ? 0 : -1;
}

long
td_store_record_count(const char *path)
{
    if (!path)
        return -1;
    const auto reader = tdfe::FeatureStoreReader::open(path);
    return reader ? static_cast<long>(reader->recordCount()) : -1;
}

long
td_store_query_count(const char *path, long iter_begin, long iter_end,
                     long analysis, int stop, const char *where)
{
    if (!path)
        return -1;
    tdfe::EventFilter filter;
    if (!buildQueryFilter(iter_begin, iter_end, analysis, stop, where,
                          filter))
        return -1;
    const auto reader = tdfe::FeatureStoreReader::open(path);
    if (!reader)
        return -1;
    tdfe::QueryCursor cursor(*reader, std::move(filter));
    tdfe::FeatureRecord rec;
    long matched = 0;
    while (cursor.next(rec))
        ++matched;
    return matched;
}

long
td_store_query_stat(const char *path, long iter_begin, long iter_end,
                    long analysis, int stop, const char *where,
                    const char *column, double *out_min,
                    double *out_max, double *out_mean)
{
    if (!path || !column)
        return -1;
    const std::size_t col = tdfe::metricColumnIndex(column);
    if (col == std::numeric_limits<std::size_t>::max())
        return -1;
    tdfe::EventFilter filter;
    if (!buildQueryFilter(iter_begin, iter_end, analysis, stop, where,
                          filter))
        return -1;
    const auto reader = tdfe::FeatureStoreReader::open(path);
    if (!reader)
        return -1;
    tdfe::QueryCursor cursor(*reader, std::move(filter));
    tdfe::FeatureRecord rec;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    long matched = 0;
    long finite = 0;
    double lo = nan;
    double hi = nan;
    double sum = 0.0;
    while (cursor.next(rec)) {
        ++matched;
        double v = 0.0;
        tdfe::metricColumnValue(rec, col, v);
        if (std::isnan(v))
            continue;
        if (finite == 0 || v < lo)
            lo = v;
        if (finite == 0 || v > hi)
            hi = v;
        sum += v;
        ++finite;
    }
    if (out_min)
        *out_min = lo;
    if (out_max)
        *out_max = hi;
    if (out_mean)
        *out_mean = finite ? sum / static_cast<double>(finite) : nan;
    return matched;
}

td_store_view_t *
td_store_view_open(const char *path, double stall_deadline_seconds)
{
    if (!path)
        return nullptr;
    tdfe::LiveViewOptions options;
    options.stallDeadlineSeconds = stall_deadline_seconds;
    return new td_store_view(path, options);
}

int
td_store_view_refresh(td_store_view_t *view)
{
    if (!view)
        return -1;
    return view->live.refresh() ? 1 : 0;
}

int
td_store_view_wait(td_store_view_t *view, double timeout_seconds)
{
    if (!view)
        return -1;
    return view->live.waitForAdvance(timeout_seconds) ? 1 : 0;
}

int
td_store_view_state(const td_store_view_t *view)
{
    if (!view)
        return -1;
    switch (view->live.state()) {
      case tdfe::LiveState::Waiting:
        return 0;
      case tdfe::LiveState::Live:
        return 1;
      case tdfe::LiveState::Final:
        return 2;
      case tdfe::LiveState::WriterLost:
        return 3;
    }
    return -1;
}

long
td_store_view_generation(const td_store_view_t *view)
{
    if (!view)
        return -1;
    return static_cast<long>(view->live.generation());
}

long
td_store_view_records(const td_store_view_t *view)
{
    if (!view)
        return -1;
    return static_cast<long>(view->live.view().recordCount());
}

int
td_store_view_next(td_store_view_t *view, long *iteration,
                   long *analysis, int *stop, double *wall_time,
                   double *wavefront, double *predicted, double *mse,
                   double *coeffs, int max_coeffs)
{
    if (!view)
        return -1;
    tdfe::FeatureRecord &rec = view->record;
    if (!view->tail.next(rec))
        return 0;
    if (iteration)
        *iteration = rec.iteration;
    if (analysis)
        *analysis = rec.analysis;
    if (stop)
        *stop = rec.stop ? 1 : 0;
    if (wall_time)
        *wall_time = rec.wallTime;
    if (wavefront)
        *wavefront = rec.wavefront;
    if (predicted)
        *predicted = rec.predicted;
    if (mse)
        *mse = rec.mse;
    if (coeffs && max_coeffs > 0) {
        const std::size_t n =
            std::min(rec.coeffs.size(),
                     static_cast<std::size_t>(max_coeffs));
        for (std::size_t k = 0; k < n; ++k)
            coeffs[k] = rec.coeffs[k];
    }
    return 1;
}

int
td_store_view_done(const td_store_view_t *view)
{
    if (!view)
        return -1;
    return view->tail.done() ? 1 : 0;
}

void
td_store_view_close(td_store_view_t *view)
{
    delete view;
}

int
td_region_checkpoint(const td_region_t *region, const char *path)
{
    TDFE_ASSERT(region && path, "null region or path");
    // The handle's status fields are bookkeeping, not region state.
    td_region_t *self = const_cast<td_region_t *>(region);

    std::ostringstream os(std::ios::binary);
    if (!region->region.saveCheckpoint(os)) {
        self->ckptStatus = -1;
        self->ckptErrorMsg = region->region.checkpointError();
        return -1;
    }
    const tdfe::ckpt::CkptStatus st = tdfe::ckpt::writeCheckpointFile(
        path, os.str(),
        static_cast<std::uint64_t>(region->region.iteration()));
    self->ckptStatus = st.code;
    self->ckptErrorMsg = st.message;
    return st.ok() ? 0 : -1;
}

int
td_region_restore(td_region_t *region, const char *path)
{
    TDFE_ASSERT(region && path, "null region or path");
    std::string payload, error;
    std::uint64_t iteration = 0;
    if (!tdfe::ckpt::readCheckpointFile(path, &payload, &iteration,
                                        &error)) {
        region->ckptStatus = -1;
        region->ckptErrorMsg = error;
        return -1;
    }
    tdfe::BinaryReader r(payload);
    if (!region->region.loadCheckpoint(r)) {
        region->ckptStatus = -1;
        region->ckptErrorMsg = region->region.checkpointError();
        return -1;
    }
    region->ckptStatus = 0;
    region->ckptErrorMsg.clear();
    return 0;
}

int
td_ckpt_status(const td_region_t *region)
{
    if (!region)
        return -1;
    return region->ckptStatus;
}

const char *
td_ckpt_error(const td_region_t *region)
{
    if (!region)
        return "null region handle";
    return region->ckptErrorMsg.c_str();
}

void
td_metrics_enable(int enable)
{
    tdfe::obs::setMetricsEnabled(enable != 0);
}

void
td_trace_enable(int enable)
{
    tdfe::obs::setTraceEnabled(enable != 0);
}

char *
td_metrics_snapshot_json(void)
{
    const std::string json = tdfe::obs::metricsSnapshotJson();
    char *out = static_cast<char *>(std::malloc(json.size() + 1));
    if (!out)
        return nullptr;
    std::memcpy(out, json.c_str(), json.size() + 1);
    return out;
}

int
td_metrics_write(const char *path)
{
    if (!path)
        return -1;
    return tdfe::obs::writeMetricsJson(path) ? 0 : -1;
}

int
td_trace_export(const char *path)
{
    if (!path)
        return -1;
    return tdfe::obs::writeChromeTrace(path) ? 0 : -1;
}

void
td_metrics_reset(void)
{
    tdfe::obs::resetMetrics();
}

} // extern "C"

void
td_region_use_communicator(td_region_t *region,
                           tdfe::Communicator *comm)
{
    region->region.setCommunicator(comm);
}

tdfe::Region *
td_region_cxx(td_region_t *region)
{
    return &region->region;
}
