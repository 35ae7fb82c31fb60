/**
 * @file
 * The paper's C API (Sec. III-C / Fig. 2), verbatim names:
 *
 *   - td_region_init / td_region_destroy
 *   - td_iter_param_init / td_iter_param_destroy
 *   - td_region_add_analysis (+ _ex with explicit AR options)
 *   - td_region_begin / td_region_end
 *
 * plus the query functions the callbacks "broadcast": the current
 * predicted value, the rank holding the wave front, and the flag
 * indicating the action taken when the analysis concludes.
 *
 * The header is plain C so that C simulations (the usual LULESH
 * build) can link against the library unchanged.
 */

#ifndef TDFE_CORE_TD_API_H
#define TDFE_CORE_TD_API_H

#ifdef __cplusplus
extern "C" {
#endif

/** Opaque region handle (wraps tdfe::Region). */
typedef struct td_region td_region_t;

/** Opaque (begin, end, step) window handle. */
typedef struct td_iter_param td_iter_param_t;

/** Opaque feature-trace-store handle (wraps
 *  tdfe::FeatureStoreWriter). */
typedef struct td_store td_store_t;

/** Opaque live-view handle (see td_store_view_open). */
typedef struct td_store_view td_store_view_t;

/**
 * User-implemented diagnostic-variable accessor: returns the value
 * of the tracked variable at @p loc for the given simulation domain.
 *
 * Thread-safety and lifetime: providers are called only inside
 * td_region_end, on the calling thread, one analysis at a time, in
 * every mode (synchronous or td_region_set_async). Only the digest,
 * which never calls providers, runs on the thread pool, so
 * providers that mutate shared state (lazy caches, handles bound to
 * one thread) are safe. A provider must stay valid for the whole
 * simulation: the region keeps invoking it every td_region_end
 * until the run (or the sampling window) finishes.
 */
typedef double (*td_var_provider_fn)(void *domain, int loc);

/** Data-analysis methods (paper: 'Curve_Fitting'). */
enum
{
    Curve_Fitting = 1
};

/** Feature kinds selectable through td_ar_options_t. */
enum
{
    TD_FEATURE_BREAKPOINT_RADIUS = 0,
    TD_FEATURE_DELAY_TIME = 1,
    TD_FEATURE_PEAK_VALUE = 2
};

/** Lag axes selectable through td_ar_options_t. */
enum
{
    TD_AXIS_SPACE = 0,
    TD_AXIS_TIME = 1
};

/** Explicit model/training options for td_region_add_analysis_ex. */
typedef struct td_ar_options
{
    /** Model size n (number of AR terms). */
    int order;
    /** Time-step lag in iterations. */
    long lag;
    /** TD_AXIS_SPACE or TD_AXIS_TIME. */
    int axis;
    /** Samples per mini-batch. */
    int batch_size;
    /** Gradient-descent step size (normalized space). */
    double learning_rate;
    /** Normalized validation-MSE convergence tolerance. */
    double converge_tol;
    /** Consecutive converged batches required. */
    int patience;
    /** Minimum batches before convergence may fire. */
    int min_batches;
    /** TD_FEATURE_* selector. */
    int feature_kind;
    /** Outermost location of the break-point search. */
    long search_end;
    /** Coarse step of the threshold search. */
    long coarse_step;
    /** Smoothing window for delay-time tracking. */
    int smooth_window;
    /** Location whose curve yields the feature (-1: window begin). */
    long feature_location;
    /** Lowest legal location in the domain. */
    long min_location;
} td_ar_options_t;

/** Fill @p opts with the library defaults. */
void td_ar_options_default(td_ar_options_t *opts);

/**
 * Create a feature-extraction region.
 *
 * @param name Optional label ("" is fine, as in the paper example).
 * @param domain Opaque simulation domain passed to providers.
 */
td_region_t *td_region_init(const char *name, void *domain);

/** Release a region and everything it owns. */
void td_region_destroy(td_region_t *region);

/** Create a (begin, end, step) window ("tuple of three"). */
td_iter_param_t *td_iter_param_init(long begin, long end, long step);

/** Release a window created by td_iter_param_init. */
void td_iter_param_destroy(td_iter_param_t *param);

/**
 * Register an analysis with default AR options (paper signature).
 *
 * @param region Target region.
 * @param provider Diagnostic accessor.
 * @param loc Spatial characteristics.
 * @param method Data-analysis method (Curve_Fitting).
 * @param iter Temporal characteristics.
 * @param threshold Threshold for break-point extraction.
 * @param if_simulation_will_terminate Nonzero requests early
 *        termination once the model converges.
 * @return analysis id (>= 0) for the query functions.
 */
int td_region_add_analysis(td_region_t *region,
                           td_var_provider_fn provider,
                           td_iter_param_t *loc, int method,
                           td_iter_param_t *iter, double threshold,
                           int if_simulation_will_terminate);

/** As td_region_add_analysis with explicit AR options. */
int td_region_add_analysis_ex(td_region_t *region,
                              td_var_provider_fn provider,
                              td_iter_param_t *loc, int method,
                              td_iter_param_t *iter, double threshold,
                              int if_simulation_will_terminate,
                              const td_ar_options_t *opts);

/**
 * Pipeline the per-iteration analysis work: nonzero makes
 * td_region_end snapshot the providers synchronously and defer the
 * training digest to the process-wide thread pool so it overlaps
 * the next solver step. Every query (stop flag, features,
 * predictions, checkpoints) first drains the in-flight work, so
 * results are bitwise identical to the synchronous mode; see the
 * td_var_provider_fn note for the provider lifetime rules.
 */
void td_region_set_async(td_region_t *region, int async);

/**
 * Relax the stop query: nonzero makes td_region_should_stop return
 * the last *published* stop decision instead of draining the
 * in-flight pipeline work and completing the posted stop
 * collective. The answer trails the strict query by at most one
 * iteration; every other result (features, predictions,
 * checkpoints) stays bitwise identical. Composes with
 * td_region_set_async for full solver/analysis/communication
 * overlap in codes that poll the stop flag every step.
 */
void td_region_set_relaxed_stop(td_region_t *region, int relaxed);

/**
 * Create (truncate) a feature trace store at @p path: an
 * append-only columnar file of extracted features (iteration, wall
 * time, wave-front position, one-step prediction, fit coefficients,
 * validation MSE, stop flag) that persists the in-situ results the
 * paper otherwise only holds in memory.
 *
 * @param path Output file.
 * @param n_coeffs Coefficient columns (AR order + 1 of the
 *        producing analyses; the maximum when several differ).
 * @param block_capacity Records per compressed block (0: default).
 * @return handle, or NULL on invalid arguments. A path that cannot
 *         be opened is NOT fatal and still returns a handle: the
 *         store starts degraded (td_store_status nonzero, appends
 *         dropped) so the simulation it serves keeps running.
 */
td_store_t *td_store_open(const char *path, int n_coeffs,
                          int block_capacity);

/**
 * As td_store_open with an explicit durability policy: "none"
 * (OS-buffered, fastest), "flush" (flush per sealed block — a
 * process crash loses at most the in-flight block), or "fsync"
 * (fsync per sealed block — sealed blocks survive node loss).
 * NULL means "none". Any store can be followed while it is written
 * (td_store_view_*): a sealed block becomes visible once the bytes
 * after it reach the kernel — at every seal under "flush" and
 * "fsync", whenever the stdio buffer is written out under "none".
 * @return NULL on invalid arguments, including an unknown
 * durability string.
 */
td_store_t *td_store_open_ex(const char *path, int n_coeffs,
                             int block_capacity,
                             const char *durability);

/**
 * Append one record. @p coeffs must point at n_coeffs doubles.
 *
 * Failure semantics: every sealed block's write is checked when it
 * happens (not at close); transient errors (EIO-class) are retried
 * with bounded backoff, and an unrecoverable error (ENOSPC, retry
 * budget spent) puts the store in a sticky degraded state — it
 * logs once, truncates the file back to its last sealed block so
 * the prefix stays recoverable, and drops this and every later
 * record. Nothing here ever terminates the caller.
 *
 * @return 0 when the record was accepted, -1 on null arguments, or
 *         the positive errno-style code of the first unrecoverable
 *         error when the store is degraded (the record was
 *         dropped; see td_store_status / td_store_error).
 */
int td_store_append(td_store_t *store, long iteration, long analysis,
                    int stop, double wall_time, double wavefront,
                    double predicted, double mse,
                    const double *coeffs);

/**
 * @return 0 while the store is healthy, the positive errno-style
 * code of the first unrecoverable I/O error once it degraded
 * (sticky), or -1 for a NULL handle.
 */
int td_store_status(const td_store_t *store);

/**
 * @return human-readable detail of the first unrecoverable error
 * (includes the failing byte offset), "" while healthy. The pointer
 * stays valid until the next call on this handle or its close.
 */
const char *td_store_error(const td_store_t *store);

/**
 * @return records dropped because the store degraded (appends
 * rejected plus staged records lost with the failing block), or -1
 * for a NULL handle.
 */
long td_store_dropped(const td_store_t *store);

/**
 * Flush pending blocks, write the footer, close, and release the
 * handle. Detach it from any region first (td_region_set_store with
 * NULL) — the region must not append to a closed store.
 * @return total file bytes; 0 when the store degraded (the file
 *         then holds only its salvageable sealed-block prefix, no
 *         footer — see td_store_salvage); -1 for a NULL handle.
 */
long td_store_close(td_store_t *store);

/**
 * Recover a damaged store: scan @p src_path forward from the
 * header, keep every block that CRC-checks and decodes, and write
 * the surviving records as a clean store at @p dst_path. Works on
 * stores whose footer was never written (writer crash / degrade)
 * or is corrupt.
 * @return records recovered (>= 0), or -1 when @p src_path has no
 *         salvageable header or @p dst_path cannot be written.
 */
long td_store_salvage(const char *src_path, const char *dst_path);

/**
 * Attach @p store (may be NULL to detach) as the region's feature
 * sink: every td_region_end appends one record per analysis. Call
 * after every td_region_add_analysis; the store's n_coeffs must
 * cover the largest analysis order + 1.
 *
 * A sink whose store degrades mid-run is detached automatically:
 * the region logs once, stops appending, and the simulation
 * continues bit-for-bit unchanged — poll
 * td_region_store_degraded to report the incomplete trace.
 */
void td_region_set_store(td_region_t *region, td_store_t *store);

/**
 * @return nonzero when a previously attached feature sink hit an
 * unrecoverable I/O error and was detached (sticky; the run's
 * physics were unaffected, only the trace is incomplete).
 */
int td_region_store_degraded(const td_region_t *region);

/**
 * Validate the store at @p path end to end: header, footer, every
 * block CRC, and a full decode.
 * @return 0 when intact, -1 when missing, truncated, or corrupt.
 */
int td_store_verify(const char *path);

/** @return records in the store at @p path, or -1 when unreadable. */
long td_store_record_count(const char *path);

/**
 * Count the records in the store at @p path matching a filter,
 * reading as little as the store's block statistics allow: blocks
 * the footer's zone map (or, on an iteration-sorted store, the
 * block index) proves empty of matches are never decoded — or even
 * read off disk.
 *
 * Filter clauses are ANDed; each can be disabled independently:
 *   - iteration window [@p iter_begin, @p iter_end): a negative
 *     bound leaves that side of the window open;
 *   - @p analysis: exact analysis id, or -1 for any;
 *   - @p stop: exact stop-flag value (0 or 1), or -1 for any;
 *   - @p where: NULL/empty for none, else a comma-separated
 *     conjunction of "column<op>value" predicates over the fixed
 *     metric columns wall_time / wavefront / predicted / mse with
 *     operators < <= > >= == != (e.g. "mse<0.001,wavefront>=12").
 *     A record whose metric is NaN never matches a predicate on
 *     that column, != included.
 *
 * @return matching records (>= 0), or -1 when the store is
 *         unreadable or @p where does not parse.
 */
long td_store_query_count(const char *path, long iter_begin,
                          long iter_end, long analysis, int stop,
                          const char *where);

/**
 * As td_store_query_count, additionally reducing one metric column
 * over the matching records: the minimum, maximum, and mean of
 * @p column ("wall_time", "wavefront", "predicted" or "mse") are
 * stored through the non-NULL out pointers. NaN values are skipped
 * by the reduction; when no matching record has a non-NaN value in
 * the column, all three results are NaN.
 * @return matching records (>= 0), or -1 on an unreadable store,
 *         unknown @p column, or a @p where clause that does not
 *         parse.
 */
long td_store_query_stat(const char *path, long iter_begin,
                         long iter_end, long analysis, int stop,
                         const char *where, const char *column,
                         double *out_min, double *out_max,
                         double *out_mean);

/**
 * Crash-consistent live read handle over a store being written (or
 * already finished). Each successful refresh pins a snapshot-
 * isolated view of the blocks the writer has committed to the data
 * file — a block counts once the file holds a byte past its end:
 * records stream in store order, exactly once, and a torn or
 * half-written state is never observable — a refresh that fails
 * validation keeps the previous snapshot serving. A writer that
 * stops extending its file trips the stall deadline and the view
 * degrades to a static salvage-consistent prefix instead of
 * blocking forever. Handles are single-threaded.
 *
 * @param path Store path.
 * @param stall_deadline_seconds Seconds without progress before
 *        td_store_view_wait declares the writer lost (<= 0: wait
 *        forever).
 * @return handle, or NULL only on a NULL @p path. A store that does
 *         not exist yet is fine — the view attaches when the writer
 *         has written its header.
 */
td_store_view_t *td_store_view_open(const char *path,
                                    double stall_deadline_seconds);

/**
 * One non-blocking poll: adopt the blocks committed since the last
 * poll (or the store's footer once the writer finished). @return 1
 * when the view advanced, 0 otherwise, -1 for a NULL handle.
 */
int td_store_view_refresh(td_store_view_t *view);

/**
 * Poll with bounded exponential backoff until the view advances,
 * the store settles, or @p timeout_seconds passes (< 0: bounded
 * only by the stall deadline). @return 1 when the view advanced,
 * 0 otherwise, -1 for a NULL handle.
 */
int td_store_view_wait(td_store_view_t *view,
                       double timeout_seconds);

/**
 * @return lifecycle state: 0 waiting (no snapshot yet), 1 live
 * (following a writer), 2 final (store complete; snapshot is the
 * whole store), 3 writer lost (stalled; snapshot is a static
 * salvage-consistent prefix), -1 for a NULL handle.
 */
int td_store_view_state(const td_store_view_t *view);

/** @return generation pinned: the number of snapshots adopted so
 *  far, one per advance (0 before the first),
 *  -1 for a NULL handle. */
long td_store_view_generation(const td_store_view_t *view);

/** @return records in the current snapshot, -1 for a NULL handle. */
long td_store_view_records(const td_store_view_t *view);

/**
 * Pull the next sealed record of the live tail (store order,
 * exactly once across snapshot advances). Out pointers may be NULL
 * to skip a field; @p coeffs receives min(n_coeffs of the store,
 * @p max_coeffs) values.
 * @return 1 when a record was produced, 0 when every sealed record
 *         visible so far has been consumed (td_store_view_wait and
 *         retry, or stop if td_store_view_done), -1 for a NULL
 *         handle.
 */
int td_store_view_next(td_store_view_t *view, long *iteration,
                       long *analysis, int *stop, double *wall_time,
                       double *wavefront, double *predicted,
                       double *mse, double *coeffs, int max_coeffs);

/** @return 1 when the tail can never produce again (store settled
 *  and fully consumed), 0 otherwise, -1 for a NULL handle. */
int td_store_view_done(const td_store_view_t *view);

/** Release the handle (NULL is a no-op). Pinned snapshots owned by
 *  this handle are dropped. */
void td_store_view_close(td_store_view_t *view);

/** Mark the start of the instrumented block (paper Fig. 2 line 23). */
void td_region_begin(td_region_t *region);

/** Mark the end of the block; runs the in-situ analysis step. */
void td_region_end(td_region_t *region);

/** @return nonzero when the simulation should terminate early. */
int td_region_should_stop(const td_region_t *region);

/** @return iterations seen so far (end() calls). */
long td_region_iteration(const td_region_t *region);

/** @return extracted feature of one analysis (radius / iteration). */
double td_region_feature(const td_region_t *region, int analysis);

/** @return latest predicted value of the diagnostic variable. */
double td_region_predicted_value(const td_region_t *region,
                                 int analysis);

/** @return nonzero once the analysis' model converged. */
int td_region_analysis_converged(const td_region_t *region,
                                 int analysis);

/** @return iteration at which the model converged (-1: not yet). */
long td_region_converged_iteration(const td_region_t *region,
                                   int analysis);

/** @return rank owning the wave front (0 without decomposition). */
int td_region_wavefront_rank(const td_region_t *region);

/** @return cumulative seconds spent inside the library. */
double td_region_overhead_seconds(const td_region_t *region);

/**
 * @name Checkpoint failure semantics
 *
 * Checkpoint I/O never terminates the process. td_region_checkpoint
 * writes a CRC-framed envelope atomically (temp file, fsync,
 * rename), so a crash mid-write leaves either the previous file or
 * no file — never a torn one; td_region_restore verifies the CRCs
 * before any state is touched, and damage (truncation, bit rot,
 * wrong magic) is reported through the return value and
 * td_ckpt_status / td_ckpt_error rather than a fatal diagnostic.
 * The one remaining fatal case is caller misconfiguration: restoring
 * a checkpoint whose CRCs verify into a region built with different
 * analyses or model orders dies with a diagnostic, because that is
 * a program bug, not data damage.
 * @{
 */

/**
 * Write the region's mutable state (models, collected data,
 * optimizer and early-stop state) to @p path as an atomic,
 * CRC-framed checkpoint. Restore by building an
 * identically-configured region and calling td_region_restore.
 *
 * @return 0 on success, -1 on any I/O or serialization failure
 * (never fatal; details via td_ckpt_status / td_ckpt_error).
 */
int td_region_checkpoint(const td_region_t *region,
                         const char *path);

/**
 * Restore state written by td_region_checkpoint into an
 * identically-configured region. Envelope CRCs are verified before
 * any state is touched; a file that is not an intact envelope is
 * rejected with the envelope's own error (td_ckpt_error).
 *
 * @return 0 on success, -1 when the file cannot be read or is
 * damaged (the region's state is unspecified after a failed restore
 * — rebuild the region before retrying). Shape mismatches against a
 * CRC-clean checkpoint (different analyses or model orders)
 * terminate with a fatal diagnostic.
 */
int td_region_restore(td_region_t *region, const char *path);

/**
 * @return outcome of the last td_region_checkpoint /
 *         td_region_restore on this handle: 0 success, nonzero
 *         failure (-1 for a NULL handle).
 */
int td_ckpt_status(const td_region_t *region);

/**
 * @return human-readable detail of the last checkpoint/restore
 *         failure ("" after success). Owned by the handle; valid
 *         until the next checkpoint call or destroy.
 */
const char *td_ckpt_error(const td_region_t *region);

/** @} */

/**
 * @name Telemetry (src/obs)
 *
 * Process-wide metric counters and trace spans over every layer the
 * library touches (solver harnesses, region protocol, feature
 * store, checkpoints). Both are off by default and cost one relaxed
 * branch per site while off; enabling them never changes results —
 * counters and spans observe the run, they do not steer it.
 *
 * Metric-name stability: the names exported in the
 * "tdfe.metrics.v1" snapshot (solver.steps_total,
 * region.*_total, comm.*_total, store.writer.*_total,
 * store.reader.*_total, ckpt.*_total, degrade_total.<subsystem>)
 * are a stable interface — dashboards may key on them. New names
 * may appear in any release; existing names only disappear with a
 * schema-version bump.
 * @{
 */

/** Turn metric accumulation on or off (off by default). */
void td_metrics_enable(int enable);

/** Turn trace-span recording on or off (off by default). */
void td_trace_enable(int enable);

/**
 * @return the current metrics snapshot as a malloc()ed
 * "tdfe.metrics.v1" JSON string (free() it), or NULL on allocation
 * failure. Counters merge per-thread shards in registration order,
 * so two identical deterministic runs produce identical snapshots.
 */
char *td_metrics_snapshot_json(void);

/**
 * Write the metrics snapshot JSON to @p path.
 * @return 0 on success, -1 on a NULL path or I/O failure.
 */
int td_metrics_write(const char *path);

/**
 * Export every recorded span as a Chrome trace_event JSON file
 * (load it in Perfetto / chrome://tracing).
 * @return 0 on success, -1 on a NULL path or I/O failure.
 */
int td_trace_export(const char *path);

/** Zero every counter/gauge/histogram (test isolation). */
void td_metrics_reset(void);

/** @} */

#ifdef __cplusplus
} // extern "C"

// C++-only bridge: attach a communicator (tdfe::Communicator*) so the
// convergence broadcast and stop protocol run across ranks.
namespace tdfe
{
class Communicator;
class Region;
} // namespace tdfe

/** Attach a communicator; call before the first td_region_begin. */
void td_region_use_communicator(td_region_t *region,
                                tdfe::Communicator *comm);

/** @return the underlying C++ region (advanced queries). */
tdfe::Region *td_region_cxx(td_region_t *region);

#endif // __cplusplus

#endif // TDFE_CORE_TD_API_H
