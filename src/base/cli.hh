/**
 * @file
 * Small command-line parser shared by examples and bench binaries.
 * Supports `--name value`, `--name=value`, and boolean `--flag`
 * options, with typed accessors and generated --help text.
 */

#ifndef TDFE_BASE_CLI_HH
#define TDFE_BASE_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tdfe
{

/**
 * Declarative option registry plus parser. Options are registered
 * with a default value before parse() runs; unknown options are a
 * fatal error so typos never silently fall back to defaults.
 */
class ArgParser
{
  public:
    /** @param description One-line program description for --help. */
    explicit ArgParser(std::string description);

    /** Register a string-valued option. */
    void addString(const std::string &name, const std::string &def,
                   const std::string &help);

    /** Register an integer-valued option. */
    void addInt(const std::string &name, std::int64_t def,
                const std::string &help);

    /** Register a double-valued option. */
    void addDouble(const std::string &name, double def,
                   const std::string &help);

    /** Register a boolean flag (presence sets it true). */
    void addFlag(const std::string &name, const std::string &help);

    /**
     * Parse argv. Handles --help by printing usage and exiting 0.
     * Fatal on unknown option names or missing values.
     */
    void parse(int argc, char **argv);

    /** @return value of a registered string option. */
    std::string getString(const std::string &name) const;

    /** @return value of a registered integer option. */
    std::int64_t getInt(const std::string &name) const;

    /** @return value of a registered double option. */
    double getDouble(const std::string &name) const;

    /** @return value of a registered flag. */
    bool getFlag(const std::string &name) const;

    /** Parse a comma-separated integer list, e.g. "30,60,90". */
    static std::vector<std::int64_t>
    parseIntList(const std::string &text);

    /** Parse a comma-separated double list, e.g. "0.1,0.2,0.5". */
    static std::vector<double> parseDoubleList(const std::string &text);

  private:
    enum class Kind { String, Int, Double, Flag };

    struct Option
    {
        Kind kind;
        std::string value;
        std::string help;
    };

    const Option &lookup(const std::string &name, Kind kind) const;
    std::string usage(const std::string &prog) const;

    std::string description;
    std::map<std::string, Option> options;
};

/**
 * Register the standard `--threads` option: total thread count of
 * the process-wide pool, workers + caller. The default 0 keeps the
 * environment sizing (TDFE_NUM_THREADS, else hardware concurrency).
 */
void addThreadsOption(ArgParser &args);

/**
 * Apply a parsed `--threads` value (see addThreadsOption) to the
 * global pool. Call after parse() and before the first parallel
 * region; 0 leaves the environment sizing untouched, and any value
 * parseThreadCount rejects is fatal.
 */
void applyThreadsOption(const ArgParser &args);

/**
 * Raw-argv variant for google-benchmark mains, which own their argv
 * parsing: strip `--threads <n>` / `--threads=<n>` from argv, resize
 * the global pool accordingly, and leave every other argument in
 * place for the program's own parsing. A value parseThreadCount
 * rejects is fatal.
 *
 * @return the thread count applied, or 0 when the flag was absent.
 */
int applyThreadsFlag(int &argc, char **argv);

/**
 * Feature-trace-store request parsed from the command line, shared
 * by every app front end (same pattern as the --threads helpers).
 */
struct StoreCliOptions
{
    /** Store file path; empty means no store was requested. */
    std::string path;
    /** Durability policy name (--store-durability): "none",
     *  "flush", or "fsync". Kept as a string here — src/base does
     *  not depend on src/store; storeOptionsFrom (src/harness)
     *  parses it, fatal on typos. */
    std::string durability = "none";
    /** Keep per-rank part files after the merge
     *  (--store-keep-parts). */
    bool keepParts = false;
};

/**
 * Register the standard feature-store options: `--store <path>`
 * (write extracted features to a trace store; empty default
 * disables), `--store-durability none|flush|fsync` (when sealed
 * blocks become durable, and so when `tdfstool tail` sees them),
 * and the `--store-keep-parts` flag (keep per-rank part files after
 * the merge; damaged parts are kept regardless, since the merge
 * salvages what they hold and never aborts on them).
 */
void addStoreOptions(ArgParser &args);

/** Read the parsed --store* values. */
StoreCliOptions storeOptions(const ArgParser &args);

/**
 * Crash-safe-checkpoint request parsed from the command line (the
 * run harness's HarnessOptions::ckpt; see src/ckpt).
 */
struct CkptCliOptions
{
    /** Checkpoint path prefix; empty means no checkpointing. */
    std::string path;
    /** Iterations between checkpoints (--ckpt-every; 0: only on
     *  SIGINT/SIGTERM). */
    std::int64_t every = 0;
    /** Generations kept on disk (--ckpt-keep). */
    std::int64_t keep = 3;
    /** Durability policy name (--ckpt-durability): "none",
     *  "flush", or "fsync". A string for the same layering reason
     *  as StoreCliOptions::durability. */
    std::string durability = "fsync";
    /** Resume from the newest valid generation (--resume-auto). */
    bool resumeAuto = false;
};

/**
 * Register the standard checkpoint options: `--ckpt <prefix>`
 * (write crash-safe checkpoints to "<prefix>.NNNNNN.tdck"; empty
 * default disables), `--ckpt-every <n>` (iterations between
 * generations; 0 checkpoints only on SIGINT/SIGTERM),
 * `--ckpt-keep <n>` (generations retained),
 * `--ckpt-durability none|flush|fsync`, and the `--resume-auto`
 * flag (restore from the newest valid generation before the run).
 */
void addCkptOptions(ArgParser &args);

/** Read the parsed --ckpt* / --resume-auto values. */
CkptCliOptions ckptOptions(const ArgParser &args);

/**
 * Telemetry request parsed from the command line (src/obs), shared
 * by every runner and example.
 */
struct ObsCliOptions
{
    /** Metrics-snapshot JSON destination (--metrics-out; empty
     *  disables the file, not the metrics). */
    std::string metricsOut;
    /** Chrome trace JSON destination (--trace-out). Requesting it
     *  turns span recording on. */
    std::string traceOut;
    /** Iterations between heartbeat inform() lines
     *  (--metrics-every; 0 disables the heartbeat). */
    std::int64_t metricsEvery = 0;

    /** @return true when any telemetry output was requested. */
    bool
    enabled() const
    {
        return !metricsOut.empty() || !traceOut.empty() ||
               metricsEvery > 0;
    }
};

/**
 * Register the standard telemetry options: `--metrics-out
 * <file.json>` (write the tdfe.metrics.v1 snapshot at exit;
 * `tdfstool metrics` pretty-prints it), `--trace-out <file.json>`
 * (write a Chrome trace_event file loadable in Perfetto), and
 * `--metrics-every <n>` (one-line heartbeat via inform() every n
 * iterations).
 */
void addObsOptions(ArgParser &args);

/** Read the parsed --metrics-* and --trace-out values. */
ObsCliOptions obsOptions(const ArgParser &args);

/**
 * Enable metric accumulation when @p opts requests any telemetry
 * and span recording when a trace file was requested. Call before
 * the run; pairs with finishObsOptions after it.
 */
void applyObsOptions(const ObsCliOptions &opts);

/**
 * Write the requested output files (metrics snapshot JSON, Chrome
 * trace JSON). Warns and keeps going when a file cannot be written
 * — telemetry must never fail a run. @return true when everything
 * requested was written.
 */
bool finishObsOptions(const ObsCliOptions &opts);

} // namespace tdfe

#endif // TDFE_BASE_CLI_HH
