#include "base/cli.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace tdfe
{

ArgParser::ArgParser(std::string description)
    : description(std::move(description))
{
}

void
ArgParser::addString(const std::string &name, const std::string &def,
                     const std::string &help)
{
    options[name] = Option{Kind::String, def, help};
}

void
ArgParser::addInt(const std::string &name, std::int64_t def,
                  const std::string &help)
{
    options[name] = Option{Kind::Int, std::to_string(def), help};
}

void
ArgParser::addDouble(const std::string &name, double def,
                     const std::string &help)
{
    std::ostringstream os;
    os << def;
    options[name] = Option{Kind::Double, os.str(), help};
}

void
ArgParser::addFlag(const std::string &name, const std::string &help)
{
    options[name] = Option{Kind::Flag, "0", help};
}

std::string
ArgParser::usage(const std::string &prog) const
{
    std::ostringstream os;
    os << prog << " - " << description << "\n\noptions:\n";
    for (const auto &[name, opt] : options) {
        os << "  --" << name;
        if (opt.kind != Kind::Flag)
            os << " <value>";
        os << "\n      " << opt.help << " (default: " << opt.value
           << ")\n";
    }
    return os.str();
}

void
ArgParser::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            std::fputs(usage(argv[0]).c_str(), stdout);
            std::exit(0);
        }
        if (arg.rfind("--", 0) != 0)
            TDFE_FATAL("unexpected positional argument: ", arg);

        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        if (auto eq = name.find('='); eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }

        auto it = options.find(name);
        if (it == options.end())
            TDFE_FATAL("unknown option --", name, "; try --help");

        if (it->second.kind == Kind::Flag) {
            it->second.value = has_value ? value : "1";
            continue;
        }
        if (!has_value) {
            if (i + 1 >= argc)
                TDFE_FATAL("option --", name, " needs a value");
            value = argv[++i];
        }
        it->second.value = value;
    }
}

const ArgParser::Option &
ArgParser::lookup(const std::string &name, Kind kind) const
{
    auto it = options.find(name);
    if (it == options.end())
        TDFE_PANIC("option --", name, " was never registered");
    if (it->second.kind != kind)
        TDFE_PANIC("option --", name, " accessed with the wrong type");
    return it->second;
}

std::string
ArgParser::getString(const std::string &name) const
{
    return lookup(name, Kind::String).value;
}

std::int64_t
ArgParser::getInt(const std::string &name) const
{
    return std::stoll(lookup(name, Kind::Int).value);
}

double
ArgParser::getDouble(const std::string &name) const
{
    return std::stod(lookup(name, Kind::Double).value);
}

bool
ArgParser::getFlag(const std::string &name) const
{
    return lookup(name, Kind::Flag).value != "0";
}

std::vector<std::int64_t>
ArgParser::parseIntList(const std::string &text)
{
    std::vector<std::int64_t> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(std::stoll(item));
    return out;
}

std::vector<double>
ArgParser::parseDoubleList(const std::string &text)
{
    std::vector<double> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(std::stod(item));
    return out;
}

namespace
{

/** A --threads value through parseThreadCount; fatal when invalid. */
int
threadsValue(const std::string &value)
{
    const int n = parseThreadCount(value.c_str());
    if (n == 0)
        TDFE_FATAL("invalid --threads value '", value, "' (want 1..",
                   maxThreadCount, ")");
    return n;
}

} // namespace

void
addThreadsOption(ArgParser &args)
{
    // A string option, so the value goes through the one validating
    // parser rather than a truncating integer conversion.
    args.addString("threads", "0",
                   "thread-pool size, workers + caller, 1.." +
                       std::to_string(maxThreadCount) +
                       " (0: TDFE_NUM_THREADS or hardware "
                       "concurrency)");
}

void
applyThreadsOption(const ArgParser &args)
{
    const std::string value = args.getString("threads");
    if (value != "0")
        setGlobalThreadCount(threadsValue(value));
}

void
addStoreOptions(ArgParser &args)
{
    args.addString("store", "",
                   "write extracted features to a trace store at "
                   "this path (empty: disabled)");
    args.addString("store-durability", "none",
                   "when sealed store blocks become durable, and "
                   "visible to a live tail (tdfstool tail): none "
                   "(when the stdio buffer is written out), flush "
                   "(flush per seal), or fsync (fsync per seal)");
    args.addFlag("store-keep-parts",
                 "keep the per-rank store part files after the "
                 "merge");
}

StoreCliOptions
storeOptions(const ArgParser &args)
{
    StoreCliOptions opts;
    opts.path = args.getString("store");
    opts.durability = args.getString("store-durability");
    opts.keepParts = args.getFlag("store-keep-parts");
    return opts;
}

void
addCkptOptions(ArgParser &args)
{
    args.addString("ckpt", "",
                   "write crash-safe checkpoints to "
                   "\"<prefix>.NNNNNN.tdck\" (empty: disabled)");
    args.addInt("ckpt-every", 0,
                "iterations between checkpoint generations (0: "
                "only on SIGINT/SIGTERM)");
    args.addInt("ckpt-keep", 3,
                "checkpoint generations kept on disk");
    args.addString("ckpt-durability", "fsync",
                   "when a checkpoint generation becomes durable: "
                   "none, flush, or fsync");
    args.addFlag("resume-auto",
                 "restore from the newest valid checkpoint "
                 "generation before the run");
}

CkptCliOptions
ckptOptions(const ArgParser &args)
{
    CkptCliOptions opts;
    opts.path = args.getString("ckpt");
    opts.every = args.getInt("ckpt-every");
    opts.keep = args.getInt("ckpt-keep");
    opts.durability = args.getString("ckpt-durability");
    opts.resumeAuto = args.getFlag("resume-auto");
    return opts;
}

void
addObsOptions(ArgParser &args)
{
    args.addString("metrics-out", "",
                   "write the metrics snapshot (tdfe.metrics.v1 "
                   "JSON) here at exit (empty: disabled)");
    args.addString("trace-out", "",
                   "write a Chrome trace_event JSON here at exit, "
                   "loadable in Perfetto (empty: disabled)");
    args.addInt("metrics-every", 0,
                "emit a one-line metrics heartbeat every N "
                "iterations (0: disabled)");
}

ObsCliOptions
obsOptions(const ArgParser &args)
{
    ObsCliOptions opts;
    opts.metricsOut = args.getString("metrics-out");
    opts.traceOut = args.getString("trace-out");
    opts.metricsEvery = args.getInt("metrics-every");
    return opts;
}

void
applyObsOptions(const ObsCliOptions &opts)
{
    if (opts.enabled())
        obs::setMetricsEnabled(true);
    if (!opts.traceOut.empty())
        obs::setTraceEnabled(true);
}

bool
finishObsOptions(const ObsCliOptions &opts)
{
    bool ok = true;
    if (!opts.metricsOut.empty() &&
        !obs::writeMetricsJson(opts.metricsOut)) {
        TDFE_WARN("cannot write metrics snapshot to '",
                  opts.metricsOut, "'");
        ok = false;
    }
    if (!opts.traceOut.empty() &&
        !obs::writeChromeTrace(opts.traceOut)) {
        TDFE_WARN("cannot write trace to '", opts.traceOut, "'");
        ok = false;
    }
    return ok;
}

int
applyThreadsFlag(int &argc, char **argv)
{
    int applied = 0;
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--threads") {
            if (i + 1 >= argc)
                TDFE_FATAL("option --threads needs a value");
            value = argv[++i];
        } else if (arg.rfind("--threads=", 0) == 0) {
            value = arg.substr(std::string("--threads=").size());
        } else {
            argv[out++] = argv[i];
            continue;
        }
        applied = threadsValue(value);
    }
    argc = out;
    argv[argc] = nullptr;
    if (applied > 0)
        setGlobalThreadCount(applied);
    return applied;
}

} // namespace tdfe
