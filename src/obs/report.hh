/**
 * @file
 * Run-level telemetry surface: the RunReport carried in the run
 * harness's HarnessResult and the periodic heartbeat line.
 *
 * A RunReport is just a captured MetricsSnapshot plus a one-line
 * human summary; runners fill it at the end of a run (when
 * telemetry was enabled) so callers get counter evidence — records
 * appended, blocks sealed, bytes written, stalls — without touching
 * the registry themselves.
 */

#ifndef TDFE_OBS_REPORT_HH
#define TDFE_OBS_REPORT_HH

#include <cstdint>
#include <string>

#include "obs/metrics.hh"

namespace tdfe
{

namespace obs
{

/** End-of-run telemetry section of a HarnessResult. */
struct RunReport
{
    /** False when telemetry was off — metrics is then empty. */
    bool enabled = false;
    MetricsSnapshot metrics;

    /** One-line digest of the headline counters (solver steps,
     *  records, seals, bytes, degrades), for logs and tests. */
    std::string summary() const;
};

/** Snapshot the registry into a RunReport (enabled reflects
 *  metricsEnabled() at call time). */
RunReport captureRunReport();

/**
 * Periodic one-line metrics summary over inform(). Construct with
 * the --metrics-every period (0 disables) and call tick(iter) once
 * per solver iteration; every @p every iterations it emits e.g.
 *
 *   heartbeat iter=200 steps=200 records=1400 seals=3
 *   bytes=41872 stalls=0 degrades=0
 *
 * Values come from a registry snapshot, so the heartbeat costs one
 * mutexed merge per period — never per iteration.
 */
class Heartbeat
{
  public:
    explicit Heartbeat(std::uint64_t every) : every_(every) {}

    /** Emit the line when @p iter is a positive multiple of the
     *  period. @return true when a line was emitted. */
    bool tick(std::uint64_t iter);

  private:
    std::uint64_t every_;
};

} // namespace obs

} // namespace tdfe

#endif // TDFE_OBS_REPORT_HH
