/**
 * @file
 * The six applications at 1152² as the embedded workload runs them:
 * each app's input, its precise non-automaton function, its automaton
 * at a chosen gang width, and the quality score of a published version.
 */

#ifndef PERFBENCH_EMBED_HPP
#define PERFBENCH_EMBED_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/** One automaton run, timed from the make*Automaton call. */
struct AppRun
{
    static constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

    double buildMs = 0.0;
    double firstMs = kNone;
    double ttq50Ms = kNone;
    double ttq90Ms = kNone;
    double preciseMs = kNone;
    /** From the start() call to the final publish: the run alone,
     *  without the build (what the gang and ISA probes compare). */
    double runPreciseMs = kNone;
    /** Until waitUntilDone() returned: the caller holds its answer. */
    double responseMs = 0.0;
    /** q of the version held kBudgetMs after start() (0 if none yet). */
    double qualityAtBudget = 0.0;
    bool heldByBudget = false;
    std::uint64_t versions = 0;
    /** Final version present, flagged final, and bit-identical to the
     *  app's precise function. */
    bool exact = false;
    bool stageFailed = false;
};

/** One application of the embedded rotation. */
class EmbedApp
{
  public:
    virtual ~EmbedApp() = default;

    virtual const std::string &name() const = 0;

    /** Widest gang the automaton runs correctly, at most 4 workers. */
    virtual unsigned embedWidth() const = 0;

    /** Gang widths the scaling probe compares (ascending; the first is
     *  the one-worker point). Empty when the app has no gang mode. */
    virtual std::vector<unsigned> gangWidths() const = 0;

    /** Bytes of one published output value. */
    virtual std::size_t valueBytes() const = 0;

    /** Run the precise non-automaton function once. */
    virtual void baseline() const = 0;

    /**
     * Build and run the automaton at @p width to its precise output.
     * With @p score, every version up to the q >= 0.9 crossing and the
     * version held kBudgetMs after start() are scored.
     */
    virtual AppRun run(unsigned width, bool score) const = 0;
};

/** Inputs, precise references, and apps of the embedded workload. */
struct EmbedSuite
{
    std::vector<std::unique_ptr<EmbedApp>> apps;
};

/** Generate inputs and references from @p seed and warm every app up. */
std::unique_ptr<EmbedSuite> makeEmbedSuite(std::uint64_t seed);

/** Per-app samples of the closed-loop rotation. */
struct EmbedSamples
{
    std::vector<std::vector<AppRun>> runs; // [app][rotation]
    std::size_t rotations = 0;
};

/**
 * Closed loop, one client: whole rotations until @p seconds have
 * passed and at least @p min_rotations ran. Oracle violations go to
 * @p result.
 */
EmbedSamples measureEmbed(const EmbedSuite &suite, double seconds,
                          std::size_t min_rotations, Result &result);

/** Print the end-to-end metrics of the rotation. */
void reportEmbed(const EmbedSamples &samples, Result &result);

/** Print the *_tail timings (per-layer: too noisy to gate on). */
void reportEmbedTails(const EmbedSamples &samples, Result &result);

/** The headline latency compared traced vs untraced (ms). */
double embedKeyLatency(const EmbedSamples &samples);

/** Per-app and gang/ISA probes (the traced run's apps/core/simd). */
void probeApps(const EmbedSuite &suite, Result &result);

} // namespace perfbench

#endif // PERFBENCH_EMBED_HPP
