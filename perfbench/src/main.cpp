/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-file <path>] [--rate <requests/s>]
 *
 * Workloads:
 *  - embed_large_gang: closed loop, one client, the six apps at 1152²
 *    in a fixed rotation, each at its widest correct gang;
 *  - serve_wire_nominal: open loop over loopback into a NetServer at
 *    about half its capacity;
 *  - serve_overload_inproc: open loop into AnytimeServer::submit at
 *    about twice its capacity.
 *
 * With --trace 0 the last stdout line is the end-to-end result; with
 * --trace 1 it is the per-layer result of a separate run: app, gang,
 * ISA and micro probes, the workload untraced (its tails and layer
 * figures), then a short traced phase whose Chrome trace goes to
 * --trace-file. Exit status is 0 only when every output passed the
 * oracle; 2 on a usage error or a run too short for its statistics.
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "embed.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"
#include "serve.hpp"

using namespace perfbench;

namespace {

constexpr int kSetups = 5;
/** Length of the traced serving phase (seconds of schedule); short
 *  enough that no per-thread trace ring wraps. */
constexpr double kTracedServeSeconds = 1.0;
constexpr std::size_t kTracedRotations = 2;

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::stoull(value);
        else if (flag == "--seconds")
            options.seconds = std::stod(value);
        else if (flag == "--trace")
            options.trace = std::stoi(value) != 0;
        else if (flag == "--trace-file")
            options.traceFile = value;
        else if (flag == "--rate")
            options.rate = std::stod(value);
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (options.workload != "embed_large_gang" &&
        options.workload != "serve_wire_nominal" &&
        options.workload != "serve_overload_inproc")
        throw std::invalid_argument("unknown workload '" + options.workload +
                                    "'");
    if (!(options.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return options;
}

std::unique_ptr<ServeWorkload>
makeServe(const Options &options)
{
    return options.workload == "serve_wire_nominal"
               ? makeWireWorkload(options.seed, options.rate)
               : makeInprocWorkload(options.seed, options.rate);
}

/** Set up kSetups times (timed, median reported), then measure. */
void
runEndToEnd(const Options &options, Result &result)
{
    std::vector<double> setup;
    if (options.workload == "embed_large_gang") {
        std::unique_ptr<EmbedSuite> suite;
        double peak = 0;
        for (int i = 0; i < kSetups; ++i) {
            suite.reset();
            const auto t0 = Clock::now();
            suite = makeEmbedSuite(options.seed);
            setup.push_back(msBetween(t0, Clock::now()) / 1000.0);
            // The first set-up in a fresh process: inputs, references
            // and one unscored run of every app. Later phases keep every
            // version of a scored run, which would swamp the figure.
            if (i == 0)
                peak = peakRssMb();
        }
        reportEmbed(measureEmbed(*suite, options.seconds, 0, result), result);
        result.add("peak_rss_mb", peak, "MB");
    } else {
        std::unique_ptr<ServeWorkload> workload;
        for (int i = 0; i < kSetups; ++i) {
            workload.reset();
            const auto t0 = Clock::now();
            workload = makeServe(options);
            setup.push_back(msBetween(t0, Clock::now()) / 1000.0);
        }
        resetPeakRss();
        reportServe(workload->measure(options.seconds, 0, result), result);
        result.add("peak_rss_mb", peakRssMb(), "MB");
    }
    result.add("setup_s", median(setup), "s");
}

/** Probes, an untraced phase, and a short traced phase. */
double
runTraced(const Options &options, Result &result)
{
    double untraced = 0, traced = 0, samples = 0, ops = 0;
    ServeLayers layers;
    {
        auto suite = makeEmbedSuite(options.seed);
        probeApps(*suite, result);
        probeMicro(result);
        if (options.workload == "embed_large_gang") {
            const EmbedSamples plain =
                measureEmbed(*suite, options.seconds, 0, result);
            reportEmbedTails(plain, result);
            untraced = embedKeyLatency(plain);
            samples = static_cast<double>(plain.rotations * suite->apps.size());
            anytime::obs::clearTrace();
            anytime::obs::setTracingEnabled(true);
            const EmbedSamples seen =
                measureEmbed(*suite, 0, kTracedRotations, result);
            anytime::obs::setTracingEnabled(false);
            traced = embedKeyLatency(seen);
            ops = static_cast<double>(seen.rotations * suite->apps.size());
        }
    }
    if (options.workload != "embed_large_gang") {
        auto workload = makeServe(options);
        const ServePhase plain = workload->measure(options.seconds, 1, result);
        reportServeTails(plain, result);
        untraced = serveKeyLatency(plain);
        layers = plain.layers;
        samples = static_cast<double>(plain.samples.size());
        anytime::obs::clearTrace();
        anytime::obs::setTracingEnabled(true);
        const ServePhase seen =
            workload->measure(kTracedServeSeconds, 2, result);
        anytime::obs::setTracingEnabled(false);
        traced = serveKeyLatency(seen);
        ops = static_cast<double>(seen.samples.size());
    }
    reportLayers(layers, samples, result);
    result.add("obs.trace_overhead_ratio", traced / untraced, "ratio");
    result.add("obs.trace_dropped_records",
               static_cast<double>(anytime::obs::droppedRecords()), "count");
    if (!anytime::obs::writeChromeTrace(options.traceFile))
        throw std::runtime_error("cannot write " + options.traceFile);
    return ops;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options options = parseOptions(argc, argv);
        Result result;
        if (options.trace) {
            const double ops = runTraced(options, result);
            result.print({{"trace_ops", ops}});
        } else {
            runEndToEnd(options, result);
            result.print();
        }
        return result.correct() ? 0 : 1;
    } catch (const std::exception &error) {
        std::cerr << "perfbench: " << error.what() << "\n";
        return 2;
    }
}
