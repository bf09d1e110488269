/**
 * @file
 * The two serving workloads: an open loop over loopback into a
 * NetServer, and an open loop straight into AnytimeServer::submit.
 * Both run conv2d at 256² and kmeans at 160², each request on its own
 * input spec, with a mixed 20/80 ms deadline.
 */

#ifndef PERFBENCH_SERVE_HPP
#define PERFBENCH_SERVE_HPP

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common.hpp"

namespace perfbench {

/** One request as its client saw it; times run from its due time. */
struct ServeSample
{
    static constexpr double kNone = std::numeric_limits<double>::quiet_NaN();

    /** When the request was due, in seconds from the phase start. */
    double dueSeconds = 0.0;
    double lateMs = 0.0;
    double firstMs = kNone;
    double ttq50Ms = kNone;
    double ttq90Ms = kNone;
    double preciseMs = kNone;
    /** To DONE or the fulfilled future; only for requests answered
     *  with a version (an instant shed shows in quality and hits). */
    double responseMs = kNone;
    /** q of the version held at response time (0 when none). */
    double quality = 0.0;
    bool hit = false;
};

/** Per-layer figures of one serving phase (zero where bypassed). */
struct ServeLayers
{
    double queueMsP50 = 0.0;
    double queueMsTail = 0.0;
    double buildMsP50 = 0.0;
    double dispatchToFirstMsP50 = 0.0;
    double execMsP50 = 0.0;
    double shedRatio = 0.0;
    double expiredRatio = 0.0;
    double qualityStoppedRatio = 0.0;
    double preciseRatio = 0.0;
    double poolBusyRatio = 0.0;
    double bytesPerRequest = 0.0;
    double rxMbPerS = 0.0;
    double versionsReceivedRatio = 0.0;
    double generatorLateMsP99 = 0.0;
};

struct ServePhase
{
    /** Length of the schedule (seconds). */
    double seconds = 0.0;
    std::vector<ServeSample> samples;
    ServeLayers layers;
};

/** A serving workload with its server, inputs and references set up. */
class ServeWorkload
{
  public:
    virtual ~ServeWorkload() = default;

    /**
     * Send one seeded open-loop schedule lasting @p seconds, wait for
     * every response, and check the oracle into @p result. @p stream
     * separates the schedules of successive phases of one run.
     */
    virtual ServePhase measure(double seconds, std::uint64_t stream,
                               Result &result) = 0;
};

/** serve_wire_nominal: NetServer with shipped defaults, 4 generator
 *  threads with one connection each. */
std::unique_ptr<ServeWorkload> makeWireWorkload(std::uint64_t seed,
                                                double rate);

/** serve_overload_inproc: AnytimeServer with shipped defaults, one
 *  generator thread at about twice the capacity. */
std::unique_ptr<ServeWorkload> makeInprocWorkload(std::uint64_t seed,
                                                  double rate);

/** Print the end-to-end metrics of a phase. */
void reportServe(const ServePhase &phase, Result &result);

/** Print the *_tail timings (per-layer: too noisy to gate on). */
void reportServeTails(const ServePhase &phase, Result &result);

/** The headline latency compared traced vs untraced (ms). */
double serveKeyLatency(const ServePhase &phase);

/** Print the service/net/bench per-layer metrics. */
void reportLayers(const ServeLayers &layers, double samples,
                  Result &result);

} // namespace perfbench

#endif // PERFBENCH_SERVE_HPP
