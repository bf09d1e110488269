#include "serve.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

#include "apps/conv2d.hpp"
#include "apps/kmeans.hpp"
#include "image/generate.hpp"
#include "net/catalog.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"

namespace perfbench {

using namespace anytime;

namespace {

constexpr std::size_t kConvSide = 256;
constexpr std::size_t kKmeansSide = 160;
/** Distinct inputs per app; every request still carries its own spec. */
constexpr std::size_t kPoolSize = 16;
/** Tail percentile of the pooled request timings (thousands of
 *  samples per default-length run). */
constexpr double kTailPct = 99.0;
constexpr unsigned kWireGenerators = 4;
/** Aggregate arrival rates (requests/s): about half, and about twice,
 *  the capacity measured on the host recorded in BENCHMARK.json. */
constexpr double kWireRate = 110.0;
constexpr double kInprocRate = 450.0;
/** In-process requests whose every version is kept and scored for
 *  time-to-quality (1 in this many); the rest score only the version
 *  held at response time. */
constexpr std::uint64_t kTimelineEvery = 2;

enum class App
{
    conv2d,
    kmeans,
};

const char *
appName(App app)
{
    return app == App::conv2d ? "conv2d" : "kmeans";
}

/** One pooled input and the in-process encoding of its precise output. */
struct Reference
{
    std::shared_ptr<const GrayImage> gray;
    std::shared_ptr<const RgbImage> rgb;
    std::string precise;
    double spread = 0.0;
};

std::pair<const std::uint8_t *, std::size_t>
rawBytes(const GrayImage &image)
{
    return {image.data().data(), image.size()};
}

std::pair<const std::uint8_t *, std::size_t>
rawBytes(const KmeansResult &result)
{
    static_assert(sizeof(RgbPixel) == 3);
    return {reinterpret_cast<const std::uint8_t *>(result.image.data().data()),
            result.image.size() * sizeof(RgbPixel)};
}

/** Raw pixel payload: the encoding the handlers stream. */
template <typename T>
std::string
encode(const T &value)
{
    const auto [data, size] = rawBytes(value);
    return std::string(reinterpret_cast<const char *>(data), size);
}

double
scoreBytes(const std::uint8_t *data, std::size_t size, const Reference &ref)
{
    if (size != ref.precise.size())
        return 0.0;
    return qualityBytes(
        data, reinterpret_cast<const std::uint8_t *>(ref.precise.data()),
        size, ref.spread);
}

struct Inputs
{
    Kernel kernel = Kernel::gaussianBlur(3);
    std::vector<Reference> conv;
    std::vector<Reference> kmeans;

    const Reference &
    at(App app, std::size_t pool) const
    {
        return app == App::conv2d ? conv.at(pool) : kmeans.at(pool);
    }
};

std::unique_ptr<Inputs>
makeInputs(std::uint64_t seed)
{
    auto inputs = std::make_unique<Inputs>();
    for (std::size_t i = 0; i < kPoolSize; ++i) {
        Reference conv;
        conv.gray = std::make_shared<const GrayImage>(
            generateScene(kConvSide, kConvSide, seed * 1000 + i));
        conv.precise = encode(convolve(*conv.gray, inputs->kernel));
        Reference km;
        km.rgb = std::make_shared<const RgbImage>(generateColorScene(
            kKmeansSide, kKmeansSide, seed * 1000 + 500 + i));
        km.precise =
            encode(kmeansCluster(*km.rgb, KmeansConfig{}.clusters));
        for (Reference *ref : {&conv, &km})
            ref->spread = spreadBytes(
                reinterpret_cast<const std::uint8_t *>(ref->precise.data()),
                ref->precise.size());
        inputs->conv.push_back(std::move(conv));
        inputs->kmeans.push_back(std::move(km));
    }
    return inputs;
}

/** The client's window onto one in-process request's output buffer. */
struct OutputView
{
    std::mutex mutex;
    /** q of the buffer's current snapshot; empty until built. */
    std::function<double()> heldQuality;
    /** True iff the current snapshot is final and equals the precise
     *  output's encoding. */
    std::function<bool()> heldIsPrecise;
    /** Time-to-quality crossings of a kept timeline (sampled only). */
    std::function<void(Clock::time_point due, ServeSample &)> crossings;
};

template <typename T>
void
wireOutput(PreparedPipeline &pipeline,
           const std::shared_ptr<VersionedBuffer<T>> &out,
           std::uint64_t publish_count, const char *stage,
           bool encode_payload, const Reference *ref,
           const std::shared_ptr<OutputView> &view, bool keep_timeline)
{
    const double count = static_cast<double>(publish_count);
    pipeline.progress = [out, count] {
        return std::min(1.0, static_cast<double>(out->read().version) / count);
    };
    pipeline.versionCount = [out] { return out->version(); };
    pipeline.attachSink = [out, count, stage, encode_payload](VersionSink sink) {
        out->addObserver([sink = std::move(sink), count, stage,
                          encode_payload](const Snapshot<T> &snap) {
            if (!snap.value)
                return;
            VersionUpdate update;
            update.version = snap.version;
            update.final = snap.final;
            update.degraded = snap.degraded;
            update.quality =
                std::min(1.0, static_cast<double>(snap.version) / count);
            update.stage = stage;
            if (encode_payload)
                update.payload =
                    std::make_shared<const std::string>(encode(*snap.value));
            sink(update);
        });
    };
    if (view == nullptr)
        return;
    std::lock_guard<std::mutex> lock(view->mutex);
    view->heldQuality = [out, ref] {
        const Snapshot<T> snap = out->read();
        if (!snap.value)
            return 0.0;
        const auto [data, size] = rawBytes(*snap.value);
        return scoreBytes(data, size, *ref);
    };
    view->heldIsPrecise = [out, ref] {
        const Snapshot<T> snap = out->read();
        return snap.value && snap.final && encode(*snap.value) == ref->precise;
    };
    if (!keep_timeline)
        return;
    struct Timeline
    {
        std::mutex mutex;
        std::vector<std::pair<Clock::time_point, std::shared_ptr<const T>>>
            entries;
    };
    auto timeline = std::make_shared<Timeline>();
    out->addObserver([timeline](const Snapshot<T> &snap) {
        if (!snap.value)
            return;
        const auto now = Clock::now();
        std::lock_guard<std::mutex> guard(timeline->mutex);
        timeline->entries.emplace_back(now, snap.value);
    });
    view->crossings = [timeline, ref](Clock::time_point due,
                                      ServeSample &sample) {
        std::lock_guard<std::mutex> guard(timeline->mutex);
        for (const auto &[at, value] : timeline->entries) {
            const auto [data, size] = rawBytes(*value);
            const double q = scoreBytes(data, size, *ref);
            if (q >= 0.5 && std::isnan(sample.ttq50Ms))
                sample.ttq50Ms = msBetween(due, at);
            if (q >= 0.9) {
                sample.ttq90Ms = msBetween(due, at);
                break;
            }
        }
    };
}

/**
 * The factory both workloads serve: @p slots is the declared gang
 * (kmeans spends one slot on its reduce stage, the rest on its sweep).
 */
std::function<PreparedPipeline()>
pipelineFactory(const Inputs &inputs, App app, std::size_t pool,
                unsigned slots, bool encode_payload,
                std::shared_ptr<OutputView> view, bool keep_timeline)
{
    const Reference *ref = &inputs.at(app, pool);
    const Kernel *kernel = &inputs.kernel;
    return [=] {
        PreparedPipeline pipeline;
        if (app == App::conv2d) {
            Conv2dConfig config;
            config.workers = std::max(1u, slots);
            auto bundle = makeConv2dAutomaton(*ref->gray, *kernel, config);
            wireOutput(pipeline, bundle.output, config.publishCount,
                       "conv2d", encode_payload, ref, view, keep_timeline);
            pipeline.automaton = std::move(bundle.automaton);
        } else {
            KmeansConfig config;
            config.workers = std::max(1u, slots - 1);
            auto bundle = makeKmeansAutomaton(*ref->rgb, config);
            wireOutput(pipeline, bundle.output, config.publishCount,
                       "kmeans", encode_payload, ref, view, keep_timeline);
            pipeline.automaton = std::move(bundle.automaton);
        }
        return pipeline;
    };
}

/** One scheduled request. */
struct Planned
{
    double dueSeconds = 0.0;
    App app = App::conv2d;
    std::size_t pool = 0;
    int deadlineMs = 20;
    /** Sweep workers of the request's gang. */
    unsigned gang = 1;
    double minQuality = 0.0;
};

unsigned
declaredSlots(const Planned &planned)
{
    return planned.gang + (planned.app == App::kmeans ? 1 : 0);
}

/**
 * Seeded Poisson schedules, one per generator, each at rate/generators.
 * @p overload_mix adds the overload workload's 2-worker gangs (1 in 4)
 * and minQuality 0.5 (1 in 2).
 */
std::vector<std::vector<Planned>>
makePlan(std::uint64_t seed, std::uint64_t stream, unsigned generators,
         double rate, double seconds, bool overload_mix)
{
    std::vector<std::vector<Planned>> plan(generators);
    for (unsigned g = 0; g < generators; ++g) {
        std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + stream * 131 + g);
        std::exponential_distribution<double> gap(rate / generators);
        double t = 0.0;
        for (;;) {
            t += gap(rng);
            if (t >= seconds)
                break;
            Planned planned;
            planned.dueSeconds = t;
            planned.app = (rng() & 1) ? App::kmeans : App::conv2d;
            planned.pool = static_cast<std::size_t>(rng() % kPoolSize);
            planned.deadlineMs = (rng() & 1) ? 80 : 20;
            if (overload_mix) {
                planned.gang = (rng() % 4 == 0) ? 2 : 1;
                planned.minQuality = (rng() & 1) ? 0.5 : 0.0;
            }
            plan[g].push_back(planned);
        }
    }
    return plan;
}

/** Sleep until @p due; returns how late the generator is (ms). */
double
waitUntil(Clock::time_point due)
{
    std::this_thread::sleep_until(due);
    return std::max(0.0, msBetween(due, Clock::now()));
}

double
histogramMs(obs::MetricsRegistry &registry, const std::string &name,
            double pct)
{
    return registry.histogram(name, "").percentile(pct) * 1000.0;
}

/** Status tallies of one phase, shared by both workloads. */
struct StatusTally
{
    std::size_t sent = 0;
    std::size_t shed = 0;
    std::size_t expired = 0;
    std::size_t qualityStopped = 0;
    std::size_t precise = 0;

    void
    count(ServiceStatus status)
    {
        switch (status) {
        case ServiceStatus::shedQueueFull:
        case ServiceStatus::shedPredictedMiss:
        case ServiceStatus::shedCircuitOpen:
        case ServiceStatus::shedBrownout:
            ++shed;
            break;
        case ServiceStatus::expired:
            ++expired;
            break;
        case ServiceStatus::qualityStopped:
            ++qualityStopped;
            break;
        case ServiceStatus::preciseCompleted:
            ++precise;
            break;
        default:
            break;
        }
    }

    void
    fill(ServeLayers &layers) const
    {
        const double n = static_cast<double>(std::max<std::size_t>(1, sent));
        layers.shedRatio = static_cast<double>(shed) / n;
        layers.expiredRatio = static_cast<double>(expired) / n;
        layers.qualityStoppedRatio = static_cast<double>(qualityStopped) / n;
        layers.preciseRatio = static_cast<double>(precise) / n;
    }
};

std::size_t
parsePool(const std::string &spec)
{
    // "pool:nonce" — the nonce only makes every spec distinct.
    std::size_t used = 0;
    const unsigned long pool = std::stoul(spec, &used);
    if (used == 0 || used >= spec.size() || spec[used] != ':' ||
        pool >= kPoolSize)
        throw std::invalid_argument("bad input spec '" + spec + "'");
    return pool;
}

class WireWorkload final : public ServeWorkload
{
  public:
    WireWorkload(std::uint64_t seed, double rate)
        : seed(seed), rate(rate), inputs(makeInputs(seed))
    {
        auto catalog = std::make_shared<net::PipelineCatalog>();
        for (App app : {App::conv2d, App::kmeans}) {
            catalog->add(std::string("bench.") + appName(app),
                         [this, app](const net::NetRequestParams &params) {
                             return net::NetPipeline{pipelineFactory(
                                 *inputs, app, parsePool(params.input),
                                 params.stageWorkers, true, nullptr, false)};
                         });
        }
        net::NetServerConfig config;
        config.catalog = catalog;
        config.metricsRegistry = &registry;
        server = std::make_unique<net::NetServer>(std::move(config));
        options.port = server->port();
        // Warm-up: a few requests of each pipeline end to end.
        for (int i = 0; i < 8; ++i) {
            for (App app : {App::conv2d, App::kmeans}) {
                Planned planned;
                planned.app = app;
                planned.pool = static_cast<std::size_t>(i) % kPoolSize;
                planned.deadlineMs = 80;
                (void)net::runRequest(options, frameFor(planned));
            }
        }
    }

    ServePhase
    measure(double seconds, std::uint64_t stream, Result &result) override
    {
        const auto plan =
            makePlan(seed, stream, kWireGenerators, rate, seconds, false);
        std::vector<Tally> tallies(kWireGenerators);
        const auto start = Clock::now() + std::chrono::milliseconds(5);
        {
            std::vector<std::jthread> generators;
            for (unsigned g = 0; g < kWireGenerators; ++g) {
                generators.emplace_back([&, g] {
                    for (const Planned &planned : plan[g])
                        send(planned, start, tallies[g]);
                });
            }
        }
        const double wall = msBetween(start, Clock::now()) / 1000.0;

        ServePhase phase;
        phase.seconds = seconds;
        StatusTally status;
        double bytes = 0, frames = 0, published = 0;
        std::vector<double> late, busy;
        for (Tally &tally : tallies) {
            for (const std::string &what : tally.violations)
                result.violation(what);
            result.attempt(tally.samples.size());
            for (const ServeSample &sample : tally.samples)
                late.push_back(sample.lateMs);
            phase.samples.insert(phase.samples.end(), tally.samples.begin(),
                                 tally.samples.end());
            bytes += tally.bytes;
            frames += tally.frames;
            published += tally.published;
            busy.insert(busy.end(), tally.busy.begin(), tally.busy.end());
            status.sent += tally.status.sent;
            status.shed += tally.status.shed;
            status.expired += tally.status.expired;
            status.qualityStopped += tally.status.qualityStopped;
            status.precise += tally.status.precise;
        }
        ServeLayers &layers = phase.layers;
        status.fill(layers);
        const double sent = std::max(1.0, static_cast<double>(status.sent));
        layers.bytesPerRequest = bytes / sent;
        layers.rxMbPerS = bytes / 1e6 / wall;
        layers.versionsReceivedRatio = published > 0 ? frames / published : 0;
        layers.poolBusyRatio =
            mean(busy) / static_cast<double>(server->service().config().workers);
        layers.generatorLateMsP99 = percentile(late, 99);
        layers.queueMsP50 =
            histogramMs(registry, "anytime_request_queue_seconds", 50);
        layers.queueMsTail =
            histogramMs(registry, "anytime_request_queue_seconds", kTailPct);
        layers.buildMsP50 = histogramMs(registry, "anytime_build_seconds", 50);
        layers.dispatchToFirstMsP50 =
            histogramMs(registry, "anytime_first_version_seconds", 50);
        layers.execMsP50 =
            histogramMs(registry, "anytime_request_exec_seconds", 50);
        return phase;
    }

  private:
    struct Tally
    {
        std::vector<ServeSample> samples;
        std::vector<std::string> violations;
        std::vector<double> busy;
        StatusTally status;
        double bytes = 0;
        double frames = 0;
        double published = 0;
    };

    net::RequestFrame
    frameFor(const Planned &planned)
    {
        net::RequestFrame frame;
        frame.pipeline = std::string("bench.") + appName(planned.app);
        frame.input = std::to_string(planned.pool) + ":" +
                      std::to_string(nonce.fetch_add(1));
        frame.deadlineMicros =
            static_cast<std::uint64_t>(planned.deadlineMs) * 1000;
        frame.minQuality = planned.minQuality;
        frame.stageWorkers = declaredSlots(planned);
        return frame;
    }

    void
    send(const Planned &planned, Clock::time_point start, Tally &tally)
    {
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(planned.dueSeconds));
        ServeSample sample;
        sample.dueSeconds = planned.dueSeconds;
        sample.lateMs = waitUntil(due);
        tally.busy.push_back(
            static_cast<double>(server->service().workersInUse()));
        const net::RequestFrame frame = frameFor(planned);
        std::vector<Clock::time_point> arrivals;
        net::ClientResult reply;
        {
            obs::TraceSpan span("bench.request", kBenchCategory);
            reply = net::runRequest(options, frame,
                                    [&](const net::VersionFrame &) {
                                        arrivals.push_back(Clock::now());
                                        obs::traceInstant("bench.version",
                                                          kBenchCategory);
                                        return true;
                                    });
        }
        const double response_ms = msBetween(due, Clock::now());
        ++tally.status.sent;
        const std::string id = frame.pipeline + " " + frame.input;
        if (!reply.ok || !reply.done) {
            tally.violations.push_back(id + ": " + reply.error);
            tally.samples.push_back(sample);
            return;
        }
        const auto status = static_cast<ServiceStatus>(reply.done->status);
        tally.status.count(status);
        if (status == ServiceStatus::failed)
            tally.violations.push_back(id + ": stage failure");

        const Reference &ref = inputs->at(planned.app, planned.pool);
        const auto &versions = reply.versions;
        for (std::size_t i = 1; i < versions.size(); ++i) {
            if (versions[i].version <= versions[i - 1].version) {
                tally.violations.push_back(id + ": versions not monotone");
                break;
            }
        }
        for (const auto &version : versions)
            tally.bytes += static_cast<double>(version.payload.size());
        tally.frames += static_cast<double>(versions.size());
        tally.published += static_cast<double>(reply.done->versionsPublished);
        if (!arrivals.empty()) {
            sample.responseMs = response_ms;
            sample.firstMs = msBetween(due, arrivals.front());
            sample.hit = arrivals.front() <=
                         due + std::chrono::milliseconds(planned.deadlineMs);
        }
        obs::TraceSpan span("bench.score", kBenchCategory);
        const auto score = [&](const net::VersionFrame &version) {
            return scoreBytes(
                reinterpret_cast<const std::uint8_t *>(version.payload.data()),
                version.payload.size(), ref);
        };
        if (!versions.empty())
            sample.quality = score(versions.back());
        for (std::size_t i = 0; i < versions.size(); ++i) {
            const double q = score(versions[i]);
            if (q >= 0.5 && std::isnan(sample.ttq50Ms))
                sample.ttq50Ms = msBetween(due, arrivals[i]);
            if (q >= 0.9) {
                sample.ttq90Ms = msBetween(due, arrivals[i]);
                break;
            }
        }
        if (reply.done->reachedPrecise) {
            if (versions.empty() || !versions.back().final ||
                versions.back().payload != ref.precise)
                tally.violations.push_back(
                    id + ": final payload differs from the precise output");
            else
                sample.preciseMs = msBetween(due, arrivals.back());
        }
        tally.samples.push_back(sample);
    }

    std::uint64_t seed;
    double rate;
    std::unique_ptr<Inputs> inputs;
    obs::MetricsRegistry registry;
    std::unique_ptr<net::NetServer> server;
    net::ClientOptions options;
    std::atomic<std::uint64_t> nonce{0};
};

class InprocWorkload final : public ServeWorkload
{
  public:
    InprocWorkload(std::uint64_t seed, double rate)
        : seed(seed), rate(rate), inputs(makeInputs(seed))
    {
        ServerConfig config;
        config.metricsRegistry = &registry;
        server = std::make_unique<AnytimeServer>(config);
        for (int i = 0; i < 8; ++i) {
            for (App app : {App::conv2d, App::kmeans}) {
                Planned planned;
                planned.app = app;
                planned.pool = static_cast<std::size_t>(i) % kPoolSize;
                planned.deadlineMs = 80;
                auto track = submit(planned, Clock::now(), false);
                (void)track->response.get();
            }
        }
    }

    ServePhase
    measure(double seconds, std::uint64_t stream, Result &result) override
    {
        const auto plan = makePlan(seed, stream, 1, rate, seconds, true);
        const auto start = Clock::now() + std::chrono::milliseconds(5);
        ServePhase phase;
        phase.seconds = seconds;
        Collected collected;
        std::vector<std::shared_ptr<Track>> inflight;
        std::uint64_t index = 0;
        for (const Planned &planned : plan.front()) {
            const auto due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(planned.dueSeconds));
            const double late = waitUntil(due);
            collected.busy.push_back(
                static_cast<double>(server->workersInUse()));
            auto track =
                submit(planned, due, index++ % kTimelineEvery == 0);
            track->sample.dueSeconds = planned.dueSeconds;
            track->sample.lateMs = late;
            inflight.push_back(std::move(track));
            // Harvest every answered request, so kept timelines are
            // freed as soon as they are scored.
            std::erase_if(inflight, [&](const std::shared_ptr<Track> &t) {
                if (t->response.wait_for(std::chrono::seconds(0)) !=
                    std::future_status::ready)
                    return false;
                finish(*t, collected, result);
                return true;
            });
        }
        for (const auto &track : inflight)
            finish(*track, collected, result);

        const ServiceMetrics books = server->metricsSnapshot();
        const std::size_t buckets = books.served() + books.shed() +
                                    books.expired() + books.failed() +
                                    books.cancelled() + books.degraded();
        if (books.total() != buckets || books.total() != submitted)
            result.violation(
                "ServiceMetrics accounting identity broken: total " +
                std::to_string(books.total()) + ", buckets " +
                std::to_string(buckets) + ", submitted " +
                std::to_string(submitted));

        phase.samples = std::move(collected.samples);
        ServeLayers &layers = phase.layers;
        collected.status.fill(layers);
        std::vector<double> late;
        for (const ServeSample &sample : phase.samples)
            late.push_back(sample.lateMs);
        layers.generatorLateMsP99 = percentile(late, 99);
        layers.poolBusyRatio = mean(collected.busy) /
                               static_cast<double>(server->config().workers);
        layers.queueMsP50 = percentile(collected.queueMs, 50);
        layers.queueMsTail = percentile(collected.queueMs, kTailPct);
        layers.execMsP50 = percentile(collected.execMs, 50);
        layers.dispatchToFirstMsP50 = percentile(collected.firstMs, 50);
        layers.buildMsP50 = histogramMs(registry, "anytime_build_seconds", 50);
        return phase;
    }

  private:
    /** A submitted request, as its client tracks it. */
    struct Track
    {
        Planned planned;
        Clock::time_point due;
        /** Steady-clock nanoseconds, -1 until seen. */
        std::atomic<std::int64_t> firstNs{-1};
        std::atomic<std::int64_t> finalNs{-1};
        std::atomic<std::int64_t> doneNs{-1};
        std::shared_ptr<OutputView> view = std::make_shared<OutputView>();
        bool timeline = false;
        std::future<ServiceResponse> response;
        ServeSample sample;
    };

    struct Collected
    {
        std::vector<ServeSample> samples;
        std::vector<double> busy, queueMs, execMs, firstMs;
        StatusTally status;
    };

    static std::int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    static Clock::time_point
    fromNs(std::int64_t ns)
    {
        return Clock::time_point(
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::nanoseconds(ns)));
    }

    std::shared_ptr<Track>
    submit(const Planned &planned, Clock::time_point due, bool timeline)
    {
        auto track = std::make_shared<Track>();
        track->planned = planned;
        track->due = due;
        track->timeline = timeline;
        ServiceRequest request;
        request.name = appName(planned.app);
        request.deadline = std::chrono::milliseconds(planned.deadlineMs);
        request.minQuality = planned.minQuality;
        request.stageWorkers = declaredSlots(planned);
        request.factory =
            pipelineFactory(*inputs, planned.app, planned.pool,
                            declaredSlots(planned), false, track->view,
                            timeline);
        request.versionSink = [track](const VersionUpdate &update) {
            const std::int64_t now = nowNs();
            std::int64_t none = -1;
            track->firstNs.compare_exchange_strong(none, now);
            if (update.final)
                track->finalNs.store(now);
        };
        request.onComplete = [track](const ServiceResponse &) {
            track->doneNs.store(nowNs());
        };
        {
            obs::TraceSpan span("bench.submit", kBenchCategory);
            track->response = server->submit(std::move(request));
        }
        ++submitted;
        return track;
    }

    void
    finish(Track &track, Collected &collected, Result &result)
    {
        const ServiceResponse response = track.response.get();
        // onComplete runs right after the future is fulfilled.
        while (track.doneNs.load() < 0)
            std::this_thread::yield();
        ServeSample &sample = track.sample;
        result.attempt();
        ++collected.status.sent;
        collected.status.count(response.status);
        const std::string id = std::string(appName(track.planned.app)) +
                               " pool " + std::to_string(track.planned.pool);
        if (response.status == ServiceStatus::failed)
            result.violation(id + ": stage failure");
        if (const std::int64_t first = track.firstNs.load(); first >= 0) {
            sample.responseMs =
                msBetween(track.due, fromNs(track.doneNs.load()));
            sample.firstMs = msBetween(track.due, fromNs(first));
            sample.hit =
                fromNs(first) <=
                track.due + std::chrono::milliseconds(track.planned.deadlineMs);
        }
        const bool ran = servedStatus(response.status) ||
                         response.status == ServiceStatus::degraded;
        if (ran) {
            collected.queueMs.push_back(response.queueSeconds * 1000.0);
            collected.execMs.push_back(response.execSeconds * 1000.0);
            if (!std::isnan(response.firstVersionSeconds))
                collected.firstMs.push_back(response.firstVersionSeconds *
                                            1000.0);
            obs::TraceSpan span("bench.score", kBenchCategory);
            std::lock_guard<std::mutex> lock(track.view->mutex);
            if (track.view->heldQuality)
                sample.quality = track.view->heldQuality();
            if (track.timeline && track.view->crossings)
                track.view->crossings(track.due, sample);
            if (response.reachedPrecise) {
                if (!track.view->heldIsPrecise || !track.view->heldIsPrecise())
                    result.violation(id + ": precise output differs");
                else if (const std::int64_t fin = track.finalNs.load();
                         fin >= 0)
                    sample.preciseMs = msBetween(track.due, fromNs(fin));
            }
        }
        {
            // The views reach the output buffer, whose observers reach
            // this track: drop them to break the cycle.
            std::lock_guard<std::mutex> lock(track.view->mutex);
            track.view->heldQuality = nullptr;
            track.view->heldIsPrecise = nullptr;
            track.view->crossings = nullptr;
        }
        collected.samples.push_back(sample);
    }

    std::uint64_t seed;
    double rate;
    std::unique_ptr<Inputs> inputs;
    obs::MetricsRegistry registry;
    std::unique_ptr<AnytimeServer> server;
    std::size_t submitted = 0;
};

std::vector<double>
collect(const std::vector<ServeSample> &samples, double ServeSample::*member)
{
    std::vector<double> out;
    for (const ServeSample &sample : samples) {
        if (!std::isnan(sample.*member))
            out.push_back(sample.*member);
    }
    return out;
}

} // namespace

std::unique_ptr<ServeWorkload>
makeWireWorkload(std::uint64_t seed, double rate)
{
    return std::make_unique<WireWorkload>(seed, rate > 0 ? rate : kWireRate);
}

std::unique_ptr<ServeWorkload>
makeInprocWorkload(std::uint64_t seed, double rate)
{
    return std::make_unique<InprocWorkload>(seed,
                                            rate > 0 ? rate : kInprocRate);
}

void
reportServe(const ServePhase &phase, Result &result)
{
    std::fprintf(stderr,
                 "  %zu requests: late p99 %.2f first %.2f ttq90 %.2f precise "
                 "%.2f response %.2f ms; shed %.3f expired %.3f precise %.3f "
                 "busy %.2f queue %.2f exec %.2f build %.2f ms\n",
                 phase.samples.size(), phase.layers.generatorLateMsP99,
                 median(collect(phase.samples, &ServeSample::firstMs)),
                 median(collect(phase.samples, &ServeSample::ttq90Ms)),
                 median(collect(phase.samples, &ServeSample::preciseMs)),
                 median(collect(phase.samples, &ServeSample::responseMs)),
                 phase.layers.shedRatio, phase.layers.expiredRatio,
                 phase.layers.preciseRatio, phase.layers.poolBusyRatio,
                 phase.layers.queueMsP50, phase.layers.execMsP50,
                 phase.layers.buildMsP50);
    std::vector<std::vector<ServeSample>> windows(kWindows);
    for (const ServeSample &sample : phase.samples)
        windows[windowOf(sample.dueSeconds / phase.seconds)].push_back(sample);
    const auto overWindows =
        [&](const std::function<double(const std::vector<ServeSample> &)>
                &statistic) {
            std::vector<double> values;
            for (const auto &part : windows)
                values.push_back(statistic(part));
            return median(values);
        };
    const auto p50 = [&](double ServeSample::*member, const char *name) {
        result.add(name, overWindows([member](const auto &part) {
                       return median(collect(part, member));
                   }),
                   "ms");
    };
    p50(&ServeSample::firstMs, "first_version_ms_p50");
    p50(&ServeSample::ttq50Ms, "ttq50_ms_p50");
    p50(&ServeSample::ttq90Ms, "ttq90_ms_p50");
    p50(&ServeSample::preciseMs, "precise_ms_p50");
    p50(&ServeSample::responseMs, "response_ms_p50");
    result.add("quality_at_deadline_mean",
               overWindows([](const auto &part) {
                   std::vector<double> quality;
                   for (const ServeSample &sample : part)
                       quality.push_back(sample.quality);
                   return mean(quality);
               }),
               "ratio");
    result.add("deadline_hit_ratio", overWindows([](const auto &part) {
                   std::vector<double> hit;
                   for (const ServeSample &sample : part)
                       hit.push_back(sample.hit ? 1.0 : 0.0);
                   return mean(hit);
               }),
               "ratio");
}

void
reportServeTails(const ServePhase &phase, Result &result)
{
    const auto tail = [&](double ServeSample::*member, const char *name,
                          const char *what) {
        const std::vector<double> values = collect(phase.samples, member);
        requireTail(values.size(), kTailPct, what);
        result.add(name, percentile(values, kTailPct), "ms");
    };
    tail(&ServeSample::firstMs, "first_version_ms_tail", "first versions");
    tail(&ServeSample::ttq90Ms, "ttq90_ms_tail", "q>=0.9 crossings");
    tail(&ServeSample::preciseMs, "precise_ms_tail", "precise finals");
    tail(&ServeSample::responseMs, "response_ms_tail", "responses");
}

double
serveKeyLatency(const ServePhase &phase)
{
    return median(collect(phase.samples, &ServeSample::responseMs));
}

void
reportLayers(const ServeLayers &layers, double samples, Result &result)
{
    result.add("service.queue_ms_p50", layers.queueMsP50, "ms");
    result.add("service.queue_ms_tail", layers.queueMsTail, "ms");
    result.add("service.build_ms_p50", layers.buildMsP50, "ms");
    result.add("service.dispatch_to_first_ms_p50",
               layers.dispatchToFirstMsP50, "ms");
    result.add("service.exec_ms_p50", layers.execMsP50, "ms");
    result.add("service.shed_ratio", layers.shedRatio, "ratio");
    result.add("service.expired_ratio", layers.expiredRatio, "ratio");
    result.add("service.quality_stopped_ratio", layers.qualityStoppedRatio,
               "ratio");
    result.add("service.precise_ratio", layers.preciseRatio, "ratio");
    result.add("service.pool_busy_ratio", layers.poolBusyRatio, "ratio");
    result.add("net.bytes_per_request", layers.bytesPerRequest, "bytes");
    result.add("net.rx_mb_per_s", layers.rxMbPerS, "MB/s");
    result.add("net.versions_received_ratio", layers.versionsReceivedRatio,
               "ratio");
    result.add("bench.generator_late_ms_p99", layers.generatorLateMsP99, "ms");
    result.add("bench.samples", samples, "count");
}

} // namespace perfbench
