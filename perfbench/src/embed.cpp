#include "embed.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "apps/conv2d.hpp"
#include "apps/debayer.hpp"
#include "apps/dwt53.hpp"
#include "apps/histeq.hpp"
#include "apps/kmeans.hpp"
#include "apps/matmul.hpp"
#include "image/generate.hpp"
#include "obs/trace.hpp"
#include "simd/simd.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace anytime;

namespace {

/** Image side of every embedded input: gray 1.3 MB, RGB 4 MB — above
 *  per-core L2, below L3. */
constexpr std::size_t kExtent = 1152;

/** Matrix side chosen so matmul's precise run takes about as long as
 *  conv2d's at their embedded gang widths. */
constexpr std::size_t kMatmulSide = 216;

/** Budget of the embedded quality-at-deadline score, counted from the
 *  start() call: the build is paid in full either way, so the budget
 *  scores how far the run itself gets. */
constexpr double kBudgetMs = 8.0;

/** Tail percentile of the per-app timings, fixed from the sample count
 *  a default-length run yields (see requireTail). */
constexpr double kTailPct = 90.0;

template <typename T>
const std::uint8_t *
bytesOf(const Image<T> &image)
{
    return reinterpret_cast<const std::uint8_t *>(image.data().data());
}

template <typename T>
std::size_t
byteCount(const Image<T> &image)
{
    return image.size() * sizeof(T);
}

/** What an app contributes; TypedApp does the timing and scoring. */
template <typename T>
struct AppSpec
{
    using Built = std::pair<std::unique_ptr<Automaton>,
                            std::shared_ptr<VersionedBuffer<T>>>;

    std::string name;
    unsigned width = 1;
    std::vector<unsigned> gangWidths;
    std::size_t valueBytes = 0;
    std::function<void()> baseline;
    std::function<Built(unsigned width)> build;
    std::function<double(const T &)> quality;
    std::shared_ptr<const T> precise;
};

template <typename T>
class TypedApp final : public EmbedApp
{
  public:
    explicit TypedApp(AppSpec<T> spec) : spec(std::move(spec)) {}

    const std::string &name() const override { return spec.name; }
    unsigned embedWidth() const override { return spec.width; }
    std::vector<unsigned> gangWidths() const override
    {
        return spec.gangWidths;
    }
    std::size_t valueBytes() const override { return spec.valueBytes; }
    void baseline() const override { spec.baseline(); }

    AppRun
    run(unsigned width, bool score) const override
    {
        struct Seen
        {
            Clock::time_point at;
            std::shared_ptr<const T> value;
            bool final = false;
        };
        // A scored run keeps every version; an unscored one keeps only
        // the latest, so its memory is the program's own.
        std::vector<Seen> seen;
        seen.reserve(score ? 512 : 1);
        std::uint64_t count = 0;
        Clock::time_point first_at;
        std::mutex seenMutex;

        AppRun out;
        const auto t0 = Clock::now();
        typename AppSpec<T>::Built built;
        {
            obs::TraceSpan span("bench.build", kBenchCategory);
            built = spec.build(width);
        }
        out.buildMs = msBetween(t0, Clock::now());
        built.second->addObserver([&](const Snapshot<T> &snapshot) {
            const auto now = Clock::now();
            std::lock_guard<std::mutex> lock(seenMutex);
            if (count++ == 0)
                first_at = now;
            if (!score)
                seen.clear();
            seen.push_back(Seen{now, snapshot.value, snapshot.final});
        });
        const auto started = Clock::now();
        {
            obs::TraceSpan span("bench.run", kBenchCategory);
            built.first->start();
            built.first->waitUntilDone();
        }
        out.responseMs = msBetween(t0, Clock::now());
        out.stageFailed = built.first->failed();
        built.first->shutdown();

        out.versions = count;
        if (seen.empty())
            return out;
        out.firstMs = msBetween(t0, first_at);
        const Seen &last = seen.back();
        if (last.final) {
            out.preciseMs = msBetween(t0, last.at);
            out.runPreciseMs = msBetween(started, last.at);
        }
        out.exact = last.final && *last.value == *spec.precise;
        if (!score)
            return out;

        obs::TraceSpan span("bench.score", kBenchCategory);
        const auto budget_at =
            started + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double, std::milli>(
                              kBudgetMs));
        for (std::size_t i = seen.size(); i-- > 0;) {
            if (seen[i].at <= budget_at) {
                out.heldByBudget = true;
                out.qualityAtBudget = spec.quality(*seen[i].value);
                break;
            }
        }
        for (const Seen &entry : seen) {
            const double q = spec.quality(*entry.value);
            if (q >= 0.5 && std::isnan(out.ttq50Ms))
                out.ttq50Ms = msBetween(t0, entry.at);
            if (q >= 0.9) {
                out.ttq90Ms = msBetween(t0, entry.at);
                break;
            }
        }
        return out;
    }

  private:
    AppSpec<T> spec;
};

IntMatrix
randomMatrix(std::size_t side, std::uint64_t seed, unsigned bits)
{
    IntMatrix m(side, side);
    Xoshiro256 rng(seed);
    const unsigned shift = 64 - bits;
    for (std::size_t i = 0; i < m.size(); ++i)
        m[i] = static_cast<std::int32_t>(
            static_cast<std::int64_t>(rng.next()) >> shift);
    return m;
}

template <typename T>
std::unique_ptr<EmbedApp>
makeApp(AppSpec<T> spec)
{
    return std::make_unique<TypedApp<T>>(std::move(spec));
}

std::unique_ptr<EmbedApp>
conv2dApp(std::uint64_t seed)
{
    auto scene = std::make_shared<const GrayImage>(
        generateScene(kExtent, kExtent, seed));
    const Kernel kernel = Kernel::gaussianBlur(3);
    auto precise = std::make_shared<const GrayImage>(convolve(*scene, kernel));
    const double spread = spreadBytes(bytesOf(*precise), byteCount(*precise));
    AppSpec<GrayImage> spec;
    spec.name = "conv2d";
    spec.width = 4;
    spec.gangWidths = {1, 2, 4};
    spec.valueBytes = byteCount(*precise);
    spec.baseline = [scene, kernel] { (void)convolve(*scene, kernel); };
    spec.build = [scene, kernel](unsigned width) {
        Conv2dConfig config;
        config.workers = width;
        auto bundle = makeConv2dAutomaton(*scene, kernel, config);
        return std::make_pair(std::move(bundle.automaton), bundle.output);
    };
    spec.quality = [precise, spread](const GrayImage &v) {
        return qualityBytes(bytesOf(v), bytesOf(*precise), byteCount(v),
                            spread);
    };
    spec.precise = precise;
    return makeApp(std::move(spec));
}

std::unique_ptr<EmbedApp>
histeqApp(std::uint64_t seed)
{
    auto scene = std::make_shared<const GrayImage>(
        generateScene(kExtent, kExtent, seed));
    auto precise =
        std::make_shared<const GrayImage>(histogramEqualize(*scene));
    const double spread = spreadBytes(bytesOf(*precise), byteCount(*precise));
    AppSpec<GrayImage> spec;
    spec.name = "histeq";
    // Width counts the workers of both sweep stages: 2 is 1+1 (the
    // one-worker point), 4 is 2+2.
    spec.width = 4;
    spec.gangWidths = {2, 4};
    spec.valueBytes = byteCount(*precise);
    spec.baseline = [scene] { (void)histogramEqualize(*scene); };
    spec.build = [scene](unsigned width) {
        HisteqConfig config;
        config.histogramWorkers = std::max(1u, width / 2);
        config.applyWorkers = std::max(1u, width / 2);
        auto bundle = makeHisteqAutomaton(*scene, config);
        return std::make_pair(std::move(bundle.automaton), bundle.output);
    };
    spec.quality = [precise, spread](const GrayImage &v) {
        return qualityBytes(bytesOf(v), bytesOf(*precise), byteCount(v),
                            spread);
    };
    spec.precise = precise;
    return makeApp(std::move(spec));
}

std::unique_ptr<EmbedApp>
dwt53App(std::uint64_t seed)
{
    auto scene = std::make_shared<const GrayImage>(
        generateScene(kExtent, kExtent, seed));
    auto precise = std::make_shared<const WaveletImage>(dwt53Forward(*scene));
    // Scored like bench_fig13: the precise inverse of each version
    // against the original image (which the precise version restores).
    const double spread = spreadBytes(bytesOf(*scene), byteCount(*scene));
    AppSpec<WaveletImage> spec;
    spec.name = "dwt53";
    spec.width = 1; // the iterative stage has no multi-worker mode
    spec.valueBytes = byteCount(*precise);
    spec.baseline = [scene] { (void)dwt53Forward(*scene); };
    spec.build = [scene](unsigned) {
        auto bundle = makeDwt53Automaton(*scene);
        return std::make_pair(std::move(bundle.automaton), bundle.output);
    };
    spec.quality = [scene, spread](const WaveletImage &v) {
        const GrayImage restored = dwt53Inverse(v);
        return qualityBytes(bytesOf(restored), bytesOf(*scene),
                            byteCount(restored), spread);
    };
    spec.precise = precise;
    return makeApp(std::move(spec));
}

std::unique_ptr<EmbedApp>
debayerApp(std::uint64_t seed)
{
    auto mosaic = std::make_shared<const GrayImage>(
        bayerMosaic(generateColorScene(kExtent, kExtent, seed)));
    auto precise = std::make_shared<const RgbImage>(debayer(*mosaic));
    const double spread = spreadBytes(bytesOf(*precise), byteCount(*precise));
    AppSpec<RgbImage> spec;
    spec.name = "debayer";
    // Its multi-worker mode gives wrong finals (ROADMAP item 1).
    spec.width = 1;
    spec.valueBytes = byteCount(*precise);
    spec.baseline = [mosaic] { (void)debayer(*mosaic); };
    spec.build = [mosaic](unsigned) {
        auto bundle = makeDebayerAutomaton(*mosaic);
        return std::make_pair(std::move(bundle.automaton), bundle.output);
    };
    spec.quality = [precise, spread](const RgbImage &v) {
        return qualityBytes(bytesOf(v), bytesOf(*precise), byteCount(v),
                            spread);
    };
    spec.precise = precise;
    return makeApp(std::move(spec));
}

std::unique_ptr<EmbedApp>
kmeansApp(std::uint64_t seed)
{
    auto scene = std::make_shared<const RgbImage>(
        generateColorScene(kExtent, kExtent, seed));
    const unsigned clusters = KmeansConfig{}.clusters;
    auto precise =
        std::make_shared<const KmeansResult>(kmeansCluster(*scene, clusters));
    const double spread =
        spreadBytes(bytesOf(precise->image), byteCount(precise->image));
    AppSpec<KmeansResult> spec;
    spec.name = "kmeans";
    spec.width = 4;
    spec.gangWidths = {1, 2, 4};
    spec.valueBytes = byteCount(precise->image);
    spec.baseline = [scene, clusters] {
        (void)kmeansCluster(*scene, clusters);
    };
    spec.build = [scene](unsigned width) {
        KmeansConfig config;
        config.workers = width;
        auto bundle = makeKmeansAutomaton(*scene, config);
        return std::make_pair(std::move(bundle.automaton), bundle.output);
    };
    spec.quality = [precise, spread](const KmeansResult &v) {
        return qualityBytes(bytesOf(v.image), bytesOf(precise->image),
                            byteCount(v.image), spread);
    };
    spec.precise = precise;
    return makeApp(std::move(spec));
}

std::unique_ptr<EmbedApp>
matmulApp(std::uint64_t seed)
{
    // A in 16-bit range, B full 32-bit: every product sum fits int64.
    auto a = std::make_shared<const IntMatrix>(
        randomMatrix(kMatmulSide, seed, 16));
    auto b = std::make_shared<const IntMatrix>(
        randomMatrix(kMatmulSide, seed ^ 0x9e3779b97f4a7c15ULL, 32));
    auto precise = std::make_shared<const LongMatrix>(matmulExact(*a, *b));
    const double spread = spreadI64(precise->data().data(), precise->size());
    AppSpec<LongMatrix> spec;
    spec.name = "matmul";
    spec.width = 4;
    spec.gangWidths = {1, 2, 4};
    spec.valueBytes = byteCount(*precise);
    spec.baseline = [a, b] { (void)matmulExact(*a, *b); };
    spec.build = [a, b](unsigned width) {
        MatmulConfig config;
        config.workers = width;
        auto bundle = makeMatmulAutomaton(*a, *b, config);
        return std::make_pair(std::move(bundle.automaton), bundle.output);
    };
    spec.quality = [precise, spread](const LongMatrix &v) {
        return qualityI64(v.data().data(), precise->data().data(), v.size(),
                          spread);
    };
    spec.precise = precise;
    return makeApp(std::move(spec));
}

std::vector<double>
field(const std::vector<AppRun> &runs, double AppRun::*member)
{
    std::vector<double> out;
    out.reserve(runs.size());
    for (const AppRun &run : runs) {
        if (!std::isnan(run.*member))
            out.push_back(run.*member);
    }
    return out;
}

/** Geometric mean over apps of each app's median. */
double
medianAcrossApps(const EmbedSamples &samples, double AppRun::*member)
{
    std::vector<double> per_app;
    for (const auto &runs : samples.runs)
        per_app.push_back(median(field(runs, member)));
    return geomean(per_app);
}

/** The rotations of window @p w (see kWindows). */
EmbedSamples
window(const EmbedSamples &samples, std::size_t w)
{
    EmbedSamples part;
    for (const auto &runs : samples.runs) {
        std::vector<AppRun> kept;
        for (std::size_t r = 0; r < runs.size(); ++r) {
            if (windowOf(static_cast<double>(r) /
                         static_cast<double>(runs.size())) == w)
                kept.push_back(runs[r]);
        }
        part.rotations = kept.size();
        part.runs.push_back(std::move(kept));
    }
    return part;
}

/** Median over windows of @p statistic. */
double
overWindows(const EmbedSamples &samples,
            const std::function<double(const EmbedSamples &)> &statistic)
{
    std::vector<double> values;
    for (std::size_t w = 0; w < kWindows; ++w)
        values.push_back(statistic(window(samples, w)));
    return median(values);
}

/**
 * Tail across apps. One run holds too few samples per app for a tail
 * of its own, so every sample is divided by its app's median, the
 * ratios of all apps are pooled, and the pooled kTailPct percentile
 * scales the geometric mean of the medians. Equal to the geometric
 * mean of per-app percentiles when the apps' spreads share one shape.
 */
double
tailAcrossApps(const EmbedSamples &samples, double AppRun::*member)
{
    std::vector<double> ratios;
    for (const auto &runs : samples.runs) {
        const std::vector<double> values = field(runs, member);
        const double mid = median(values);
        for (double v : values)
            ratios.push_back(v / mid);
    }
    requireTail(ratios.size(), kTailPct, "embed_large_gang app runs");
    return medianAcrossApps(samples, member) * percentile(ratios, kTailPct);
}

} // namespace

std::unique_ptr<EmbedSuite>
makeEmbedSuite(std::uint64_t seed)
{
    auto suite = std::make_unique<EmbedSuite>();
    const std::uint64_t base = seed * 16;
    suite->apps.push_back(conv2dApp(base + 1));
    suite->apps.push_back(histeqApp(base + 2));
    suite->apps.push_back(dwt53App(base + 3));
    suite->apps.push_back(debayerApp(base + 4));
    suite->apps.push_back(kmeansApp(base + 5));
    suite->apps.push_back(matmulApp(base + 6));
    // Warm-up: one unscored run each, so lazy set-up (dispatch tables,
    // allocator arenas, page faults on first touch) is not timed.
    for (const auto &app : suite->apps)
        (void)app->run(app->embedWidth(), false);
    return suite;
}

EmbedSamples
measureEmbed(const EmbedSuite &suite, double seconds,
             std::size_t min_rotations, Result &result)
{
    EmbedSamples samples;
    samples.runs.resize(suite.apps.size());
    const auto start = Clock::now();
    while (samples.rotations < min_rotations ||
           msBetween(start, Clock::now()) < seconds * 1000.0) {
        for (std::size_t i = 0; i < suite.apps.size(); ++i) {
            const EmbedApp &app = *suite.apps[i];
            AppRun run = app.run(app.embedWidth(), true);
            result.attempt();
            if (run.stageFailed)
                result.violation(app.name() + ": a stage failed");
            else if (!run.exact)
                result.violation(app.name() +
                                 ": final differs from the precise function");
            samples.runs[i].push_back(run);
        }
        ++samples.rotations;
    }
    return samples;
}

void
reportEmbed(const EmbedSamples &samples, Result &result)
{
    if (samples.rotations < kWindows)
        throw std::runtime_error("embed_large_gang: fewer rotations than "
                                 "windows; run longer (--seconds)");
    for (const auto &runs : samples.runs) {
        std::fprintf(stderr,
                     "  build %.2f first %.2f ttq90 %.2f precise %.2f (run "
                     "%.2f) ms, q@budget %.3f, versions %zu\n",
                     median(field(runs, &AppRun::buildMs)),
                     median(field(runs, &AppRun::firstMs)),
                     median(field(runs, &AppRun::ttq90Ms)),
                     median(field(runs, &AppRun::preciseMs)),
                     median(field(runs, &AppRun::runPreciseMs)),
                     mean(field(runs, &AppRun::qualityAtBudget)),
                     static_cast<std::size_t>(runs.front().versions));
    }
    const auto timing = [&](double AppRun::*member, const char *name) {
        result.add(name, overWindows(samples, [member](const EmbedSamples &w) {
                       return medianAcrossApps(w, member);
                   }),
                   "ms");
    };
    timing(&AppRun::firstMs, "first_version_ms_p50");
    timing(&AppRun::ttq50Ms, "ttq50_ms_p50");
    timing(&AppRun::ttq90Ms, "ttq90_ms_p50");
    timing(&AppRun::preciseMs, "precise_ms_p50");
    timing(&AppRun::responseMs, "response_ms_p50");
    const auto share = [&](const std::function<double(const AppRun &)> &of,
                           const char *name) {
        result.add(name, overWindows(samples, [&of](const EmbedSamples &w) {
                       std::vector<double> values;
                       for (const auto &runs : w.runs) {
                           for (const AppRun &run : runs)
                               values.push_back(of(run));
                       }
                       return mean(values);
                   }),
                   "ratio");
    };
    share([](const AppRun &run) { return run.qualityAtBudget; },
          "quality_at_deadline_mean");
    share([](const AppRun &run) { return run.heldByBudget ? 1.0 : 0.0; },
          "deadline_hit_ratio");
}

void
reportEmbedTails(const EmbedSamples &samples, Result &result)
{
    result.add("first_version_ms_tail",
               tailAcrossApps(samples, &AppRun::firstMs), "ms");
    result.add("ttq90_ms_tail", tailAcrossApps(samples, &AppRun::ttq90Ms),
               "ms");
    result.add("precise_ms_tail", tailAcrossApps(samples, &AppRun::preciseMs),
               "ms");
    result.add("response_ms_tail",
               tailAcrossApps(samples, &AppRun::responseMs), "ms");
}

double
embedKeyLatency(const EmbedSamples &samples)
{
    return medianAcrossApps(samples, &AppRun::preciseMs);
}

namespace {

/**
 * Median run-only precise time (build excluded) at each of @p widths
 * over @p reps rounds; each round runs every width once, so a burst of
 * host load falls on all widths alike. Checks every final.
 */
std::vector<double>
medianPrecise(const EmbedApp &app, const std::vector<unsigned> &widths,
              unsigned reps, Result &result, const std::string &what)
{
    std::vector<std::vector<double>> precise(widths.size());
    for (unsigned r = 0; r < reps; ++r) {
        for (std::size_t i = 0; i < widths.size(); ++i) {
            const AppRun run = app.run(widths[i], false);
            if (!run.exact)
                result.violation(app.name() + " " + what +
                                 ": final not bit-identical");
            precise[i].push_back(run.runPreciseMs);
        }
    }
    std::vector<double> medians;
    for (const auto &times : precise)
        medians.push_back(median(times));
    return medians;
}

} // namespace

void
probeApps(const EmbedSuite &suite, Result &result)
{
    constexpr unsigned kReps = 5;
    for (const auto &app : suite.apps) {
        const std::string prefix = "apps." + app->name() + ".";
        std::vector<double> baseline;
        for (unsigned r = 0; r < kReps; ++r) {
            const auto t0 = Clock::now();
            app->baseline();
            baseline.push_back(msBetween(t0, Clock::now()));
        }
        std::vector<AppRun> runs;
        for (unsigned r = 0; r < kReps; ++r)
            runs.push_back(app->run(app->embedWidth(), true));
        std::vector<double> versions;
        for (const AppRun &run : runs) {
            versions.push_back(static_cast<double>(run.versions));
            if (!run.exact)
                result.violation(app->name() +
                                 " probe: final not bit-identical");
        }
        const double precise_ms = median(field(runs, &AppRun::preciseMs));
        const double run_ms = median(field(runs, &AppRun::runPreciseMs));
        result.add(prefix + "baseline_ms", median(baseline), "ms");
        result.add(prefix + "build_ms", median(field(runs, &AppRun::buildMs)),
                   "ms");
        result.add(prefix + "ttq90_ms", median(field(runs, &AppRun::ttq90Ms)),
                   "ms");
        result.add(prefix + "precise_ms", precise_ms, "ms");
        result.add(prefix + "versions", median(versions), "count");
        // Computed, not measured: versions x value bytes / run time.
        result.add("core.publish_mb_per_s." + app->name(),
                   median(versions) * static_cast<double>(app->valueBytes()) /
                       1e6 / (run_ms / 1e3),
                   "MB/s");

        const std::vector<unsigned> widths = app->gangWidths();
        if (!widths.empty()) {
            const std::vector<double> times =
                medianPrecise(*app, widths, kReps, result, "gang");
            for (std::size_t i = 1; i < widths.size(); ++i)
                result.add("core.gang" + std::to_string(widths[i]) +
                               "_speedup." + app->name(),
                           times.front() / times[i], "x");
        }

        // Scalar and best ISA alternate the same way.
        const simd::Isa best = simd::bestSupportedIsa();
        std::vector<double> scalar, vector;
        for (unsigned r = 0; r < kReps; ++r) {
            simd::forceIsa(simd::Isa::scalar);
            scalar.push_back(medianPrecise(*app, {app->embedWidth()}, 1,
                                           result, "scalar isa")
                                 .front());
            simd::forceIsa(best);
            vector.push_back(medianPrecise(*app, {app->embedWidth()}, 1,
                                           result, "best isa")
                                 .front());
        }
        simd::resetIsa();
        result.add("simd." + app->name() + ".isa_speedup",
                   median(scalar) / median(vector), "x");
    }
}

} // namespace perfbench
