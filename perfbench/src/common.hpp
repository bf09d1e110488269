/**
 * @file
 * Shared pieces of the repository benchmark: options, the result line,
 * order statistics, the quality score, and the benchmark's own trace
 * spans.
 *
 * Quality follows one definition everywhere: for a version v of an
 * app's output and its precise output p, scored over the array the
 * app's figure bench scores,
 *
 *     q(v) = max(0, 1 - sum (v - p)^2 / sum (p - mean(p))^2)
 *
 * so the precise output scores exactly 1.
 */

#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p from to @p to. */
inline double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /** 1: the traced run that reports the per-layer metrics. */
    bool trace = false;
    /** Where the traced run writes its Chrome trace. */
    std::string traceFile = "perfbench-trace.json";
    /** Calibration only: override a serving workload's arrival rate
     *  (requests per second); 0 keeps the workload's constant. */
    double rate = 0.0;
};

/** The result line: metrics in insertion order, plus the oracle. */
class Result
{
  public:
    void add(const std::string &name, double value, const std::string &unit);

    /** Record an oracle violation (also counted as a failed op). */
    void violation(const std::string &what);

    /** Count @p n more attempted operations. */
    void attempt(std::uint64_t n = 1) { attempted += n; }

    bool correct() const { return violations.empty(); }

    /** Print the one-line JSON result (and violations to stderr). */
    void print(const std::vector<std::pair<std::string, double>> &extra =
                   {}) const;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> violations;
};

/** Linear-interpolated percentile (p in [0, 100]); NaN when empty. */
double percentile(std::vector<double> values, double p);

/** percentile(values, 50). */
double median(std::vector<double> values);

/** Geometric mean of positive values; NaN when empty. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean; 0 when empty. */
double mean(const std::vector<double> &values);

/**
 * Throw unless @p samples leaves at least ten samples beyond the
 * @p pct percentile — the benchmark refuses to print a tail it cannot
 * support.
 */
void requireTail(std::size_t samples, double pct, const std::string &what);

/** Peak resident set size of this process (VmHWM), in MB. */
double peakRssMb();

/** Restart the peak-RSS watermark from the current live RSS. */
void resetPeakRss();

/**
 * A run's end-to-end figures are the median, over this many equal
 * consecutive windows of the run, of each window's statistic: a burst
 * of load on the host then moves one window, not the figure.
 */
inline constexpr std::size_t kWindows = 5;

/** Window of a position in [0, 1] through the run. */
inline std::size_t
windowOf(double position)
{
    const auto window = static_cast<std::size_t>(position * kWindows);
    return window < kWindows ? window : kWindows - 1;
}

/** sum (p - mean(p))^2 over @p n bytes. */
double spreadBytes(const std::uint8_t *p, std::size_t n);

/** sum (p - mean(p))^2 over @p n int64 entries. */
double spreadI64(const std::int64_t *p, std::size_t n);

/** q(v) over bytes, given the precise bytes and their spread. */
double qualityBytes(const std::uint8_t *v, const std::uint8_t *p,
                    std::size_t n, double spread);

/** q(v) over int64 entries. */
double qualityI64(const std::int64_t *v, const std::int64_t *p,
                  std::size_t n, double spread);

/** Spans the benchmark records around its calls into each layer. */
inline constexpr const char *kBenchCategory = "bench";

} // namespace perfbench

#endif // PERFBENCH_COMMON_HPP
