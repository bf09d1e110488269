#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <malloc.h>
#include <stdexcept>

namespace perfbench {

void
Result::add(const std::string &name, double value, const std::string &unit)
{
    metrics.push_back(Metric{name, value, unit});
}

void
Result::violation(const std::string &what)
{
    ++failed;
    if (violations.size() < 32)
        violations.push_back(what);
}

namespace {

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

void
Result::print(const std::vector<std::pair<std::string, double>> &extra) const
{
    for (const std::string &what : violations)
        std::cerr << "oracle violation: " << what << "\n";
    std::string line = "{\"correct\": ";
    line += correct() ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    for (const auto &[key, value] : extra)
        line += ", \"" + key + "\": " + jsonNumber(value);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            line += ", ";
        line += "\"" + metrics[i].name + "\": {\"value\": " +
                jsonNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    line += "}}";
    std::cout << line << std::endl;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return std::numeric_limits<double>::quiet_NaN();
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

void
requireTail(std::size_t samples, double pct, const std::string &what)
{
    const double beyond =
        static_cast<double>(samples) * (1.0 - pct / 100.0);
    if (beyond < 10.0)
        throw std::runtime_error(
            what + ": " + std::to_string(samples) +
            " samples leave fewer than ten beyond p" +
            std::to_string(pct) + "; run longer (--seconds)");
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return std::numeric_limits<double>::quiet_NaN();
}

void
resetPeakRss()
{
    // Hand freed heap back first, so the watermark restarts from live
    // memory rather than from whatever the allocator still caches.
    malloc_trim(0);
    std::ofstream("/proc/self/clear_refs") << "5";
}

// The scoring loops run between timed operations; integer partial
// sums keep them exact and let the compiler vectorize them.

double
spreadBytes(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t sum = 0, sq = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += p[i];
        sq += static_cast<std::uint64_t>(p[i]) * p[i];
    }
    const double mean_value = static_cast<double>(sum) / static_cast<double>(n);
    return static_cast<double>(sq) -
           static_cast<double>(n) * mean_value * mean_value;
}

double
spreadI64(const std::int64_t *p, std::size_t n)
{
    long double sum = 0;
    for (std::size_t i = 0; i < n; ++i)
        sum += static_cast<long double>(p[i]);
    const long double mean_value = sum / static_cast<long double>(n);
    long double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const long double d = static_cast<long double>(p[i]) - mean_value;
        acc += d * d;
    }
    return static_cast<double>(acc);
}

double
qualityBytes(const std::uint8_t *v, const std::uint8_t *p, std::size_t n,
             double spread)
{
    std::uint64_t err = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const int d = static_cast<int>(v[i]) - static_cast<int>(p[i]);
        err += static_cast<std::uint64_t>(d * d);
    }
    if (spread <= 0.0)
        return err == 0 ? 1.0 : 0.0;
    return std::max(0.0, 1.0 - static_cast<double>(err) / spread);
}

double
qualityI64(const std::int64_t *v, const std::int64_t *p, std::size_t n,
           double spread)
{
    long double err = 0;
    for (std::size_t i = 0; i < n; ++i) {
        // Difference taken in uint64: intermediate bit-plane
        // accumulators may wrap int64 by design.
        const auto d = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(v[i]) -
            static_cast<std::uint64_t>(p[i]));
        err += static_cast<long double>(d) * static_cast<long double>(d);
    }
    if (spread <= 0.0)
        return err == 0 ? 1.0 : 0.0;
    return std::max(0.0, static_cast<double>(1.0L - err / spread));
}

} // namespace perfbench
