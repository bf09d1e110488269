#include "probes.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/conv2d.hpp"
#include "sampling/tree_permutation.hpp"
#include "simd/simd.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace anytime;

namespace {

constexpr std::size_t kImagePixels = 1152 * 1152;
constexpr std::size_t kDwtLine = 1152;
/** Centroids of the embedded kmeans (already a multiple of 8 lanes). */
constexpr std::size_t kCentroids = 8;

/**
 * Nanoseconds per call of @p call: iterations double until one batch
 * takes 5 ms, then the median of five such batches.
 */
double
nsPerCall(const std::function<void()> &call)
{
    std::uint64_t iterations = 1;
    for (;;) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < iterations; ++i)
            call();
        if (msBetween(t0, Clock::now()) >= 5.0)
            break;
        iterations *= 2;
    }
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
        const auto t0 = Clock::now();
        for (std::uint64_t i = 0; i < iterations; ++i)
            call();
        batches.push_back(msBetween(t0, Clock::now()) * 1e6 /
                          static_cast<double>(iterations));
    }
    return median(batches);
}

void
addOp(Result &result, const std::string &op, double ns, double bytes)
{
    result.add("simd." + op + ".ns_per_call", ns, "ns");
    // Computed from the call's operand sizes, not measured traffic.
    result.add("simd." + op + ".bytes_per_call", bytes, "bytes");
}

double
treeMapNs(std::uint64_t side)
{
    const TreePermutation perm = TreePermutation::twoDim(side, side);
    const std::uint64_t n = perm.size();
    std::uint64_t sink = 0;
    const double ns = nsPerCall([&] {
        for (std::uint64_t i = 0; i < n; ++i)
            sink += perm.map(i);
        // Keep the sum observable so the loop is not elided.
        asm volatile("" : : "r"(sink) : "memory");
    });
    return ns / static_cast<double>(n);
}

} // namespace

void
probeMicro(Result &result)
{
    const simd::Ops &ops = simd::ops();
    Xoshiro256 rng(7);
    std::vector<std::uint8_t> image(kImagePixels);
    for (auto &byte : image)
        byte = static_cast<std::uint8_t>(rng.next());
    volatile double sink = 0;

    // conv2d: one output pixel of the radius-3 Gaussian, padded taps.
    const Kernel kernel = Kernel::gaussianBlur(3);
    const std::size_t taps = kernel.paddedLanes() * (2 * kernel.radius() + 1);
    std::vector<float> vals(taps);
    for (auto &v : vals)
        v = static_cast<float>(rng.next() % 256);
    addOp(result, "dotPadded8",
          nsPerCall([&] {
              sink = sink + ops.dotPadded8(kernel.paddedTaps(), vals.data(),
                                           taps);
          }),
          2.0 * static_cast<double>(taps * sizeof(float)));

    // kmeans: distances from one pixel to every centroid.
    std::vector<std::int32_t> cr(kCentroids), cg(kCentroids), cb(kCentroids),
        out(kCentroids);
    for (std::size_t i = 0; i < kCentroids; ++i) {
        cr[i] = static_cast<std::int32_t>(rng.next() % 256);
        cg[i] = static_cast<std::int32_t>(rng.next() % 256);
        cb[i] = static_cast<std::int32_t>(rng.next() % 256);
    }
    addOp(result, "squaredDistancesRgb",
          nsPerCall([&] {
              ops.squaredDistancesRgb(cr.data(), cg.data(), cb.data(),
                                      kCentroids, 17, 99, 201, out.data());
              sink = sink + out[3];
          }),
          4.0 * static_cast<double>(kCentroids * sizeof(std::int32_t)));

    // histeq: the whole-image histogram of the precise stage.
    addOp(result, "histogram256",
          nsPerCall([&] {
              std::uint64_t bins[256] = {};
              simd::histogram256(image.data(), image.size(), bins);
              sink = sink + static_cast<double>(bins[7]);
          }),
          static_cast<double>(kImagePixels) + 2.0 * 256 * 8);

    // dwt53: the predict step of one 1152-sample line.
    std::vector<std::int32_t> line(kDwtLine), high(kDwtLine / 2);
    for (auto &v : line)
        v = static_cast<std::int32_t>(rng.next() % 256);
    addOp(result, "dwtPredict53",
          nsPerCall([&] {
              ops.dwtPredict53(line.data(), line.size(), high.data());
              sink = sink + high[5];
          }),
          static_cast<double>((kDwtLine + kDwtLine / 2) *
                              sizeof(std::int32_t)));

    // conv2d reduced precision: one bit plane over the padded taps.
    std::vector<std::int32_t> qtaps(taps);
    std::vector<std::uint32_t> selectors(taps);
    for (std::size_t i = 0; i < taps; ++i) {
        qtaps[i] = static_cast<std::int32_t>(rng.next() % 65536);
        selectors[i] = static_cast<std::uint32_t>(rng.next() % 256);
    }
    addOp(result, "maskedSumI32",
          nsPerCall([&] {
              sink = sink + static_cast<double>(ops.maskedSumI32(
                                qtaps.data(), selectors.data(), taps, 5));
          }),
          2.0 * static_cast<double>(taps * sizeof(std::int32_t)));

    // histeq: the whole-image LUT apply of the precise stage.
    std::vector<std::uint8_t> lut(256), mapped(kImagePixels);
    for (std::size_t i = 0; i < lut.size(); ++i)
        lut[i] = static_cast<std::uint8_t>(255 - i);
    addOp(result, "applyLutU8",
          nsPerCall([&] {
              ops.applyLutU8(image.data(), image.size(), lut.data(),
                             mapped.data());
              sink = sink + mapped[11];
          }),
          2.0 * static_cast<double>(kImagePixels) + 256);

    result.add("sampling.tree_map_ns.1152x1152", treeMapNs(1152), "ns");
    result.add("sampling.tree_map_ns.256x256", treeMapNs(256), "ns");
}

} // namespace perfbench
