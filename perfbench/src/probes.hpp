/**
 * @file
 * Micro-probes at the workloads' shapes: the six SIMD ops and the tree
 * permutation's map on its table (1152²) and bit-scatter (256²) paths.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include "common.hpp"

namespace perfbench {

/** Add simd.<op>.ns_per_call / bytes_per_call and sampling.tree_map_ns.*. */
void probeMicro(Result &result);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
