// Process-wide fork-join pool for host-parallel pure computation.
//
// parallel_for(n, body) runs body(0) .. body(n-1) exactly once each, spread
// over a pool of hardware_concurrency() - 1 threads started on first use;
// the calling thread works on its own indices too, then waits for the
// rest. Indices are claimed in ascending order, but they may finish in any
// order, so a body writes only state owned by its index and the caller
// combines the pieces afterwards in a fixed order.
//
// Any number of threads may call at once (every rank thread of the threads
// backend does). A call made from inside a body (on a pool thread or the
// caller) runs inline, so nested use cannot deadlock the pool. If bodies
// throw, every index still runs, and the first exception is rethrown once
// all of them have finished.
#pragma once

#include <cstddef>
#include <functional>

namespace pioblast::util {

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

}  // namespace pioblast::util
