// Process resource sampling for load diagnostics: reach_serve logs (and
// STATS exports) peak RSS next to index-load wall time, and perfbench
// records the RSS growth of a snapshot load (snapshot.load_rss_mb).

#ifndef REACH_UTIL_RESOURCE_H_
#define REACH_UTIL_RESOURCE_H_

#include <cstdint>

namespace reach {

/// High-water-mark resident set size of this process in KiB (getrusage
/// ru_maxrss). 0 when the platform exposes no way to ask.
uint64_t PeakRssKb();

/// Current resident set size in KiB (/proc/self/statm on Linux). Falls
/// back to PeakRssKb() elsewhere; 0 when nothing is available. Unlike the
/// peak this can go down, which makes it the right probe for measuring
/// one load's footprint delta.
uint64_t CurrentRssKb();

}  // namespace reach

#endif  // REACH_UTIL_RESOURCE_H_
