// The three workloads. Each fills a RawResult and, when traced, appends
// the span logs it recorded into.
#ifndef WEBTAB_PERFBENCH_WORKLOADS_H_
#define WEBTAB_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"

namespace perfbench {

/// Zipf exponent of every query draw.
inline constexpr double kZipfExponent = 1.0;

/// splitmix64 of (seed, stream): independent seeded streams per use.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void RunAnnotateBatch(const Args& args, RawResult* raw,
                      std::vector<std::unique_ptr<SpanLog>>* logs);
void RunSearchServe(const Args& args, RawResult* raw,
                    std::vector<std::unique_ptr<SpanLog>>* logs);
void RunMixedServe(const Args& args, RawResult* raw,
                   std::vector<std::unique_ptr<SpanLog>>* logs);

}  // namespace perfbench

#endif  // WEBTAB_PERFBENCH_WORKLOADS_H_
