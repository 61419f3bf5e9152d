// The benchmark's correctness checks, as pure functions over answers so
// the self-test (selftest.cc) can feed each one a deliberately corrupted
// answer and confirm it is rejected.

#ifndef LAYERBENCH_CHECKS_H_
#define LAYERBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/topk.h"

namespace layerbench {

using Answers = std::vector<std::vector<uint64_t>>;

struct CheckResult {
  bool ok = true;
  std::string detail;  // first violation, when !ok
};

/// Marks a query with no indexed self (a miss or top-k-only query).
inline constexpr uint64_t kNoSelf = ~uint64_t{0};

/// Every query i with self_ids[i] != kNoSelf returns its own id:
/// identical signatures collide in every tree, so a drawn-from-the-index
/// query must find itself.
CheckResult CheckSelfHits(const std::vector<uint64_t>& self_ids,
                          const Answers& outs);

/// No query returns an id twice, and every returned id is live.
CheckResult CheckLiveUnique(const Answers& outs,
                            const std::function<bool(uint64_t)>& is_live);

/// No query returns a removed id.
CheckResult CheckNoRemoved(const Answers& outs,
                           const std::unordered_set<uint64_t>& removed);

/// Two layers return the same id set for every query (order-insensitive).
CheckResult CheckSameIdSets(const std::string& layer_a, const Answers& a,
                            const std::string& layer_b, const Answers& b);

/// Top-k answers come in non-increasing estimate order without repeats.
CheckResult CheckTopKOrder(
    const std::vector<std::vector<lshensemble::TopKResult>>& outs);

/// Mean per-query precision and recall against exact answers (both
/// sorted ascending). A query with an empty answer counts precision 1.
struct Accuracy {
  double precision = 0.0;
  double recall = 0.0;
};
Accuracy MeasureAccuracy(const Answers& outs, const Answers& truths);

CheckResult CheckRecallFloor(double recall, double floor);

}  // namespace layerbench

#endif  // LAYERBENCH_CHECKS_H_
