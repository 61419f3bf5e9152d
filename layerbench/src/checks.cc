#include "checks.h"

#include <algorithm>
#include <cstdio>

namespace layerbench {

namespace {

CheckResult Violation(const char* format, size_t query, uint64_t id) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, query,
                static_cast<unsigned long long>(id));
  return {false, buf};
}

}  // namespace

CheckResult CheckSelfHits(const std::vector<uint64_t>& self_ids,
                          const Answers& outs) {
  if (self_ids.size() != outs.size()) return {false, "self-hit arity"};
  for (size_t i = 0; i < outs.size(); ++i) {
    if (self_ids[i] == kNoSelf) continue;
    if (std::find(outs[i].begin(), outs[i].end(), self_ids[i]) ==
        outs[i].end()) {
      return Violation("query %zu does not return its own id %llu", i,
                       self_ids[i]);
    }
  }
  return {};
}

CheckResult CheckLiveUnique(const Answers& outs,
                            const std::function<bool(uint64_t)>& is_live) {
  std::vector<uint64_t> sorted;
  for (size_t i = 0; i < outs.size(); ++i) {
    sorted.assign(outs[i].begin(), outs[i].end());
    std::sort(sorted.begin(), sorted.end());
    const auto dup = std::adjacent_find(sorted.begin(), sorted.end());
    if (dup != sorted.end()) {
      return Violation("query %zu returns id %llu twice", i, *dup);
    }
    for (uint64_t id : sorted) {
      if (!is_live(id)) {
        return Violation("query %zu returns id %llu, which is not live", i,
                         id);
      }
    }
  }
  return {};
}

CheckResult CheckNoRemoved(const Answers& outs,
                           const std::unordered_set<uint64_t>& removed) {
  for (size_t i = 0; i < outs.size(); ++i) {
    for (uint64_t id : outs[i]) {
      if (removed.count(id) != 0) {
        return Violation("query %zu returns removed id %llu", i, id);
      }
    }
  }
  return {};
}

CheckResult CheckSameIdSets(const std::string& layer_a, const Answers& a,
                            const std::string& layer_b, const Answers& b) {
  if (a.size() != b.size()) {
    return {false, layer_a + " and " + layer_b + " answer different counts"};
  }
  std::vector<uint64_t> sa;
  std::vector<uint64_t> sb;
  for (size_t i = 0; i < a.size(); ++i) {
    sa.assign(a[i].begin(), a[i].end());
    sb.assign(b[i].begin(), b[i].end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    if (sa != sb) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "query %zu: %s returns %zu ids, %s returns %zu (sets "
                    "differ)",
                    i, layer_a.c_str(), sa.size(), layer_b.c_str(), sb.size());
      return {false, buf};
    }
  }
  return {};
}

CheckResult CheckTopKOrder(
    const std::vector<std::vector<lshensemble::TopKResult>>& outs) {
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < outs.size(); ++i) {
    ids.clear();
    for (size_t j = 0; j < outs[i].size(); ++j) {
      if (j > 0 && outs[i][j].estimated_containment >
                       outs[i][j - 1].estimated_containment) {
        return Violation("top-k query %zu: estimate rises at rank %llu", i,
                         j);
      }
      ids.push_back(outs[i][j].id);
    }
    std::sort(ids.begin(), ids.end());
    const auto dup = std::adjacent_find(ids.begin(), ids.end());
    if (dup != ids.end()) {
      return Violation("top-k query %zu repeats id %llu", i, *dup);
    }
  }
  return {};
}

Accuracy MeasureAccuracy(const Answers& outs, const Answers& truths) {
  Accuracy acc;
  if (outs.empty()) return acc;
  std::vector<uint64_t> sorted;
  double precision_sum = 0.0;
  double recall_sum = 0.0;
  size_t recall_queries = 0;
  for (size_t i = 0; i < outs.size(); ++i) {
    sorted.assign(outs[i].begin(), outs[i].end());
    std::sort(sorted.begin(), sorted.end());
    const auto& truth = truths[i];
    size_t hits = 0;
    size_t a = 0;
    size_t b = 0;
    while (a < sorted.size() && b < truth.size()) {
      if (sorted[a] < truth[b]) {
        ++a;
      } else if (truth[b] < sorted[a]) {
        ++b;
      } else {
        ++hits;
        ++a;
        ++b;
      }
    }
    precision_sum += sorted.empty()
                         ? 1.0
                         : static_cast<double>(hits) / sorted.size();
    if (!truth.empty()) {
      recall_sum += static_cast<double>(hits) / truth.size();
      ++recall_queries;
    }
  }
  acc.precision = precision_sum / static_cast<double>(outs.size());
  acc.recall = recall_queries == 0
                   ? 1.0
                   : recall_sum / static_cast<double>(recall_queries);
  return acc;
}

CheckResult CheckRecallFloor(double recall, double floor) {
  if (recall >= floor) return {};
  char buf[128];
  std::snprintf(buf, sizeof(buf), "recall %.4f below its floor %.4f", recall,
                floor);
  return {false, buf};
}

}  // namespace layerbench
