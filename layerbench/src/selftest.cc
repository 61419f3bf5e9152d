// Self-test of the benchmark's correctness checks: each check must accept
// a real answer and reject the answer corrupted in the way it looks for —
// a dropped self-hit, a removed id returned, a duplicate or unknown id, a
// layer that disagrees, a top-k rank out of order, and recall under its
// floor. Builds a small engine so the answers are real ones.
//
//   layerbench_selftest      (exit 0 when every check behaves)

#include <cstdio>
#include <unordered_set>

#include "checks.h"
#include "common.h"
#include "core/lsh_ensemble.h"
#include "data/sketcher.h"

namespace layerbench {
namespace {

int failures = 0;

void Expect(bool want_ok, const CheckResult& got, const char* what) {
  const bool pass = got.ok == want_ok;
  std::printf("%s %-52s %s\n", pass ? "PASS" : "FAIL", what,
              got.ok ? "(accepted)" : got.detail.c_str());
  if (!pass) ++failures;
}

int Main() {
  const Corpus corpus = MakeCorpus(2000, 3);
  auto family = HashFamily::Create(256, 7).value();
  const auto sketches =
      lshensemble::ParallelSketcher(family).SketchCorpus(corpus);
  lshensemble::LshEnsembleBuilder builder(lshensemble::LshEnsembleOptions{},
                                          family);
  for (size_t i = 0; i < corpus.size(); ++i) {
    if (!builder.Add(corpus.domain(i).id, corpus.domain(i).size(),
                     sketches[i])
             .ok()) {
      return 1;
    }
  }
  auto ensemble = std::move(builder).Build().value();

  constexpr size_t kQueries = 200;
  std::vector<QuerySpec> specs;
  std::vector<uint64_t> self_ids;
  for (size_t i = 0; i < kQueries; ++i) {
    const size_t d = (i * 37) % corpus.size();
    specs.push_back({&sketches[d], corpus.domain(d).size(), 0.5});
    self_ids.push_back(d);
  }
  Answers outs(kQueries);
  lshensemble::QueryContext ctx;
  if (!ensemble.BatchQuery(specs, &ctx, outs.data()).ok()) return 1;
  const ExactIndex exact(corpus);
  Answers truths(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    truths[i] = exact.Answer(corpus.domain(self_ids[i]).values, 0.5);
  }
  const size_t n = corpus.size();
  auto live = [n](uint64_t id) { return id < n; };

  // The real answers pass every check.
  Expect(true, CheckSelfHits(self_ids, outs), "self-hits on real answers");
  Expect(true, CheckLiveUnique(outs, live), "live/unique on real answers");
  Expect(true, CheckNoRemoved(outs, {}), "no-removed on real answers");
  Expect(true, CheckSameIdSets("a", outs, "b", outs), "layer agreement");
  const Accuracy acc = MeasureAccuracy(outs, truths);
  Expect(true, CheckRecallFloor(acc.recall, 0.5), "recall above floor");

  // A dropped self-hit.
  Answers dropped = outs;
  auto& q0 = dropped[0];
  q0.erase(std::find(q0.begin(), q0.end(), self_ids[0]));
  Expect(false, CheckSelfHits(self_ids, dropped), "dropped self-hit");

  // A removed id returned.
  const std::unordered_set<uint64_t> removed = {outs[1].front()};
  Expect(false, CheckNoRemoved(outs, removed), "removed id returned");

  // A duplicate id, and an id that is not live.
  Answers dup = outs;
  dup[2].push_back(dup[2].front());
  Expect(false, CheckLiveUnique(dup, live), "duplicate id");
  Answers dead = outs;
  dead[3].push_back(n + 5);
  Expect(false, CheckLiveUnique(dead, live), "id that is not live");

  // A layer that disagrees: one extra id, and one missing id.
  Answers extra = outs;
  extra[4].push_back(n + 9);
  Expect(false, CheckSameIdSets("ref", outs, "extra", extra),
         "layer returns an extra id");
  Answers missing = outs;
  missing[5].pop_back();
  Expect(false, CheckSameIdSets("ref", outs, "missing", missing),
         "layer misses an id");

  // Top-k out of order.
  std::vector<std::vector<TopKResult>> ranked = {
      {{1, 0.9}, {2, 0.8}, {3, 0.8}}};
  Expect(true, CheckTopKOrder(ranked), "top-k in order");
  ranked[0][2].estimated_containment = 0.95;
  Expect(false, CheckTopKOrder(ranked), "top-k estimate rises");

  // Recall under its floor: keep only each query's self id.
  Answers starved(kQueries);
  for (size_t i = 0; i < kQueries; ++i) starved[i] = {self_ids[i]};
  const Accuracy low = MeasureAccuracy(starved, truths);
  Expect(false, CheckRecallFloor(low.recall, acc.recall - 0.01),
         "recall under its floor");

  std::printf("%s: %d check(s) misbehaved\n", failures == 0 ? "OK" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace layerbench

int main() { return layerbench::Main(); }
