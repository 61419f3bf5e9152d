// Shared plumbing of the layer-ledger benchmark: arguments, clocks, the
// seeded corpus and query streams, the common set-up pipeline (sketch ->
// ingest -> snapshot -> open), exact ground truth, and the result record
// every workload fills.

#ifndef LAYERBENCH_COMMON_H_
#define LAYERBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lsh_ensemble.h"
#include "core/sharded_ensemble.h"
#include "core/topk.h"
#include "data/corpus.h"
#include "minhash/minhash.h"

namespace layerbench {

using lshensemble::Corpus;
using lshensemble::HashFamily;
using lshensemble::MinHash;
using lshensemble::QuerySpec;
using lshensemble::ShardedEnsemble;
using lshensemble::ShardedEnsembleOptions;
using lshensemble::TopKQuery;
using lshensemble::TopKResult;

/// Steady-clock nanoseconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Process start as seen by main(): set-up is timed from here.
extern uint64_t g_process_start_ns;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for snapshots and trace files (created, then cleaned).
  std::string out_dir = ".bench_out";
};

/// Engine shape shared by every workload: library defaults for m,
/// partitions and tree depth; shard count fixed.
inline constexpr size_t kShards = 2;
/// Top-k request size.
inline constexpr size_t kTopK = 10;
/// The paper's Open Data scale (65,533 domains).
inline constexpr size_t kOpenDataDomains = 65533;
/// Threshold mix: every stream draws t* uniformly from these.
inline constexpr double kTStarMix[] = {0.3, 0.5, 0.7, 0.9};
/// Ids of domains inserted after set-up start here (corpus ids are
/// 0..N-1), so a fresh id can never alias a corpus domain.
inline constexpr uint64_t kNewIdBase = uint64_t{1} << 40;

/// Corpus seed of every workload. The corpus is one canonical input, the
/// same in every run; --seed drives the traffic (query samples, t* draws,
/// miss queries, request order, the churn stream). A power-law corpus
/// drawn per seed would swing memory, set-up and query cost from run to
/// run by its few largest domains.
inline constexpr uint64_t kCorpusSeed = 20160905;

/// CodLike corpus: power-law sizes in [10, 100000], alpha 2, a
/// 20,000-token shared vocabulary at 5% (the Open Data stand-in the
/// repository's figure benches use). Domain ids are 0..num_domains-1.
Corpus MakeCorpus(size_t num_domains, uint64_t seed);

/// Sorted distinct values that occur in no generated corpus (tag 0xFD
/// in the top byte), `size` of them, unique per `tag_index`.
std::vector<uint64_t> MissValues(uint64_t tag_index, size_t size);

/// Per-operation-type accounting printed in every run's output.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// What a run reports: correctness, operation counts, metrics.
struct Report {
  bool correct = true;
  std::vector<std::string> failures;
  std::map<std::string, OpCounts> ops;  // "threshold", "topk", ...
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void Fail(const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  OpCounts& Op(const std::string& type) { return ops[type]; }
};

/// The common set-up every workload runs (timed as setup_s): generate the
/// corpus, sketch it with ParallelSketcher, ingest it through the public
/// Insert + Flush path of a fresh S-shard engine (auto-rebuild trigger
/// disabled for the bulk load), SaveSnapshot, and a verified zero-copy
/// OpenSnapshot with the library's default serving/rebuild options.
struct Setup {
  Corpus corpus;
  std::shared_ptr<const HashFamily> family;
  std::vector<MinHash> sketches;  // parallel to corpus domains
  std::unique_ptr<ShardedEnsemble> engine;  // opened from the snapshot
  std::string snapshot_dir;
  uint64_t total_values = 0;
  // Phase timings (seconds) and counts, for the traced ledger.
  double gen_s = 0, sketch_s = 0, insert_s = 0, flush_s = 0, save_s = 0,
         open_s = 0, setup_s = 0;
  uint64_t bulk_rebuilds = 0;
  uint64_t snapshot_bytes = 0;
};

/// Options of the serving engine opened from the snapshot (library
/// defaults apart from the shard count).
ShardedEnsembleOptions ServingOptions();

/// Run the set-up pipeline. `trace` adds spans around each phase.
/// Returns false (with the reason in `report`) on any library error.
bool RunSetup(size_t num_domains, const Args& args, Setup* setup,
              Report* report);

/// One threshold query of a stream: the sketch it carries (owned here
/// for miss queries, borrowed from the set-up otherwise), its exact size,
/// its t*, and the corpus index it was drawn from (or -1 for a miss).
struct StreamQuery {
  const MinHash* sketch = nullptr;
  size_t size = 0;
  double t_star = 0.5;
  int64_t corpus_index = -1;
  uint64_t id() const { return static_cast<uint64_t>(corpus_index); }
};

/// Seeded threshold-query stream over indexed domains: one domain drawn
/// from each of `count` equal strata of the corpus's size order, t* from
/// kTStarMix, in a seeded order.
std::vector<StreamQuery> IndexedStream(const Setup& setup, size_t count,
                                       uint64_t seed);

/// Seeded miss queries: domains whose values occur nowhere in the corpus,
/// sizes drawn (stratified) from the corpus's own size distribution.
/// Their sketches are appended to `owned` (which must not reallocate
/// afterwards: reserve first).
std::vector<StreamQuery> MissStream(const Setup& setup, size_t count,
                                    uint64_t seed, std::vector<MinHash>* owned);

std::vector<QuerySpec> ToSpecs(const std::vector<StreamQuery>& stream);

/// The request mix every serve phase sends, per 16 requests: 12 threshold
/// queries drawn from indexed domains, 3 threshold queries whose values
/// occur nowhere in the corpus, and 1 top-k request. 256 groups.
struct Traffic {
  static constexpr size_t kGroups = 256;
  static constexpr size_t kIndexedPerGroup = 12;
  static constexpr size_t kMissPerGroup = 3;
  static constexpr size_t kTopKPerGroup = 1;

  Traffic(const Setup& setup, uint64_t seed);
  Traffic(const Traffic&) = delete;
  Traffic& operator=(const Traffic&) = delete;

  std::vector<MinHash> miss_sketches;  // owned by the miss queries
  std::vector<StreamQuery> indexed;
  std::vector<StreamQuery> miss;
  std::vector<StreamQuery> topk;
  /// indexed followed by miss: the threshold queries.
  std::vector<StreamQuery> threshold;
};

/// Exact containment ground truth from raw values: an inverted index
/// value -> domains, never touching any LSH path.
class ExactIndex {
 public:
  explicit ExactIndex(const Corpus& corpus);
  /// Ids of every domain X with |Q n X| / |Q| >= t_star.
  std::vector<uint64_t> Answer(const std::vector<uint64_t>& query_values,
                               double t_star) const;

 private:
  /// (value, corpus index) pairs sorted by value: the postings lists.
  std::vector<std::pair<uint64_t, uint32_t>> pairs_;
  mutable std::vector<uint32_t> counts_;
  mutable std::vector<uint32_t> touched_;
};

/// Percentile (nearest rank) of `v`; sorts a copy.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// setup_s and snapshot_bytes_per_domain, which every workload reports.
void SetSetupMetrics(const Setup& setup, Report* report);

/// Peak resident set (VmHWM) in MiB.
double PeakRssMiB();

/// Total bytes of the regular files directly under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Sorted copy of an id list.
std::vector<uint64_t> Sorted(std::vector<uint64_t> ids);

}  // namespace layerbench

#endif  // LAYERBENCH_COMMON_H_
