// The three workloads and the traced ledger. Each Run* function performs
// the common set-up, runs its measured rounds (or, with --trace 1, the
// per-layer ledger over the same corpus and stream), checks the answers,
// and fills `report`. A false return means the run could not complete.

#ifndef LAYERBENCH_WORKLOADS_H_
#define LAYERBENCH_WORKLOADS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "checks.h"
#include "common.h"

namespace layerbench {

bool RunServeRead(const Args& args, Report* report);
bool RunBatchScan(const Args& args, Report* report);
bool RunChurn(const Args& args, Report* report);

// Every run reports every end-to-end metric. A measured run is a loop of
// rounds (RunRounds): each round does a little of every phase, the
// workload's headline phase most, so each metric is sampled across the
// whole run and reported as a median over its samples. A stall of the
// host then moves a minority of the samples instead of a whole phase.
// The samplers below hold one phase's state and samples across rounds;
// ResetSamples() drops the warm-up round's samples.

/// Rounds: `round` once as a warm-up, then `reset`, then `round` again
/// until `seconds` have passed (at least kMinRounds measured rounds).
/// Returns the number of measured rounds, or -1 if a round failed.
inline constexpr int kMinRounds = 3;
int RunRounds(double seconds, const std::function<bool()>& round,
              const std::function<void()>& reset);

/// Loopback serve::Server over `engine` with the library's default
/// options and persistent connections. Each ClosedSlice is a closed loop
/// (each connection keeps a fixed pipelined window) and gives one
/// serve_qps sample; each OpenSlice is an open loop at the fixed offered
/// rate (latency timed from each request's due time) and gives one
/// query_p50_us and one topk_p50_us sample. Every wire answer is compared
/// with the in-process answer to the same request. Finish() stops the
/// server and sets the three metrics to the medians of their samples.
class ServeSampler {
 public:
  ServeSampler(const ShardedEnsemble& engine, const Traffic& traffic,
               Report* report);
  ~ServeSampler();
  ServeSampler(const ServeSampler&) = delete;
  ServeSampler& operator=(const ServeSampler&) = delete;

  bool Start();
  bool ClosedSlice(double seconds);
  bool OpenSlice(double seconds);
  void ResetSamples();
  bool Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// In-process ShardedEnsemble::BatchQuery of `specs` as one batch. Each
/// Batch() is one batch_qps sample; the first and the last answers are
/// kept and must agree.
class BatchSampler {
 public:
  BatchSampler(const ShardedEnsemble& engine, std::vector<QuerySpec> specs,
               Report* report);
  bool Batch();
  void ResetSamples() { batch_s_.clear(); }
  /// Sets batch_qps from the median batch time; checks first == last.
  void Finish();
  const Answers& outs() const { return last_; }

 private:
  const ShardedEnsemble& engine_;
  std::vector<QuerySpec> specs_;
  Report* report_;
  Answers first_;
  Answers last_;
  std::vector<double> batch_s_;
};

/// Verified ShardedEnsemble::OpenSnapshot of the set-up snapshot. Each
/// Open() is one open_ms sample; Finish() sets their median.
class OpenSampler {
 public:
  OpenSampler(const Setup& setup, Report* report)
      : setup_(setup), report_(report) {}
  bool Open();
  void ResetSamples() { ms_.clear(); }
  void Finish();

 private:
  const Setup& setup_;
  Report* report_;
  std::vector<double> ms_;
};

/// Recall and precision of `outs` against exact containment over the
/// first `indexed` queries of `stream` (those drawn from the corpus).
/// Also checks self-hits, liveness and uniqueness, and the recall floor.
void AccuracyPhase(const Setup& setup, const std::vector<StreamQuery>& stream,
                   size_t indexed, const Answers& outs, Report* report);

/// The traced run: answers `stream` at every layer, checks that every
/// layer returns the same ids, and sets every per-layer metric. `topk`
/// holds the top-k requests timed through BatchSearch.
bool RunLedger(Setup* setup, const std::vector<StreamQuery>& stream,
               const std::vector<StreamQuery>& topk, const Args& args,
               Report* report);

/// Writes beside reads on a ShardedEnsemble: Insert(id, raw values) of a
/// fixed pool of new domains in a fixed order, Remove of the oldest live
/// id (a seeded order over the corpus), and BatchQuery batches of the
/// just-inserted domains plus a seeded corpus stream. One round starts
/// right after a rebuild and ends with the insert that crosses the
/// auto-rebuild trigger again, so every round does the same work.
class ChurnDriver {
 public:
  /// The fixed pool of new domains the churn stream inserts (its own
  /// corpus seed), with their sketches. Built once and shared.
  struct InsertPool {
    Corpus corpus;
    std::vector<MinHash> sketches;
  };
  static std::shared_ptr<const InsertPool> MakeInsertPool(const Setup& setup);

  struct RoundStats {
    uint64_t inserts = 0;
    uint64_t removes = 0;
    uint64_t queries = 0;
    uint64_t rebuilds = 0;
    double insert_s = 0;  // includes the rebuild the crossing insert runs
    double remove_s = 0;
    double query_s = 0;
    double rebuild_s = 0;  // the crossing insert alone
  };

  /// `engine` is mutated; `setup` supplies the corpus and its sketches.
  /// Without a `pool`, one is built here.
  ChurnDriver(Setup* setup, ShardedEnsemble* engine, uint64_t seed,
              Report* report,
              std::shared_ptr<const InsertPool> pool = nullptr);

  /// One round, or its first `max_inserts` inserts when that comes
  /// first; false if a library call failed. Checks every answer.
  bool RunRound(RoundStats* stats, uint64_t max_inserts = UINT64_MAX);

  /// Flush, then compare the engine's answers with a fresh
  /// LshEnsembleBuilder index over the surviving records. Returns the
  /// Flush time in seconds through `flush_s`.
  bool FinalCheck(double* flush_s);

 private:
  static constexpr size_t kInsertPool = 8192;
  static constexpr size_t kQueryEvery = 256;
  static constexpr size_t kRecentQueries = 128;
  static constexpr size_t kCorpusQueries = 128;

  bool IsLive(uint64_t id) const;

  Setup* setup_;
  ShardedEnsemble* engine_;
  Report* report_;
  std::shared_ptr<const InsertPool> pool_;
  std::vector<StreamQuery> corpus_stream_;
  size_t corpus_cursor_ = 0;
  uint64_t next_insert_ = 0;
  std::deque<uint64_t> live_queue_;  // removal order: oldest first
  std::vector<uint8_t> corpus_live_;
  std::unordered_set<uint64_t> new_live_;
  std::unordered_set<uint64_t> removed_;
};

/// The churn stream as a side phase of the workloads whose headline is
/// not churn. Each Step(inserts) opens a fresh engine from the set-up
/// snapshot and runs the first `inserts` inserts and removes of the
/// stream (below the rebuild trigger) with their query batches, so every
/// step does the same work; it gives one insert_per_s and one
/// churn_query_qps sample. Finish() sets both to the medians over steps.
class ChurnSideSampler {
 public:
  ChurnSideSampler(Setup* setup, uint64_t seed, Report* report);
  bool Step(uint64_t inserts);
  void ResetSamples();
  void Finish();

 private:
  Setup* setup_;
  uint64_t seed_;
  Report* report_;
  std::shared_ptr<const ChurnDriver::InsertPool> pool_;
  std::vector<double> insert_rate_;
  std::vector<double> query_rate_;
};

}  // namespace layerbench

#endif  // LAYERBENCH_WORKLOADS_H_
