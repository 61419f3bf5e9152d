// batch-scan: one in-process caller sends a fixed 4096-query stream in
// whole batches through ShardedEnsemble::BatchQuery over a corpus large
// enough that every partition forest of every shard holds more than 4096
// records (so the exact slot-0 run index is out of play), fully flushed.
// BatchSampler, OpenSampler and AccuracyPhase are shared with the other
// workloads.

#include <cstdio>

#include "checks.h"
#include "core/lsh_ensemble.h"
#include "trace.h"
#include "workloads.h"

namespace layerbench {

namespace {

/// 250,000 domains: the smallest partition (size 11) then holds ~4,800
/// records per shard at S = 2.
constexpr size_t kBatchScanDomains = 250000;
constexpr size_t kBatchQueries = 4096;
constexpr size_t kMinForestRecords = 4097;
/// Recall floor against exact containment over the t* mix (see README
/// for the measured values).
constexpr double kRecallFloor = 0.75;

}  // namespace

BatchSampler::BatchSampler(const ShardedEnsemble& engine,
                           std::vector<QuerySpec> specs, Report* report)
    : engine_(engine), specs_(std::move(specs)), report_(report) {}

bool BatchSampler::Batch() {
  ScopedSpan span("core.ShardedEnsemble::BatchQuery");
  OpCounts& ops = report_->Op("threshold");
  Answers& into = first_.empty() ? first_ : last_;
  into.assign(specs_.size(), {});
  const uint64_t t0 = NowNs();
  const auto st = engine_.BatchQuery(specs_, into.data());
  const double dt = (NowNs() - t0) * 1e-9;
  ops.attempted += specs_.size();
  if (!st.ok()) {
    ops.failed += specs_.size();
    report_->Fail("BatchQuery: " + st.ToString());
    return false;
  }
  batch_s_.push_back(dt);
  return true;
}

void BatchSampler::Finish() {
  if (batch_s_.empty() || last_.empty()) {
    report_->Fail("batch: no measured batches");
    return;
  }
  report_->Set("batch_qps", specs_.size() / Median(batch_s_), "queries/s");
  std::printf("batch: %zu batches of %zu, median %.4fs, p90 %.4fs\n",
              batch_s_.size(), specs_.size(), Median(batch_s_),
              Percentile(batch_s_, 90));
  if (const CheckResult c =
          CheckSameIdSets("first batch", first_, "last batch", last_);
      !c.ok) {
    report_->Fail("batch: " + c.detail);
  }
}

void AccuracyPhase(const Setup& setup, const std::vector<StreamQuery>& stream,
                   size_t indexed, const Answers& outs, Report* report) {
  const Answers answered(outs.begin(), outs.begin() + indexed);
  std::vector<uint64_t> self_ids;
  for (size_t i = 0; i < indexed; ++i) self_ids.push_back(stream[i].id());
  const size_t n = setup.corpus.size();
  for (const CheckResult& c :
       {CheckSelfHits(self_ids, answered),
        CheckLiveUnique(outs, [n](uint64_t id) { return id < n; })}) {
    if (!c.ok) report->Fail("accuracy: " + c.detail);
  }
  Answers truths(indexed);
  const ExactIndex exact(setup.corpus);
  for (size_t i = 0; i < indexed; ++i) {
    truths[i] = exact.Answer(setup.corpus.domain(stream[i].corpus_index).values,
                             stream[i].t_star);
  }
  const Accuracy acc = MeasureAccuracy(answered, truths);
  report->Set("recall", acc.recall, "ratio");
  report->Set("precision", acc.precision, "ratio");
  if (const CheckResult c = CheckRecallFloor(acc.recall, kRecallFloor); !c.ok) {
    report->Fail("accuracy: " + c.detail);
  }
}

bool OpenSampler::Open() {
  ScopedSpan span("io.ShardedEnsemble::OpenSnapshot(verify)");
  const uint64_t t0 = NowNs();
  auto opened =
      ShardedEnsemble::OpenSnapshot(setup_.snapshot_dir, ServingOptions());
  ms_.push_back((NowNs() - t0) * 1e-6);
  if (!opened.ok()) {
    report_->Fail("OpenSnapshot: " + opened.status().ToString());
    return false;
  }
  return true;
}

void OpenSampler::Finish() {
  if (ms_.empty()) {
    report_->Fail("open: no measured opens");
    return;
  }
  report_->Set("open_ms", Median(ms_), "ms");
}

bool RunBatchScan(const Args& args, Report* report) {
  Setup setup;
  if (!RunSetup(kBatchScanDomains, args, &setup, report)) return false;
  SetSetupMetrics(setup, report);
  const auto stream = IndexedStream(setup, kBatchQueries, args.seed);
  if (args.trace) {
    const auto topk = IndexedStream(setup, 256, args.seed + 1);
    return RunLedger(&setup, stream, topk, args, report);
  }
  const ShardedEnsemble& engine = *setup.engine;

  // Workload shape: every (shard, partition) forest above the run-index
  // cutoff.
  for (size_t s = 0; s < engine.num_shards(); ++s) {
    const auto* indexed = engine.shard(s).indexed();
    if (indexed == nullptr) {
      report->Fail("batch-scan: shard has no indexed ensemble");
      continue;
    }
    for (const auto& p : indexed->partitions()) {
      if (p.count < kMinForestRecords) {
        report->Fail("batch-scan: a shard forest holds only " +
                     std::to_string(p.count) + " records");
      }
    }
  }

  // A round (about a tenth of --seconds): three batches of the stream,
  // then the side phases: serve the same engine, reopen the snapshot,
  // a churn step on a fresh open of it.
  const auto specs = ToSpecs(stream);
  const Traffic traffic(setup, args.seed);
  BatchSampler batch(engine, specs, report);
  ServeSampler serve(engine, traffic, report);
  OpenSampler open(setup, report);
  ChurnSideSampler churn(&setup, args.seed, report);
  if (!serve.Start()) return false;
  const int rounds = RunRounds(
      args.seconds,
      [&] {
        return batch.Batch() && batch.Batch() && batch.Batch() &&
               serve.ClosedSlice(0.015 * args.seconds) &&
               serve.OpenSlice(0.015 * args.seconds) && open.Open() &&
               churn.Step(1024);
      },
      [&] {
        batch.ResetSamples();
        serve.ResetSamples();
        open.ResetSamples();
        churn.ResetSamples();
      });
  if (rounds < 0 || !serve.Finish()) return false;
  std::printf("rounds: %d measured after one warm-up round\n", rounds);
  batch.Finish();
  open.Finish();
  churn.Finish();
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  const Answers& outs = batch.outs();

  // --- correctness of the headline answers ---------------------------
  AccuracyPhase(setup, stream, stream.size(), outs, report);
  // A freshly built unsharded engine answers identically.
  lshensemble::LshEnsembleBuilder builder(ServingOptions().base.base,
                                          setup.family);
  for (size_t i = 0; i < setup.corpus.size(); ++i) {
    const auto& d = setup.corpus.domain(i);
    if (!builder.Add(d.id, d.size(), setup.sketches[i]).ok()) {
      report->Fail("batch-scan: builder Add failed");
      return false;
    }
  }
  auto fresh = std::move(builder).Build();
  if (!fresh.ok()) {
    report->Fail("batch-scan: fresh Build: " + fresh.status().ToString());
    return false;
  }
  Answers fresh_outs(specs.size());
  lshensemble::QueryContext ctx;
  if (!fresh.value().BatchQuery(specs, &ctx, fresh_outs.data()).ok()) {
    report->Fail("batch-scan: fresh BatchQuery failed");
    return false;
  }
  if (const CheckResult c =
          CheckSameIdSets("sharded engine", outs, "fresh unsharded LshEnsemble",
                          fresh_outs);
      !c.ok) {
    report->Fail("batch-scan: " + c.detail);
  }
  return true;
}

}  // namespace layerbench
