// churn: writes beside reads on an in-process ShardedEnsemble opened from
// the set-up snapshot. One thread interleaves Insert(id, raw values),
// Remove(oldest live id) and BatchQuery batches that include the
// just-inserted domains; every round crosses the auto-rebuild trigger
// exactly once, and is followed by the side phases on a static open of
// the same snapshot. The first round (whose rebuild also materializes the
// mapped snapshot) is a warm-up; the rounds after it are measured.

#include <algorithm>
#include <cstdio>
#include <random>

#include "checks.h"
#include "core/lsh_ensemble.h"
#include "data/sketcher.h"
#include "trace.h"
#include "workloads.h"

namespace layerbench {

std::shared_ptr<const ChurnDriver::InsertPool> ChurnDriver::MakeInsertPool(
    const Setup& setup) {
  auto pool = std::make_shared<InsertPool>();
  pool->corpus = MakeCorpus(kInsertPool, kCorpusSeed + 1);
  pool->sketches =
      lshensemble::ParallelSketcher(setup.family).SketchCorpus(pool->corpus);
  return pool;
}

ChurnDriver::ChurnDriver(Setup* setup, ShardedEnsemble* engine, uint64_t seed,
                         Report* report,
                         std::shared_ptr<const InsertPool> pool)
    : setup_(setup),
      engine_(engine),
      report_(report),
      pool_(pool ? std::move(pool) : MakeInsertPool(*setup)) {
  corpus_stream_ = IndexedStream(*setup, 4096, seed + 7);
  std::mt19937_64 rng(seed * 0xFF51AFD7ED558CCDull + 3);
  const size_t n = setup->corpus.size();
  corpus_live_.assign(n, 1);
  std::vector<uint64_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  live_queue_.assign(order.begin(), order.end());
}

bool ChurnDriver::IsLive(uint64_t id) const {
  if (id < corpus_live_.size()) return corpus_live_[id] != 0;
  return new_live_.count(id) != 0;
}

bool ChurnDriver::RunRound(RoundStats* stats, uint64_t max_inserts) {
  ScopedSpan round_span("bench.churn_round");
  std::vector<QuerySpec> specs;
  std::vector<uint64_t> self_ids;
  Answers outs(kRecentQueries + kCorpusQueries);
  OpCounts& inserts = report_->Op("insert");
  OpCounts& removes = report_->Op("remove");
  OpCounts& queries = report_->Op("threshold");
  for (size_t i = 1;; ++i) {
    const uint64_t k = next_insert_++;
    const uint64_t id = kNewIdBase + k;
    const auto& values = pool_->corpus.domain(k % kInsertPool).values;
    uint64_t t0 = NowNs();
    lshensemble::Status st;
    {
      ScopedSpan span("core.ShardedEnsemble::Insert");
      st = engine_->Insert(id, values);
    }
    double dt = (NowNs() - t0) * 1e-9;
    ++inserts.attempted;
    if (!st.ok()) {
      ++inserts.failed;
      report_->Fail("Insert: " + st.ToString());
      return false;
    }
    ++stats->inserts;
    stats->insert_s += dt;
    live_queue_.push_back(id);
    new_live_.insert(id);
    const bool crossed = engine_->delta_size() == 0;
    if (crossed) {
      ++stats->rebuilds;
      stats->rebuild_s += dt;
    }

    const uint64_t victim = live_queue_.front();
    live_queue_.pop_front();
    t0 = NowNs();
    {
      ScopedSpan span("core.ShardedEnsemble::Remove");
      st = engine_->Remove(victim);
    }
    dt = (NowNs() - t0) * 1e-9;
    ++removes.attempted;
    if (!st.ok()) {
      ++removes.failed;
      report_->Fail("Remove: " + st.ToString());
      return false;
    }
    ++stats->removes;
    stats->remove_s += dt;
    if (victim < corpus_live_.size()) {
      corpus_live_[victim] = 0;
    } else {
      new_live_.erase(victim);
    }
    removed_.insert(victim);

    if (i % kQueryEvery == 0) {
      specs.clear();
      self_ids.clear();
      for (size_t r = 0; r < kRecentQueries; ++r) {
        const uint64_t kr = k + 1 - kRecentQueries + r;
        const size_t p = kr % kInsertPool;
        QuerySpec spec;
        spec.query = &pool_->sketches[p];
        spec.query_size = pool_->corpus.domain(p).size();
        spec.t_star = kTStarMix[r % (sizeof(kTStarMix) / sizeof(double))];
        specs.push_back(spec);
        self_ids.push_back(kNewIdBase + kr);
      }
      for (size_t c = 0; c < kCorpusQueries; ++c) {
        const StreamQuery& q = corpus_stream_[corpus_cursor_];
        corpus_cursor_ = (corpus_cursor_ + 1) % corpus_stream_.size();
        specs.push_back({q.sketch, q.size, q.t_star});
        self_ids.push_back(kNoSelf);  // the corpus domain may be removed
      }
      t0 = NowNs();
      {
        ScopedSpan span("core.ShardedEnsemble::BatchQuery");
        st = engine_->BatchQuery(specs, outs.data());
      }
      dt = (NowNs() - t0) * 1e-9;
      queries.attempted += specs.size();
      if (!st.ok()) {
        queries.failed += specs.size();
        report_->Fail("BatchQuery: " + st.ToString());
        return false;
      }
      stats->queries += specs.size();
      stats->query_s += dt;
      for (const CheckResult& c :
           {CheckSelfHits(self_ids, outs), CheckNoRemoved(outs, removed_),
            CheckLiveUnique(outs, [this](uint64_t x) { return IsLive(x); })}) {
        if (!c.ok) report_->Fail("churn: " + c.detail);
      }
    }
    if (crossed || i >= max_inserts) return true;
  }
}

bool ChurnDriver::FinalCheck(double* flush_s) {
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span("core.ShardedEnsemble::Flush");
    const auto st = engine_->Flush();
    if (!st.ok()) {
      report_->Fail("Flush: " + st.ToString());
      return false;
    }
  }
  *flush_s = (NowNs() - t0) * 1e-9;

  const auto& family = setup_->family;
  const auto m = static_cast<size_t>(family->num_hashes());
  lshensemble::LshEnsembleBuilder builder(ServingOptions().base.base, family);
  bool add_ok = true;
  engine_->ForEachLiveRecord(
      [&](uint64_t id, size_t size, lshensemble::SignatureView sig) {
        auto sketch = MinHash::FromSlots(
            family, std::vector<uint64_t>(sig.values, sig.values + m));
        if (!sketch.ok() ||
            !builder.Add(id, size, std::move(sketch).value()).ok()) {
          add_ok = false;
        }
      });
  auto fresh = std::move(builder).Build();
  if (!add_ok || !fresh.ok()) {
    report_->Fail("fresh LshEnsembleBuilder index over survivors failed");
    return false;
  }

  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < 1024 && i < corpus_stream_.size(); ++i) {
    const StreamQuery& q = corpus_stream_[i];
    specs.push_back({q.sketch, q.size, q.t_star});
  }
  for (size_t r = 0; r < 256 && r < next_insert_; ++r) {
    const uint64_t kr = next_insert_ - 1 - r;
    const size_t p = kr % kInsertPool;
    specs.push_back({&pool_->sketches[p], pool_->corpus.domain(p).size(), 0.5});
  }
  Answers engine_outs(specs.size());
  Answers fresh_outs(specs.size());
  lshensemble::QueryContext ctx;
  const auto a = engine_->BatchQuery(specs, engine_outs.data());
  const auto b = fresh.value().BatchQuery(specs, &ctx, fresh_outs.data());
  if (!a.ok() || !b.ok()) {
    report_->Fail("final BatchQuery failed");
    return false;
  }
  for (const CheckResult& c :
       {CheckSameIdSets("sharded engine after Flush", engine_outs,
                        "fresh LshEnsembleBuilder index", fresh_outs),
        CheckNoRemoved(engine_outs, removed_),
        CheckLiveUnique(engine_outs,
                        [this](uint64_t x) { return IsLive(x); })}) {
    if (!c.ok) report_->Fail("churn final: " + c.detail);
  }
  return true;
}

ChurnSideSampler::ChurnSideSampler(Setup* setup, uint64_t seed,
                                   Report* report)
    : setup_(setup),
      seed_(seed),
      report_(report),
      pool_(ChurnDriver::MakeInsertPool(*setup)) {}

bool ChurnSideSampler::Step(uint64_t inserts) {
  ScopedSpan span("bench.churn_side_step");
  lshensemble::SnapshotOpenOptions open_options;
  open_options.verify_checksums = false;  // the serving open verified it
  auto opened = ShardedEnsemble::OpenSnapshot(
      setup_->snapshot_dir, ServingOptions(), open_options);
  if (!opened.ok()) {
    report_->Fail("OpenSnapshot: " + opened.status().ToString());
    return false;
  }
  ShardedEnsemble engine = std::move(opened).value();
  ChurnDriver driver(setup_, &engine, seed_, report_, pool_);
  ChurnDriver::RoundStats stats;
  if (!driver.RunRound(&stats, inserts)) return false;
  if (stats.rebuilds != 0) {
    report_->Fail("churn side step crossed the rebuild trigger");
  }
  insert_rate_.push_back(stats.inserts / stats.insert_s);
  query_rate_.push_back(stats.queries / stats.query_s);
  return true;
}

void ChurnSideSampler::ResetSamples() {
  insert_rate_.clear();
  query_rate_.clear();
}

void ChurnSideSampler::Finish() {
  if (insert_rate_.empty() || query_rate_.empty()) {
    report_->Fail("churn side: no measured steps");
    return;
  }
  report_->Set("insert_per_s", Median(insert_rate_), "inserts/s");
  report_->Set("churn_query_qps", Median(query_rate_), "queries/s");
}

bool RunChurn(const Args& args, Report* report) {
  Setup setup;
  if (!RunSetup(kOpenDataDomains, args, &setup, report)) return false;
  SetSetupMetrics(setup, report);
  if (args.trace) {
    const auto stream = IndexedStream(setup, 4096, args.seed);
    const auto topk = IndexedStream(setup, 256, args.seed + 1);
    return RunLedger(&setup, stream, topk, args, report);
  }
  // The churn stream mutates the set-up engine; the side phases serve and
  // batch-query a second, static open of the same snapshot, so their
  // expected answers hold for the whole run.
  auto opened =
      ShardedEnsemble::OpenSnapshot(setup.snapshot_dir, ServingOptions());
  if (!opened.ok()) {
    report->Fail("OpenSnapshot: " + opened.status().ToString());
    return false;
  }
  const ShardedEnsemble static_engine = std::move(opened).value();
  const Traffic traffic(setup, args.seed);
  BatchSampler batch(static_engine, ToSpecs(traffic.threshold), report);
  ServeSampler serve(static_engine, traffic, report);
  OpenSampler open(setup, report);
  ChurnDriver churn(&setup, setup.engine.get(), args.seed, report);
  if (!serve.Start()) return false;

  // A round: one churn round (it ends with the insert that crosses the
  // rebuild trigger), then the side phases. insert_per_s and
  // churn_query_qps: medians over rounds of each round's inserts per
  // second (rebuild included) and queries per second.
  ChurnDriver::RoundStats total;
  std::vector<double> round_insert_rate;
  std::vector<double> round_query_rate;
  const int rounds = RunRounds(
      args.seconds,
      [&] {
        ChurnDriver::RoundStats s;
        if (!churn.RunRound(&s)) return false;
        round_insert_rate.push_back(s.inserts / s.insert_s);
        round_query_rate.push_back(s.queries / s.query_s);
        total.inserts += s.inserts;
        total.removes += s.removes;
        total.queries += s.queries;
        total.rebuilds += s.rebuilds;
        total.insert_s += s.insert_s;
        total.remove_s += s.remove_s;
        total.query_s += s.query_s;
        total.rebuild_s += s.rebuild_s;
        return serve.ClosedSlice(0.01 * args.seconds) &&
               serve.OpenSlice(0.015 * args.seconds) && batch.Batch() &&
               open.Open() && open.Open();
      },
      [&] {
        total = ChurnDriver::RoundStats{};
        round_insert_rate.clear();
        round_query_rate.clear();
        batch.ResetSamples();
        serve.ResetSamples();
        open.ResetSamples();
      });
  if (rounds < 0 || !serve.Finish()) return false;
  report->Set("insert_per_s", Median(round_insert_rate), "inserts/s");
  report->Set("churn_query_qps", Median(round_query_rate), "queries/s");
  double flush_s = 0;
  if (!churn.FinalCheck(&flush_s)) return false;
  std::printf(
      "churn: %d measured rounds after one warm-up round: %llu inserts "
      "%.3fs (rebuilds %llu, %.3fs), %llu removes %.3fs, %llu queries "
      "%.3fs; final Flush %.3fs\n",
      rounds, static_cast<unsigned long long>(total.inserts), total.insert_s,
      static_cast<unsigned long long>(total.rebuilds), total.rebuild_s,
      static_cast<unsigned long long>(total.removes), total.remove_s,
      static_cast<unsigned long long>(total.queries), total.query_s,
      flush_s);
  if (total.rebuilds != static_cast<uint64_t>(rounds)) {
    report->Fail("churn: each round must cross the rebuild trigger once");
  }
  batch.Finish();
  open.Finish();
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  AccuracyPhase(setup, traffic.threshold, traffic.indexed.size(),
                batch.outs(), report);
  return true;
}

}  // namespace layerbench
