// The traced run: one corpus and one query stream answered at every layer
// — kernel descent, LshForest probe, LshEnsemble, DynamicLshEnsemble,
// ShardedEnsemble at S = 1, 2, 4, and the loopback wire — with a check
// that every layer returns the same id set for every query, so each
// layer's self cost is a subtraction. Per-layer counters (QueryStats) are
// gathered in calls kept apart from the timed ones, because passing stats
// changes the engine's execution path.

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "checks.h"
#include "core/dynamic_ensemble.h"
#include "data/sketcher.h"
#include "filter/probe_filter.h"
#include "io/snapshot.h"
#include "lsh/lsh_forest.h"
#include "minhash/hash_kernel.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace layerbench {

namespace {

namespace serve = lshensemble::serve;
using lshensemble::DynamicLshEnsemble;
using lshensemble::LshEnsemble;
using lshensemble::LshForest;
using lshensemble::ProbeFilter;
using lshensemble::QueryContext;
using lshensemble::QueryStats;
using lshensemble::Status;

/// Every timed layer runs for at least this long (and 3 repeats).
constexpr double kMinLayerSeconds = 0.3;
constexpr size_t kWireWindow = 64;
constexpr size_t kDeltaInserts = 2048;
constexpr size_t kTombstones = 1024;
constexpr int kOpenRepeats = 5;
/// Index of the LshEnsemble row in the ledger: the layer every other
/// layer's answers are compared with.
constexpr size_t kReferenceLayer = 2;

/// Median seconds of `fn` over repeats totalling >= kMinLayerSeconds.
template <typename Fn>
double MedianSeconds(Fn&& fn) {
  std::vector<double> samples;
  const uint64_t start = NowNs();
  do {
    const uint64_t t0 = NowNs();
    fn();
    samples.push_back((NowNs() - t0) * 1e-9);
  } while (samples.size() < 3 || (NowNs() - start) * 1e-9 < kMinLayerSeconds);
  return Median(samples);
}

/// One probed (query, partition) pair of the ledger's plan.
struct Probe {
  uint32_t partition;
  int b;
  int r;
};

/// Partition index of a domain size (partitions are ascending, disjoint).
size_t PartitionOf(const std::vector<lshensemble::PartitionSpec>& parts,
                   uint64_t size) {
  size_t lo = 0;
  size_t hi = parts.size();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (parts[mid].lower <= size) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

class Ledger {
 public:
  Ledger(Setup* setup, const std::vector<StreamQuery>& stream,
         const std::vector<StreamQuery>& topk, const Args& args,
         Report* report)
      : setup_(setup),
        stream_(stream),
        topk_(topk),
        args_(args),
        report_(report),
        specs_(ToSpecs(stream)) {}

  bool Run();

 private:
  bool Check(const CheckResult& c) {
    if (!c.ok) report_->Fail("ledger: " + c.detail);
    return c.ok;
  }
  bool Ok(const Status& st, const char* what) {
    if (!st.ok()) report_->Fail(std::string(what) + ": " + st.ToString());
    return st.ok();
  }
  void Set(const char* name, double value, const char* unit) {
    report_->Set(name, value, unit);
  }
  /// Record a layer's answers and its per-query seconds for the ledger.
  void Layer(const std::string& name, Answers answers, double per_query_s) {
    layers_.push_back({name, std::move(answers), per_query_s});
  }

  bool SetupAndIo();
  bool BuildDynamic();
  bool PlanAndTune();
  bool ForestLayers();
  bool EngineLayers();
  bool ShardedLayers();
  bool TopK();
  bool Wire();
  bool CompareLayers();
  bool TraceOverhead();
  bool DynamicChurnState();
  bool RebuildRound();
  void PrintLedger() const;

  Setup* setup_;
  const std::vector<StreamQuery>& stream_;
  const std::vector<StreamQuery>& topk_;
  const Args& args_;
  Report* report_;
  std::vector<QuerySpec> specs_;

  std::unique_ptr<DynamicLshEnsemble> dyn_;
  const LshEnsemble* ens_ = nullptr;
  std::vector<std::vector<Probe>> plan_;  // per query
  struct LayerRow {
    std::string name;
    Answers answers;
    double per_query_s;
  };
  std::vector<LayerRow> layers_;
  double ensemble_b4096_s_ = 0;  // per query
  double overhead_ns_per_span_ = 0;
};

bool Ledger::SetupAndIo() {
  const Setup& s = *setup_;
  Set("minhash.sketch_ns_per_value", s.sketch_s * 1e9 / s.total_values, "ns");
  Set("core.bulk_load_s", s.insert_s + s.flush_s, "s");
  Set("core.bulk_rebuilds", static_cast<double>(s.bulk_rebuilds), "count");
  Set("io.save_s", s.save_s, "s");
  Set("io.snapshot_bytes", static_cast<double>(s.snapshot_bytes), "bytes");
  for (const bool verify : {true, false}) {
    ScopedSpan span(verify ? "io.ShardedEnsemble::OpenSnapshot(verify)"
                           : "io.ShardedEnsemble::OpenSnapshot(noverify)");
    lshensemble::SnapshotOpenOptions open_options;
    open_options.verify_checksums = verify;
    std::vector<double> ms;
    for (int rep = 0; rep < kOpenRepeats; ++rep) {
      const uint64_t t0 = NowNs();
      auto opened = ShardedEnsemble::OpenSnapshot(
          s.snapshot_dir, ServingOptions(), open_options);
      ms.push_back((NowNs() - t0) * 1e-6);
      if (!Ok(opened.status(), "OpenSnapshot")) return false;
    }
    Set(verify ? "io.open_verify_ms" : "io.open_noverify_ms", Median(ms), "ms");
  }
  return true;
}

bool Ledger::BuildDynamic() {
  ScopedSpan span("core.DynamicLshEnsemble(build)");
  lshensemble::DynamicEnsembleOptions options;
  options.min_delta_for_rebuild = SIZE_MAX;  // bulk load: one Flush
  auto created = DynamicLshEnsemble::Create(options, setup_->family);
  if (!Ok(created.status(), "DynamicLshEnsemble::Create")) return false;
  dyn_ = std::make_unique<DynamicLshEnsemble>(std::move(created).value());
  for (size_t i = 0; i < setup_->corpus.size(); ++i) {
    const auto& d = setup_->corpus.domain(i);
    if (!Ok(dyn_->Insert(d.id, d.size(), setup_->sketches[i]), "Insert")) {
      return false;
    }
  }
  if (!Ok(dyn_->Flush(), "DynamicLshEnsemble::Flush")) return false;
  ens_ = dyn_->indexed();
  return ens_ != nullptr;
}

bool Ledger::PlanAndTune() {
  const auto& parts = ens_->partitions();
  plan_.assign(stream_.size(), {});
  auto plan = [&] {
    ScopedSpan span("core.LshEnsemble::TuneForPartition");
    for (size_t i = 0; i < stream_.size(); ++i) {
      plan_[i].clear();
      const auto q = static_cast<double>(stream_[i].size);
      for (size_t p = 0; p < parts.size(); ++p) {
        // The engine's prune rule: the partition's largest domain cannot
        // reach t* * q.
        const auto max_size = static_cast<double>(parts[p].upper - 1);
        if (max_size + 1e-9 < stream_[i].t_star * q) continue;
        auto tuned = ens_->TuneForPartition(p, q, stream_[i].t_star);
        if (!tuned.ok()) return false;
        plan_[i].push_back({static_cast<uint32_t>(p), tuned.value().b,
                            tuned.value().r});
      }
    }
    return true;
  };
  bool ok = true;
  const double s = MedianSeconds([&] { ok = ok && plan(); });
  if (!ok) {
    report_->Fail("TuneForPartition failed");
    return false;
  }
  Set("core.tune_us_per_query", s * 1e6 / stream_.size(), "us");
  return true;
}

bool Ledger::ForestLayers() {
  const auto& parts = ens_->partitions();
  const lshensemble::LshEnsembleOptions& opt = ens_->options();
  const int depth = opt.tree_depth;
  const int num_trees = opt.num_hashes / depth;

  // The benchmark's own forests, one per partition, from the records the
  // partition's size interval holds.
  std::vector<LshForest> forests;
  {
    ScopedSpan span("lsh.LshForest::Index(rebuild)");
    for (size_t p = 0; p < parts.size(); ++p) {
      auto forest = LshForest::Create(num_trees, depth);
      if (!Ok(forest.status(), "LshForest::Create")) return false;
      forests.push_back(std::move(forest).value());
    }
    for (size_t i = 0; i < setup_->corpus.size(); ++i) {
      const auto& d = setup_->corpus.domain(i);
      const size_t p = PartitionOf(parts, d.size());
      if (!Ok(forests[p].Add(d.id, setup_->sketches[i]), "LshForest::Add")) {
        return false;
      }
    }
    for (auto& f : forests) f.Index();
  }

  // Kernel layer: lower_bound_many + refine_prefix_range on the public
  // arenas, then the entry permutation to ids.
  const lshensemble::HashKernelOps& kernel = lshensemble::ActiveKernelOps();
  std::vector<uint32_t> trees(num_trees);
  for (int t = 0; t < num_trees; ++t) trees[t] = static_cast<uint32_t>(t);
  std::vector<uint32_t> keys0(num_trees);
  std::vector<uint32_t> lo(num_trees);
  std::vector<uint32_t> hi(num_trees);
  std::vector<uint32_t> prefix(depth);
  std::vector<std::vector<uint8_t>> slot0_hit(stream_.size());
  std::vector<uint32_t> marks;
  uint32_t stamp = 0;
  uint64_t trees_probed = 0;
  auto kernel_pass = [&](Answers* answers) {
    for (size_t i = 0; i < stream_.size(); ++i) {
      const auto& mins = stream_[i].sketch->values();
      if (answers != nullptr) {
        (*answers)[i].clear();
        slot0_hit[i].assign(plan_[i].size(), 0);
      }
      for (size_t j = 0; j < plan_[i].size(); ++j) {
        const Probe& pb = plan_[i][j];
        const LshForest& f = forests[pb.partition];
        const auto n = static_cast<uint32_t>(f.size());
        for (int t = 0; t < pb.b; ++t) {
          keys0[t] =
              LshForest::TruncateHash(mins[static_cast<size_t>(t) * depth]);
          lo[t] = 0;
          hi[t] = n;
        }
        kernel.lower_bound_many(f.first_key_arena().data(), n, trees.data(),
                                keys0.data(), static_cast<size_t>(pb.b),
                                lo.data(), hi.data());
        if (answers == nullptr) trees_probed += pb.b;
        if (answers != nullptr && ++stamp == 0) {
          std::fill(marks.begin(), marks.end(), 0);
          stamp = 1;
        }
        for (int t = 0; t < pb.b; ++t) {
          size_t l = lo[t];
          size_t h = hi[t];
          if (l >= h) continue;
          if (answers != nullptr) slot0_hit[i][j] = 1;
          if (pb.r > 1) {
            prefix[0] = keys0[t];
            for (int d = 1; d < pb.r; ++d) {
              prefix[d] = LshForest::TruncateHash(
                  mins[static_cast<size_t>(t) * depth + d]);
            }
            kernel.refine_prefix_range(
                f.key_arena().data() + static_cast<size_t>(t) * n * depth,
                depth, prefix.data(), pb.r, &l, &h);
          }
          if (answers == nullptr) continue;
          const uint32_t* entries =
              f.entry_arena().data() + static_cast<size_t>(t) * n;
          for (size_t pos = l; pos < h; ++pos) {
            const uint32_t e = entries[pos];
            if (marks[e] != stamp) {
              marks[e] = stamp;
              (*answers)[i].push_back(f.id_array()[e]);
            }
          }
        }
      }
    }
  };
  size_t max_n = 0;
  for (const auto& f : forests) max_n = std::max(max_n, f.size());
  marks.assign(max_n, 0);
  Answers kernel_answers(stream_.size());
  kernel_pass(&kernel_answers);
  double descent_s = 0;
  {
    ScopedSpan span("minhash.HashKernelOps::lower_bound_many+refine");
    descent_s = MedianSeconds([&] {
      trees_probed = 0;
      kernel_pass(nullptr);
    });
  }
  Set("minhash.descent_ns_per_tree",
      trees_probed == 0 ? 0.0 : descent_s * 1e9 / trees_probed, "ns");

  // lsh layer: LshForest::Probe at the tuned (b, r).
  Answers probe_answers(stream_.size());
  LshForest::ProbeScratch scratch;
  bool ok = true;
  double probe_s = 0;
  {
    ScopedSpan span("lsh.LshForest::Probe");
    probe_s = MedianSeconds([&] {
      for (size_t i = 0; i < stream_.size(); ++i) {
        probe_answers[i].clear();
        for (const Probe& pb : plan_[i]) {
          ok = ok && forests[pb.partition]
                         .Probe(*stream_[i].sketch, pb.b, pb.r, &scratch,
                                &probe_answers[i])
                         .ok();
        }
      }
    });
  }
  if (!ok) {
    report_->Fail("LshForest::Probe failed");
    return false;
  }
  uint64_t candidates = 0;
  for (const auto& a : probe_answers) candidates += a.size();
  Set("lsh.probe_us_per_query", probe_s * 1e6 / stream_.size(), "us");
  Set("lsh.candidates_per_query",
      static_cast<double>(candidates) / stream_.size(), "count");
  Layer("kernel lower_bound_many+refine", std::move(kernel_answers),
        descent_s / stream_.size());
  Layer("lsh LshForest::Probe", std::move(probe_answers),
        probe_s / stream_.size());

  // filter layer, from the engine's own filters on the stream's keys.
  const auto filters = ens_->partition_probe_filters();
  const ProbeFilter* engine_filter = ens_->engine_probe_filter();
  uint64_t pairs = 0, admits = 0, false_admits = 0, rejects = 0,
           admitted_trees = 0;
  std::vector<uint64_t> hashes(num_trees);
  for (size_t i = 0; i < stream_.size(); ++i) {
    const auto& mins = stream_[i].sketch->values();
    for (int t = 0; t < num_trees; ++t) {
      hashes[t] = ProbeFilter::HashKey(ProbeFilter::ProbeKey(
          static_cast<uint32_t>(t),
          LshForest::TruncateHash(mins[static_cast<size_t>(t) * depth])));
    }
    if (engine_filter != nullptr) {
      bool any = false;
      for (int t = 0; t < num_trees && !any; ++t) {
        any = engine_filter->MayContainHash(hashes[t]);
      }
      if (!any) ++rejects;
    }
    for (size_t j = 0; j < plan_[i].size(); ++j) {
      const Probe& pb = plan_[i][j];
      bool admitted = filters.empty();
      for (int t = 0; t < pb.b && !admitted; ++t) {
        admitted = filters[pb.partition].MayContainHash(hashes[t]);
      }
      ++pairs;
      if (!admitted) continue;
      ++admits;
      admitted_trees += pb.b;
      if (!slot0_hit[i][j]) ++false_admits;
    }
  }
  Set("filter.partition_admit_ratio",
      pairs == 0 ? 0.0 : static_cast<double>(admits) / pairs, "ratio");
  Set("filter.false_admit_ratio",
      admits == 0 ? 0.0 : static_cast<double>(false_admits) / admits,
      "ratio");
  Set("filter.engine_reject_ratio",
      static_cast<double>(rejects) / stream_.size(), "ratio");

  // Counters from a separate stats call (see file comment).
  QueryContext ctx;
  Answers outs(stream_.size());
  std::vector<QueryStats> stats(stream_.size());
  {
    ScopedSpan span("core.LshEnsemble::BatchQuery(stats)");
    if (!Ok(ens_->BatchQuery(specs_, &ctx, outs.data(), stats.data()),
            "BatchQuery(stats)")) {
      return false;
    }
  }
  uint64_t probed = 0, pruned = 0, hits = 0;
  for (const QueryStats& s : stats) {
    probed += s.partitions_probed;
    pruned += s.partitions_pruned;
    hits += s.slot0_cache_hits;
  }
  Set("core.partitions_probed_per_query",
      static_cast<double>(probed) / stream_.size(), "count");
  Set("core.partitions_pruned_per_query",
      static_cast<double>(pruned) / stream_.size(), "count");
  Set("lsh.slot0_cache_hit_ratio",
      admitted_trees == 0 ? 0.0 : static_cast<double>(hits) / admitted_trees,
      "ratio");
  return true;
}

bool Ledger::EngineLayers() {
  QueryContext ctx;
  Answers outs(stream_.size());
  bool ok = true;
  double batch_s = 0;
  {
    ScopedSpan span("core.LshEnsemble::BatchQuery(b4096)");
    batch_s = MedianSeconds(
        [&] { ok = ok && ens_->BatchQuery(specs_, &ctx, outs.data()).ok(); });
  }
  double single_s = 0;
  {
    ScopedSpan span("core.LshEnsemble::BatchQuery(b1)");
    single_s = MedianSeconds([&] {
      for (size_t i = 0; i < specs_.size(); ++i) {
        ok = ok && ens_->BatchQuery({&specs_[i], 1}, &ctx, &outs[i]).ok();
      }
    });
  }
  ensemble_b4096_s_ = batch_s / specs_.size();
  Set("core.ensemble_qps_b4096", specs_.size() / batch_s, "queries/s");
  Set("core.ensemble_qps_b1", specs_.size() / single_s, "queries/s");
  Layer("core LshEnsemble::BatchQuery", std::move(outs), ensemble_b4096_s_);

  Answers dyn_outs(stream_.size());
  double dyn_s = 0;
  {
    ScopedSpan span("core.DynamicLshEnsemble::BatchQuery(flushed)");
    dyn_s = MedianSeconds([&] {
      ok = ok && dyn_->BatchQuery(specs_, &ctx, dyn_outs.data()).ok();
    });
  }
  Layer("core DynamicLshEnsemble::BatchQuery", std::move(dyn_outs),
        dyn_s / specs_.size());
  if (!ok) report_->Fail("engine BatchQuery failed");
  return ok;
}

bool Ledger::ShardedLayers() {
  bool ok = true;
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
    std::unique_ptr<ShardedEnsemble> built;
    const ShardedEnsemble* engine = setup_->engine.get();
    if (shards != kShards) {
      ScopedSpan span("core.ShardedEnsemble(build)");
      ShardedEnsembleOptions options = ServingOptions();
      options.num_shards = shards;
      options.base.min_delta_for_rebuild = SIZE_MAX;
      auto created = ShardedEnsemble::Create(options, setup_->family);
      if (!Ok(created.status(), "ShardedEnsemble::Create")) return false;
      built = std::make_unique<ShardedEnsemble>(std::move(created).value());
      for (size_t i = 0; i < setup_->corpus.size(); ++i) {
        const auto& d = setup_->corpus.domain(i);
        if (!Ok(built->Insert(d.id, d.size(), setup_->sketches[i]),
                "Insert")) {
          return false;
        }
      }
      if (!Ok(built->Flush(), "Flush")) return false;
      engine = built.get();
    }
    Answers outs(stream_.size());
    double s = 0;
    {
      ScopedSpan span("core.ShardedEnsemble::BatchQuery");
      s = MedianSeconds(
          [&] { ok = ok && engine->BatchQuery(specs_, outs.data()).ok(); });
    }
    const std::string metric = "core.sharded_qps_s" + std::to_string(shards);
    report_->Set(metric, specs_.size() / s, "queries/s");
    if (shards == kShards) {
      Set("core.shard_gather_us_per_query",
          (s / specs_.size() - ensemble_b4096_s_) * 1e6, "us");
      // The stats observer effect: the same batch with stats requested.
      std::vector<QueryStats> stats(specs_.size());
      Answers stats_outs(specs_.size());
      double with_stats = 0;
      {
        ScopedSpan span("core.ShardedEnsemble::BatchQuery(stats)");
        with_stats = MedianSeconds([&] {
          ok = ok &&
               engine->BatchQuery(specs_, stats_outs.data(), stats.data()).ok();
        });
      }
      const double plain = MedianSeconds(
          [&] { ok = ok && engine->BatchQuery(specs_, outs.data()).ok(); });
      Set("core.stats_observer_slowdown", with_stats / plain, "ratio");
      Check(CheckSameIdSets("sharded with stats", stats_outs,
                            "sharded without stats", outs));
    }
    Layer("core ShardedEnsemble::BatchQuery S=" + std::to_string(shards),
          std::move(outs), s / specs_.size());
  }
  if (!ok) report_->Fail("sharded BatchQuery failed");
  return ok;
}

bool Ledger::TopK() {
  std::vector<TopKQuery> queries;
  for (const StreamQuery& q : topk_) queries.push_back({q.sketch, q.size, 0});
  std::vector<std::vector<TopKResult>> outs(queries.size());
  bool ok = true;
  double s = 0;
  {
    ScopedSpan span("core.ShardedEnsemble::BatchSearch");
    s = MedianSeconds([&] {
      ok = ok &&
           setup_->engine->BatchSearch(queries, kTopK, outs.data()).ok();
    });
  }
  if (!ok) {
    report_->Fail("BatchSearch failed");
    return false;
  }
  report_->Op("topk").attempted += queries.size();
  Check(CheckTopKOrder(outs));
  Set("core.topk_us_per_query", s * 1e6 / queries.size(), "us");
  return true;
}

bool Ledger::Wire() {
  const std::shared_ptr<const ShardedEnsemble> serving(
      setup_->engine.get(), [](const ShardedEnsemble*) {});
  serve::ServerOptions options;
  auto server = serve::Server::Start(options, [serving] { return serving; });
  if (!Ok(server.status(), "Server::Start")) return false;
  auto client = serve::Client::Connect("127.0.0.1", server.value()->port());
  if (!Ok(client.status(), "Client::Connect")) return false;
  serve::Client& c = client.value();

  std::vector<double> rtt;
  {
    ScopedSpan span("serve.Client::Stats");
    for (int i = 0; i < 200; ++i) {
      const uint64_t t0 = NowNs();
      auto stats = c.Stats();
      rtt.push_back((NowNs() - t0) * 1e-3);
      if (!Ok(stats.status(), "Client::Stats")) return false;
    }
  }
  Set("serve.stats_rtt_us", Median(rtt), "us");

  // Pipelined windows of kWireWindow threshold queries over one
  // connection; every answer is kept for the ledger comparison.
  const uint64_t seed = setup_->family->seed();
  Answers wire(stream_.size());
  uint64_t next_id = 1;
  auto pass = [&]() -> bool {
    for (size_t at = 0; at < stream_.size(); at += kWireWindow) {
      const size_t end = std::min(stream_.size(), at + kWireWindow);
      std::string frames;
      const uint64_t base = next_id;
      for (size_t i = at; i < end; ++i) {
        serve::QueryRequest req;
        req.request_id = next_id++;
        req.family_seed = seed;
        req.t_star = stream_[i].t_star;
        req.query_size = stream_[i].size;
        req.slots = stream_[i].sketch->values();
        serve::EncodeQueryRequest(req, &frames);
      }
      if (!c.SendFrames(frames).ok()) return false;
      for (size_t i = at; i < end; ++i) {
        auto msg = c.ReceiveMessage();
        if (!msg.ok() ||
            msg.value().type != serve::MessageType::kQueryResponse) {
          return false;
        }
        const uint64_t id = msg.value().query_response.request_id;
        if (id < base || id >= base + (end - at)) return false;
        wire[at + (id - base)] = std::move(msg.value().query_response.ids);
      }
    }
    return true;
  };
  if (!pass()) {
    report_->Fail("wire pass failed");
    return false;
  }
  const auto& m = server.value()->metrics();
  const uint64_t waves0 = m.batch_fill.count();
  const uint64_t fill0 = m.batch_fill.sum();
  bool ok = true;
  double wire_s = 0;
  {
    ScopedSpan span("serve.Client(pipelined)");
    wire_s = MedianSeconds([&] { ok = ok && pass(); });
  }
  const uint64_t waves = m.batch_fill.count() - waves0;
  const uint64_t fill = m.batch_fill.sum() - fill0;
  server.value()->Stop();
  if (!ok) {
    report_->Fail("wire pass failed");
    return false;
  }

  // In-process sharded time at the same wave size.
  Answers outs(kWireWindow);
  const double inproc_s = MedianSeconds([&] {
    for (size_t at = 0; at < specs_.size(); at += kWireWindow) {
      const size_t len = std::min(kWireWindow, specs_.size() - at);
      ok = ok &&
           setup_->engine->BatchQuery({&specs_[at], len}, outs.data()).ok();
    }
  });
  Set("serve.wire_us_per_query",
      (wire_s - inproc_s) * 1e6 / stream_.size(), "us");
  Set("serve.mean_batch_fill",
      waves == 0 ? 0.0 : static_cast<double>(fill) / waves, "count");
  Set("serve.waves", static_cast<double>(waves), "count");

  // Codec cost: request encode + decode, response encode + decode.
  size_t decoded = 0;
  const double codec_s = MedianSeconds([&] {
    std::string frame;
    for (size_t i = 0; i < stream_.size(); ++i) {
      frame.clear();
      serve::QueryRequest req;
      req.request_id = i + 1;
      req.family_seed = seed;
      req.t_star = stream_[i].t_star;
      req.query_size = stream_[i].size;
      req.slots = stream_[i].sketch->values();
      serve::EncodeQueryRequest(req, &frame);
      auto a = serve::DecodeMessage(
          std::string_view(frame).substr(serve::kFrameHeaderBytes));
      serve::QueryResponse resp;
      resp.request_id = i + 1;
      resp.ids = wire[i];
      frame.clear();
      serve::EncodeQueryResponse(resp, &frame);
      auto b = serve::DecodeMessage(
          std::string_view(frame).substr(serve::kFrameHeaderBytes));
      decoded += a.ok() && b.ok();
    }
  });
  if (decoded == 0) report_->Fail("protocol round trip failed");
  Set("serve.encode_decode_ns", codec_s * 1e9 / stream_.size(), "ns");
  Layer("serve loopback wire (window 64)", std::move(wire),
        wire_s / stream_.size());
  return true;
}

bool Ledger::TraceOverhead() {
  // The cost of one span, calibrated on spans that are dropped again,
  // times the spans this run recorded, against the run's wall time.
  constexpr size_t kCalibrationSpans = 100000;
  Tracer& tracer = Tracer::Get();
  const size_t keep = tracer.span_count();
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < kCalibrationSpans; ++i) {
    ScopedSpan span("trace.calibration");
  }
  const double span_ns =
      static_cast<double>(NowNs() - t0) / kCalibrationSpans;
  tracer.Truncate(keep);
  const double wall_ns = static_cast<double>(NowNs() - g_process_start_ns);
  overhead_ns_per_span_ = span_ns;
  Set("trace.overhead_pct", 100.0 * span_ns * keep / wall_ns, "%");
  return true;
}

bool Ledger::DynamicChurnState() {
  ScopedSpan span("bench.dynamic_churn_state");
  const Corpus pool = MakeCorpus(kDeltaInserts, kCorpusSeed + 2);
  const auto pool_sketches =
      lshensemble::ParallelSketcher(setup_->family).SketchCorpus(pool);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (!Ok(dyn_->Insert(kNewIdBase + i, pool.domain(i).values),
            "DynamicLshEnsemble::Insert")) {
      return false;
    }
  }
  std::unordered_set<uint64_t> removed;
  std::mt19937_64 rng(args_.seed * 0xD6E8FEB86659FD93ull + 9);
  while (removed.size() < kTombstones) {
    const uint64_t id = rng() % setup_->corpus.size();
    if (removed.insert(id).second &&
        !Ok(dyn_->Remove(id), "DynamicLshEnsemble::Remove")) {
      return false;
    }
  }
  Set("core.delta_records", static_cast<double>(dyn_->delta_size()), "count");
  Set("core.tombstones", static_cast<double>(dyn_->tombstone_count()),
      "count");

  std::vector<QuerySpec> specs = specs_;
  std::vector<uint64_t> self_ids(specs.size(), kNoSelf);
  for (size_t i = 0; i < 256 && i < pool.size(); ++i) {
    specs.push_back({&pool_sketches[i], pool.domain(i).size(), 0.5});
    self_ids.push_back(kNewIdBase + i);
  }
  QueryContext ctx;
  Answers outs(specs.size());
  bool ok = true;
  double s = 0;
  {
    ScopedSpan span("core.DynamicLshEnsemble::BatchQuery(churned)");
    s = MedianSeconds(
        [&] { ok = ok && dyn_->BatchQuery(specs, &ctx, outs.data()).ok(); });
  }
  if (!ok) {
    report_->Fail("DynamicLshEnsemble::BatchQuery failed");
    return false;
  }
  Set("core.dynamic_qps", specs.size() / s, "queries/s");

  // The indexed part is unchanged, so each stream answer is the static
  // answer minus tombstones plus delta ids only.
  Check(CheckNoRemoved(outs, removed));
  Check(CheckSelfHits(self_ids, outs));
  const Answers& base = layers_[kReferenceLayer].answers;
  for (size_t i = 0; i < specs_.size(); ++i) {
    std::vector<uint64_t> got = Sorted(outs[i]);
    std::vector<uint64_t> want;
    for (uint64_t id : base[i]) {
      if (removed.count(id) == 0) want.push_back(id);
    }
    std::sort(want.begin(), want.end());
    std::vector<uint64_t> extra;
    std::set_difference(got.begin(), got.end(), want.begin(), want.end(),
                        std::back_inserter(extra));
    const bool all_base = std::includes(got.begin(), got.end(), want.begin(),
                                        want.end());
    const bool extra_delta = std::all_of(
        extra.begin(), extra.end(),
        [](uint64_t id) { return id >= kNewIdBase; });
    if (!all_base || !extra_delta) {
      report_->Fail("dynamic churn state: query " + std::to_string(i) +
                    " is not static answer minus tombstones plus delta ids");
      break;
    }
  }

  // The delta scan's kernel on the same pairs.
  const size_t m = static_cast<size_t>(setup_->family->num_hashes());
  std::vector<uint64_t> arena;
  arena.reserve(pool_sketches.size() * m);
  for (const MinHash& sk : pool_sketches) {
    arena.insert(arena.end(), sk.values().begin(), sk.values().end());
  }
  std::vector<uint32_t> counts(pool_sketches.size());
  const lshensemble::HashKernelOps& kernel = lshensemble::ActiveKernelOps();
  uint64_t checksum = 0;
  double scan_s = 0;
  {
    ScopedSpan span("minhash.HashKernelOps::count_collisions_many");
    scan_s = MedianSeconds([&] {
      for (const StreamQuery& q : stream_) {
        kernel.count_collisions_many(q.sketch->values().data(), arena.data(),
                                     m, pool_sketches.size(), counts.data());
        checksum += counts[0];
      }
    });
  }
  // Printing the collision counts keeps the timed scans observable.
  std::printf("delta scan: %zu records x %zu queries, collision checksum "
              "%llu\n",
              pool_sketches.size(), stream_.size(),
              static_cast<unsigned long long>(checksum));
  Set("minhash.delta_scan_ns_per_pair",
      scan_s * 1e9 / (stream_.size() * pool_sketches.size()), "ns");
  return true;
}

bool Ledger::RebuildRound() {
  ChurnDriver churn(setup_, setup_->engine.get(), args_.seed, report_);
  ChurnDriver::RoundStats round;
  if (!churn.RunRound(&round)) return false;
  double flush_s = 0;
  if (!churn.FinalCheck(&flush_s)) return false;
  Set("core.rebuild_s", round.rebuild_s + flush_s, "s");
  Set("core.rebuilds", static_cast<double>(round.rebuilds + 1), "count");
  return true;
}

void Ledger::PrintLedger() const {
  std::printf("ledger: %zu queries, every layer checked for equal id sets\n",
              stream_.size());
  double prev = 0;
  for (const LayerRow& row : layers_) {
    std::printf("ledger: %-42s %9.3f us/query  (%+9.3f vs previous row)\n",
                row.name.c_str(), row.per_query_s * 1e6,
                (row.per_query_s - prev) * 1e6);
    prev = row.per_query_s;
  }
}

bool Ledger::CompareLayers() {
  // Every layer returns the same ids for every query.
  const LayerRow& ref = layers_[kReferenceLayer];
  for (const LayerRow& row : layers_) {
    Check(CheckSameIdSets(row.name, row.answers, ref.name, ref.answers));
  }
  std::vector<uint64_t> self_ids;
  for (const StreamQuery& q : stream_) {
    self_ids.push_back(q.corpus_index < 0 ? kNoSelf : q.id());
  }
  Check(CheckSelfHits(self_ids, ref.answers));
  PrintLedger();
  return true;
}

bool Ledger::Run() {
  ScopedSpan span("bench.ledger");
  report_->Op("threshold").attempted += stream_.size();
  using Step = bool (Ledger::*)();
  const std::pair<const char*, Step> steps[] = {
      {"set-up and io", &Ledger::SetupAndIo},
      {"dynamic build", &Ledger::BuildDynamic},
      {"tuning plan", &Ledger::PlanAndTune},
      {"kernel, lsh and filter layers", &Ledger::ForestLayers},
      {"ensemble and dynamic layers", &Ledger::EngineLayers},
      {"sharded layers", &Ledger::ShardedLayers},
      {"top-k", &Ledger::TopK},
      {"wire", &Ledger::Wire},
      {"layer comparison", &Ledger::CompareLayers},
      {"dynamic churn state", &Ledger::DynamicChurnState},
      {"rebuild round", &Ledger::RebuildRound},
      {"trace overhead", &Ledger::TraceOverhead}};
  for (const auto& [name, step] : steps) {
    const uint64_t t0 = NowNs();
    if (!(this->*step)()) return false;
    std::printf("ledger step: %-32s %.3fs\n", name, (NowNs() - t0) * 1e-9);
  }
  std::printf("trace: %zu spans at %.1f ns each\n", Tracer::Get().span_count(),
              overhead_ns_per_span_);
  return true;
}

}  // namespace

bool RunLedger(Setup* setup, const std::vector<StreamQuery>& stream,
               const std::vector<StreamQuery>& topk, const Args& args,
               Report* report) {
  Ledger ledger(setup, stream, topk, args, report);
  const bool ok = ledger.Run();
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  std::printf("%s", Tracer::Get().Summary().c_str());
  if (!Tracer::Get().Write(path)) {
    report->Fail("cannot write the trace file " + path);
  } else {
    std::printf("trace: %zu spans written to %s\n",
                Tracer::Get().span_count(), path.c_str());
  }
  return ok;
}

}  // namespace layerbench
