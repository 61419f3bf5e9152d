#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>

#include "data/sketcher.h"
#include "trace.h"
#include "workload/generator.h"
#include "workloads.h"

namespace layerbench {

uint64_t g_process_start_ns = 0;

namespace {

/// Hash-family seed: part of the engine's fixed shape, not of the
/// workload (the workload seed only drives the generated inputs).
constexpr uint64_t kFamilySeed = 20160905;

}  // namespace

Corpus MakeCorpus(size_t num_domains, uint64_t seed) {
  lshensemble::CorpusGenOptions options;
  options.num_domains = num_domains;
  options.min_size = 10;
  options.max_size = 100000;
  options.alpha = 2.0;
  options.shared_vocabulary = 20000;
  options.shared_fraction = 0.05;
  options.shared_zipf_s = 1.05;
  options.seed = seed;
  auto corpus = lshensemble::CorpusGenerator(options).Generate();
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).value();
}

std::vector<uint64_t> MissValues(uint64_t tag_index, size_t size) {
  std::vector<uint64_t> values(size);
  for (size_t j = 0; j < size; ++j) {
    values[j] = (uint64_t{0xFD} << 56) | (tag_index << 24) | j;
  }
  return values;
}

void Report::Fail(const std::string& what) {
  correct = false;
  if (failures.size() < 20) failures.push_back(what);
}

ShardedEnsembleOptions ServingOptions() {
  ShardedEnsembleOptions options;
  options.num_shards = kShards;
  return options;
}

bool RunSetup(size_t num_domains, const Args& args, Setup* setup,
              Report* report) {
  ScopedSpan setup_span("bench.setup");
  uint64_t t = NowNs();
  auto lap = [&t] {
    const uint64_t now = NowNs();
    const double s = (now - t) * 1e-9;
    t = now;
    return s;
  };
  {
    ScopedSpan span("workload.CorpusGenerator::Generate");
    setup->corpus = MakeCorpus(num_domains, kCorpusSeed);
  }
  setup->total_values = setup->corpus.TotalValues();
  setup->gen_s = lap();

  setup->family =
      HashFamily::Create(lshensemble::LshEnsembleOptions{}.num_hashes,
                         kFamilySeed)
          .value();
  {
    ScopedSpan span("data.ParallelSketcher::SketchCorpus");
    setup->sketches =
        lshensemble::ParallelSketcher(setup->family).SketchCorpus(
            setup->corpus);
  }
  setup->sketch_s = lap();

  ShardedEnsembleOptions bulk = ServingOptions();
  bulk.base.min_delta_for_rebuild = SIZE_MAX;  // see README: bulk ingest
  auto created = ShardedEnsemble::Create(bulk, setup->family);
  if (!created.ok()) {
    report->Fail("Create: " + created.status().ToString());
    return false;
  }
  {
    ShardedEnsemble builder = std::move(created).value();
    {
      ScopedSpan span("core.ShardedEnsemble::Insert(bulk)");
      const bool count_rebuilds = Tracer::Get().enabled();
      size_t expected_delta = 0;
      for (size_t i = 0; i < setup->corpus.size(); ++i) {
        const auto& d = setup->corpus.domain(i);
        const auto st = builder.Insert(d.id, d.size(), setup->sketches[i]);
        if (!st.ok()) {
          report->Fail("bulk Insert: " + st.ToString());
          return false;
        }
        if (count_rebuilds) {
          ++expected_delta;
          if (builder.delta_size() < expected_delta) {
            ++setup->bulk_rebuilds;
            expected_delta = builder.delta_size();
          }
        }
      }
    }
    setup->insert_s = lap();
    {
      ScopedSpan span("core.ShardedEnsemble::Flush(bulk)");
      const auto st = builder.Flush();
      if (!st.ok()) {
        report->Fail("bulk Flush: " + st.ToString());
        return false;
      }
      ++setup->bulk_rebuilds;
    }
    setup->flush_s = lap();

    setup->snapshot_dir = args.out_dir + "/" + args.workload + "-" +
                          std::to_string(getpid()) + "/snap";
    {
      ScopedSpan span("io.ShardedEnsemble::SaveSnapshot");
      const auto st = builder.SaveSnapshot(setup->snapshot_dir);
      if (!st.ok()) {
        report->Fail("SaveSnapshot: " + st.ToString());
        return false;
      }
    }
    setup->save_s = lap();
  }  // the building engine is released before the serving open

  {
    ScopedSpan span("io.ShardedEnsemble::OpenSnapshot(verify)");
    auto opened =
        ShardedEnsemble::OpenSnapshot(setup->snapshot_dir, ServingOptions());
    if (!opened.ok()) {
      report->Fail("OpenSnapshot: " + opened.status().ToString());
      return false;
    }
    setup->engine =
        std::make_unique<ShardedEnsemble>(std::move(opened).value());
  }
  setup->open_s = lap();
  setup->setup_s = (NowNs() - g_process_start_ns) * 1e-9;
  setup->snapshot_bytes = DirectoryBytes(setup->snapshot_dir);
  std::printf("setup: %.3fs from process start: generate %.3fs, sketch "
              "%.3fs, insert %.3fs, flush %.3fs, save %.3fs, open %.3fs\n",
              setup->setup_s, setup->gen_s, setup->sketch_s, setup->insert_s,
              setup->flush_s, setup->save_s, setup->open_s);
  return true;
}

namespace {

/// Corpus indices in ascending size order (ties by index).
std::vector<size_t> SizeOrder(const Corpus& corpus) {
  std::vector<size_t> order(corpus.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return corpus.domain(a).size() < corpus.domain(b).size();
  });
  return order;
}

/// Stratified draw: `count` corpus indices, one uniformly from each of
/// `count` equal strata of the size order, so every seed queries the same
/// size distribution (a uniform draw from a power law swings the share of
/// large, expensive queries from seed to seed). t* cycles through the mix
/// from a seeded offset, so neighbouring strata get different t*.
template <typename Fn>
void Stratified(const Corpus& corpus, size_t count, std::mt19937_64& rng,
                Fn&& fn) {
  constexpr size_t kMix = sizeof(kTStarMix) / sizeof(kTStarMix[0]);
  const std::vector<size_t> order = SizeOrder(corpus);
  const size_t rotation = rng() % kMix;
  for (size_t j = 0; j < count; ++j) {
    const size_t lo = j * order.size() / count;
    const size_t hi = std::max(lo + 1, (j + 1) * order.size() / count);
    fn(j, order[lo + rng() % (hi - lo)], kTStarMix[(j + rotation) % kMix]);
  }
}

}  // namespace

std::vector<StreamQuery> IndexedStream(const Setup& setup, size_t count,
                                       uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::vector<StreamQuery> out(count);
  Stratified(setup.corpus, count, rng, [&](size_t j, size_t i, double t) {
    out[j].sketch = &setup.sketches[i];
    out[j].size = setup.corpus.domain(i).size();
    out[j].t_star = t;
    out[j].corpus_index = static_cast<int64_t>(i);
  });
  // Stream order is seeded too, so batches and waves mix sizes.
  for (size_t j = count; j > 1; --j) std::swap(out[j - 1], out[rng() % j]);
  return out;
}

std::vector<StreamQuery> MissStream(const Setup& setup, size_t count,
                                    uint64_t seed,
                                    std::vector<MinHash>* owned) {
  std::mt19937_64 rng(seed * 0xC2B2AE3D27D4EB4Full + 2);
  std::vector<StreamQuery> out(count);
  Stratified(setup.corpus, count, rng, [&](size_t j, size_t i, double t) {
    const size_t size = setup.corpus.domain(i).size();
    owned->push_back(MinHash::FromValues(setup.family, MissValues(j, size)));
    out[j].sketch = &owned->back();
    out[j].size = size;
    out[j].t_star = t;
  });
  for (size_t j = count; j > 1; --j) std::swap(out[j - 1], out[rng() % j]);
  return out;
}

std::vector<QuerySpec> ToSpecs(const std::vector<StreamQuery>& stream) {
  std::vector<QuerySpec> specs(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    specs[i].query = stream[i].sketch;
    specs[i].query_size = stream[i].size;
    specs[i].t_star = stream[i].t_star;
  }
  return specs;
}

Traffic::Traffic(const Setup& setup, uint64_t seed) {
  miss_sketches.reserve(kGroups * kMissPerGroup);
  indexed = IndexedStream(setup, kGroups * kIndexedPerGroup, seed);
  miss = MissStream(setup, kGroups * kMissPerGroup, seed, &miss_sketches);
  topk = IndexedStream(setup, kGroups * kTopKPerGroup, seed + 1);
  threshold = indexed;
  threshold.insert(threshold.end(), miss.begin(), miss.end());
}

void SetSetupMetrics(const Setup& setup, Report* report) {
  report->Set("setup_s", setup.setup_s, "s");
  report->Set("snapshot_bytes_per_domain",
              static_cast<double>(setup.snapshot_bytes) / setup.corpus.size(),
              "bytes");
}

ExactIndex::ExactIndex(const Corpus& corpus) : counts_(corpus.size(), 0) {
  pairs_.reserve(corpus.TotalValues());
  for (size_t i = 0; i < corpus.size(); ++i) {
    for (uint64_t v : corpus.domain(i).values) {
      pairs_.emplace_back(v, static_cast<uint32_t>(i));
    }
  }
  std::sort(pairs_.begin(), pairs_.end());
}

std::vector<uint64_t> ExactIndex::Answer(
    const std::vector<uint64_t>& query_values, double t_star) const {
  touched_.clear();
  for (uint64_t v : query_values) {
    auto it = std::lower_bound(
        pairs_.begin(), pairs_.end(), std::make_pair(v, uint32_t{0}));
    for (; it != pairs_.end() && it->first == v; ++it) {
      if (counts_[it->second]++ == 0) touched_.push_back(it->second);
    }
  }
  const double need = t_star * static_cast<double>(query_values.size());
  std::vector<uint64_t> ids;
  for (uint32_t d : touched_) {
    if (static_cast<double>(counts_[d]) + 1e-9 >= need) ids.push_back(d);
    counts_[d] = 0;
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

int RunRounds(double seconds, const std::function<bool()>& round,
              const std::function<void()>& reset) {
  if (!round()) return -1;  // warm-up
  reset();
  int rounds = 0;
  const uint64_t start = NowNs();
  do {
    if (!round()) return -1;
    ++rounds;
  } while (rounds < kMinRounds || (NowNs() - start) * 1e-9 < seconds);
  return rounds;
}

std::vector<uint64_t> Sorted(std::vector<uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace layerbench
