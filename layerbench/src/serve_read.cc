// serve-read: a loopback serve::Server over the S-shard engine opened
// zero-copy from the verified set-up snapshot, at the paper's Open Data
// scale, with the Traffic mix (common.h). Each round runs a closed loop,
// in which each connection keeps a fixed pipelined window, and an open
// loop at one fixed offered rate (latency timed from each request's due
// time), then the side phases. Every wire answer is compared with the
// in-process BatchQuery/BatchSearch answer to the same request.
// ServeSampler also gives the other workloads their serve slices.

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

#include "checks.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "trace.h"
#include "workloads.h"

namespace layerbench {

namespace {

namespace serve = lshensemble::serve;

/// Open-loop offered rate (requests/s): well under the closed-loop
/// capacity, so the open loop measures latency, not queueing.
constexpr double kOfferedRate = 2000.0;
constexpr size_t kOpenConnections = 2;
/// Closed loop: 2 connections (one load thread each) with 32 requests
/// in flight each, so 64 in flight, under max_pending.
constexpr size_t kClosedConnections = 2;
constexpr size_t kClosedWindow = 32;

enum class Kind : uint8_t { kIndexed, kMiss, kTopK };

struct Request {
  Kind kind = Kind::kIndexed;
  size_t answer = 0;  // index into Pool::expected_q / expected_t
  std::string frame;  // encoded with request id 0, patched per send
};

struct Pool {
  std::vector<Request> requests;  // in stream order
  Answers expected_q;
  std::vector<std::vector<TopKResult>> expected_t;
};

/// Request ids sit right after the frame header and the type byte in
/// every request frame (serve/protocol.h); patch them in place so frames
/// are encoded once, before any timing.
void PatchRequestId(char* frame, uint64_t id) {
  for (int b = 0; b < 8; ++b) {
    frame[serve::kFrameHeaderBytes + 1 + b] = static_cast<char>(id >> (8 * b));
  }
}

uint64_t ResponseId(const serve::Message& msg) {
  switch (msg.type) {
    case serve::MessageType::kQueryResponse:
      return msg.query_response.request_id;
    case serve::MessageType::kTopKResponse:
      return msg.topk_response.request_id;
    case serve::MessageType::kErrorResponse:
      return msg.error.request_id;
    default:
      return 0;
  }
}

/// Outcome of one response: ok, failed operation (error frame), or a
/// wrong answer.
enum class Verdict { kOk, kFailed, kWrong };

Verdict Judge(const Request& r, const serve::Message& msg, const Pool& pool) {
  if (msg.type == serve::MessageType::kErrorResponse) return Verdict::kFailed;
  if (r.kind == Kind::kTopK) {
    if (msg.type != serve::MessageType::kTopKResponse) return Verdict::kWrong;
    const auto& want = pool.expected_t[r.answer];
    const auto& got = msg.topk_response.entries;
    if (got.size() != want.size()) return Verdict::kWrong;
    for (size_t i = 0; i < got.size(); ++i) {
      if (got[i].id != want[i].id ||
          got[i].estimated_containment != want[i].estimated_containment) {
        return Verdict::kWrong;
      }
    }
    return Verdict::kOk;
  }
  if (msg.type != serve::MessageType::kQueryResponse) return Verdict::kWrong;
  return msg.query_response.ids == pool.expected_q[r.answer] ? Verdict::kOk
                                                             : Verdict::kWrong;
}

/// Tally of one phase, per operation type.
struct Tally {
  uint64_t attempted[2] = {0, 0};  // [threshold, topk]
  uint64_t failed[2] = {0, 0};
  uint64_t wrong = 0;

  void Add(const Request& r, Verdict v) {
    const int t = r.kind == Kind::kTopK ? 1 : 0;
    ++attempted[t];
    if (v == Verdict::kFailed) ++failed[t];
    if (v == Verdict::kWrong) ++wrong;
  }
  void Merge(const Tally& o) {
    for (int t = 0; t < 2; ++t) {
      attempted[t] += o.attempted[t];
      failed[t] += o.failed[t];
    }
    wrong += o.wrong;
  }
};

bool BuildPool(const ShardedEnsemble& engine, const Traffic& traffic,
               Pool* pool, Report* report) {
  const auto specs = ToSpecs(traffic.threshold);
  pool->expected_q.assign(specs.size(), {});
  auto st = engine.BatchQuery(specs, pool->expected_q.data());
  if (!st.ok()) {
    report->Fail("serve: in-process BatchQuery: " + st.ToString());
    return false;
  }
  std::vector<TopKQuery> tq;
  for (const StreamQuery& q : traffic.topk) tq.push_back({q.sketch, q.size, 0});
  pool->expected_t.assign(tq.size(), {});
  st = engine.BatchSearch(tq, kTopK, pool->expected_t.data());
  if (!st.ok()) {
    report->Fail("serve: in-process BatchSearch: " + st.ToString());
    return false;
  }

  if (const CheckResult c = CheckTopKOrder(pool->expected_t); !c.ok) {
    report->Fail("serve: " + c.detail);
  }

  using T = Traffic;
  const uint64_t family_seed = engine.family()->seed();
  for (size_t g = 0; g < T::kGroups; ++g) {
    for (size_t i = 0;
         i < T::kIndexedPerGroup + T::kMissPerGroup + T::kTopKPerGroup; ++i) {
      Request r;
      if (i < T::kIndexedPerGroup) {
        r.kind = Kind::kIndexed;
        r.answer = g * T::kIndexedPerGroup + i;
      } else if (i < T::kIndexedPerGroup + T::kMissPerGroup) {
        r.kind = Kind::kMiss;
        r.answer = traffic.indexed.size() + g * T::kMissPerGroup +
                   (i - T::kIndexedPerGroup);
      } else {
        r.kind = Kind::kTopK;
        r.answer = g * T::kTopKPerGroup +
                   (i - T::kIndexedPerGroup - T::kMissPerGroup);
      }
      const StreamQuery& q = r.kind == Kind::kTopK
                                 ? traffic.topk[r.answer]
                                 : traffic.threshold[r.answer];
      if (r.kind == Kind::kTopK) {
        serve::TopKRequest req;
        req.family_seed = family_seed;
        req.k = static_cast<uint32_t>(kTopK);
        req.query_size = q.size;
        req.slots = q.sketch->values();
        serve::EncodeTopKRequest(req, &r.frame);
      } else {
        serve::QueryRequest req;
        req.family_seed = family_seed;
        req.t_star = q.t_star;
        req.query_size = q.size;
        req.slots = q.sketch->values();
        serve::EncodeQueryRequest(req, &r.frame);
      }
      pool->requests.push_back(std::move(r));
    }
  }
  std::mt19937_64 rng(family_seed * 0x94D049BB133111EBull + 5);
  auto& reqs = pool->requests;
  for (size_t i = reqs.size(); i > 1; --i) {
    std::swap(reqs[i - 1], reqs[rng() % i]);
  }

  // The id patch must land where the decoder reads it.
  std::string probe = reqs[0].frame;
  PatchRequestId(probe.data(), 0x0102030405060708ull);
  auto decoded = serve::DecodeMessage(
      std::string_view(probe).substr(serve::kFrameHeaderBytes));
  if (!decoded.ok() ||
      (decoded.value().type == serve::MessageType::kQueryRequest
           ? decoded.value().query.request_id
           : decoded.value().topk.request_id) != 0x0102030405060708ull) {
    report->Fail("serve: request-id patch does not match the protocol");
    return false;
  }
  return true;
}

}  // namespace

struct ServeSampler::Impl {
  Impl(const ShardedEnsemble& e, const Traffic& t, Report* r)
      : engine(e), traffic(t), report(r) {}

  bool Connect(size_t n, std::vector<serve::Client>* out) {
    for (size_t c = 0; c < n; ++c) {
      auto client = serve::Client::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        report->Fail("serve: connect: " + client.status().ToString());
        return false;
      }
      out->push_back(std::move(client).value());
    }
    return true;
  }

  const ShardedEnsemble& engine;
  const Traffic& traffic;
  Report* report;
  serve::ServerOptions options;  // library defaults: 2 reactors, 2 dispatchers
  Pool pool;
  // Declared before the clients, so the clients close first.
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> open_clients;
  std::vector<serve::Client> closed_clients;
  // Stream positions carried across slices, so successive slices walk
  // the whole request pool.
  size_t open_cursor = 0;
  std::vector<size_t> closed_cursor;
  Tally tally;
  uint64_t closed_answers = 0;
  std::vector<double> closed_qps;     // one per closed slice
  std::vector<double> threshold_p50;  // one per open slice
  std::vector<double> topk_p50;
  std::vector<double> threshold_us;   // every sample, for the info line
  std::vector<double> lateness_us;
};

ServeSampler::ServeSampler(const ShardedEnsemble& engine,
                           const Traffic& traffic, Report* report)
    : impl_(std::make_unique<Impl>(engine, traffic, report)) {}

ServeSampler::~ServeSampler() = default;

bool ServeSampler::Start() {
  Impl& m = *impl_;
  if (!BuildPool(m.engine, m.traffic, &m.pool, m.report)) return false;
  const size_t connections = std::min<size_t>(
      kClosedConnections,
      std::max<unsigned>(1, std::thread::hardware_concurrency()));
  if (m.options.max_pending < connections * kClosedWindow) {
    m.report->Fail("serve: max_pending does not cover connections x window");
    return false;
  }
  const std::shared_ptr<const ShardedEnsemble> serving(
      &m.engine, [](const ShardedEnsemble*) {});
  auto server = serve::Server::Start(m.options, [serving] { return serving; });
  if (!server.ok()) {
    m.report->Fail("serve: Server::Start: " + server.status().ToString());
    return false;
  }
  m.server = std::move(server).value();
  if (!m.Connect(kOpenConnections, &m.open_clients) ||
      !m.Connect(connections, &m.closed_clients)) {
    return false;
  }
  const size_t np = m.pool.requests.size();
  for (size_t c = 0; c < connections; ++c) {
    m.closed_cursor.push_back(c * (np / connections));
  }
  std::printf("serve: server reactors=%d dispatchers=%d batch_max=%zu "
              "linger_us=%llu max_pending=%zu; open loop %zu conns at %.0f "
              "req/s; closed loop %zu conns x window %zu\n",
              m.options.num_reactors, m.options.num_dispatchers,
              m.options.batch_max,
              static_cast<unsigned long long>(m.options.batch_linger_us),
              m.options.max_pending, kOpenConnections, kOfferedRate,
              connections, kClosedWindow);
  return true;
}

/// Each connection sends a window of pipelined requests, reads the
/// window's responses, and repeats until `seconds` pass. The sample is
/// the slice's answers over its wall time.
bool ServeSampler::ClosedSlice(double seconds) {
  ScopedSpan span("bench.serve_closed_slice");
  Impl& m = *impl_;
  const Pool& pool = m.pool;
  const size_t connections = m.closed_clients.size();
  const size_t np = pool.requests.size();
  std::vector<Tally> tallies(connections);
  std::vector<uint64_t> done(connections, 0);
  std::vector<uint8_t> io_error(connections, 0);
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client& client = m.closed_clients[c];
      size_t& cursor = m.closed_cursor[c];
      uint64_t next_id = 1;
      std::string frames;
      std::vector<size_t> slots(kClosedWindow);
      while (NowNs() < end) {
        frames.clear();
        const uint64_t base_id = next_id;
        for (size_t w = 0; w < kClosedWindow; ++w) {
          slots[w] = (cursor + w) % np;
          const size_t at = frames.size();
          frames += pool.requests[slots[w]].frame;
          PatchRequestId(frames.data() + at, next_id++);
        }
        cursor = (cursor + kClosedWindow) % np;
        if (!client.SendFrames(frames).ok()) {
          io_error[c] = 1;
          return;
        }
        for (size_t w = 0; w < kClosedWindow; ++w) {
          auto msg = client.ReceiveMessage();
          if (!msg.ok()) {
            io_error[c] = 1;
            return;
          }
          const uint64_t id = ResponseId(msg.value());
          if (id < base_id || id >= base_id + kClosedWindow) {
            io_error[c] = 1;
            return;
          }
          const Request& r = pool.requests[slots[id - base_id]];
          const Verdict v = Judge(r, msg.value(), pool);
          tallies[c].Add(r, v);
          if (v == Verdict::kOk) ++done[c];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = (NowNs() - start) * 1e-9;
  uint64_t answers = 0;
  for (size_t c = 0; c < connections; ++c) {
    if (io_error[c] != 0) {
      m.report->Fail("serve: closed-loop connection failed");
      return false;
    }
    m.tally.Merge(tallies[c]);
    answers += done[c];
  }
  m.closed_answers += answers;
  m.closed_qps.push_back(answers / elapsed);
  return true;
}

/// Request j of the slice is due at start + j / rate and goes out on
/// connection j mod C from that connection's sender thread; a receiver
/// thread per connection stamps arrivals. Latency runs from the due time.
bool ServeSampler::OpenSlice(double seconds) {
  ScopedSpan span("bench.serve_open_slice");
  Impl& m = *impl_;
  const Pool& pool = m.pool;
  const size_t total = static_cast<size_t>(kOfferedRate * seconds);
  const uint64_t period_ns = static_cast<uint64_t>(1e9 / kOfferedRate);
  const size_t np = pool.requests.size();
  const size_t base = m.open_cursor;
  m.open_cursor = (base + total) % np;
  std::vector<uint64_t> sent_ns(total, 0);
  std::vector<uint64_t> recv_ns(total, 0);
  std::vector<serve::Message> responses(total);
  std::vector<uint8_t> io_error(kOpenConnections, 0);
  const uint64_t start = NowNs() + 20'000'000;  // 20 ms to spin threads up
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kOpenConnections; ++c) {
    threads.emplace_back([&, c] {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      std::string frame;
      for (size_t j = c; j < total; j += kOpenConnections) {
        frame = pool.requests[(base + j) % np].frame;
        PatchRequestId(frame.data(), j + 1);
        const uint64_t due = start + j * period_ns;
        for (uint64_t now = NowNs(); now + 60'000 < due; now = NowNs()) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - 60'000));
        }
        while (NowNs() < due) {
        }
        sent_ns[j] = NowNs();
        if (!m.open_clients[c].SendFrames(frame).ok()) {
          io_error[c] = 1;
          return;
        }
      }
    });
    threads.emplace_back([&, c] {
      const size_t expect =
          (total - c + kOpenConnections - 1) / kOpenConnections;
      for (size_t i = 0; i < expect; ++i) {
        auto msg = m.open_clients[c].ReceiveMessage();
        const uint64_t now = NowNs();
        if (!msg.ok()) {
          io_error[c] = 1;
          return;
        }
        const uint64_t id = ResponseId(msg.value());
        if (id == 0 || id > total) {
          io_error[c] = 1;
          return;
        }
        recv_ns[id - 1] = now;
        responses[id - 1] = std::move(msg).value();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint8_t e : io_error) {
    if (e != 0) {
      m.report->Fail("serve: open-loop connection failed");
      return false;
    }
  }
  std::vector<double> threshold_us;
  std::vector<double> topk_us;
  for (size_t j = 0; j < total; ++j) {
    const Request& r = pool.requests[(base + j) % np];
    const Verdict v = Judge(r, responses[j], pool);
    m.tally.Add(r, v);
    if (v != Verdict::kOk) continue;
    const double lat = (recv_ns[j] - (start + j * period_ns)) * 1e-3;
    (r.kind == Kind::kTopK ? topk_us : threshold_us).push_back(lat);
    m.lateness_us.push_back((sent_ns[j] - (start + j * period_ns)) * 1e-3);
  }
  if (!threshold_us.empty()) {
    m.threshold_p50.push_back(Percentile(threshold_us, 50));
  }
  if (!topk_us.empty()) m.topk_p50.push_back(Percentile(topk_us, 50));
  m.threshold_us.insert(m.threshold_us.end(), threshold_us.begin(),
                        threshold_us.end());
  return true;
}

void ServeSampler::ResetSamples() {
  Impl& m = *impl_;
  m.closed_answers = 0;
  m.closed_qps.clear();
  m.threshold_p50.clear();
  m.topk_p50.clear();
  m.threshold_us.clear();
  m.lateness_us.clear();
}

bool ServeSampler::Finish() {
  Impl& m = *impl_;
  if (m.server == nullptr) return false;
  const uint64_t sheds = m.server->metrics().sheds.load();
  m.open_clients.clear();
  m.closed_clients.clear();
  m.server->Stop();
  m.server.reset();
  Report* report = m.report;
  report->Op("threshold").attempted += m.tally.attempted[0];
  report->Op("threshold").failed += m.tally.failed[0];
  report->Op("topk").attempted += m.tally.attempted[1];
  report->Op("topk").failed += m.tally.failed[1];
  if (m.tally.wrong != 0) {
    report->Fail("serve: " + std::to_string(m.tally.wrong) +
                 " wire answers differ from the in-process answers");
  }
  if (sheds != 0) {
    report->Fail("serve: the server shed " + std::to_string(sheds) +
                 " requests");
  }
  if (m.closed_qps.empty() || m.threshold_p50.empty() || m.topk_p50.empty()) {
    report->Fail("serve: a slice produced no samples");
    return false;
  }
  report->Set("serve_qps", Median(m.closed_qps), "queries/s");
  report->Set("query_p50_us", Median(m.threshold_p50), "us");
  report->Set("topk_p50_us", Median(m.topk_p50), "us");
  std::printf(
      "serve: %zu closed slices (%llu answers), %zu open slices; threshold "
      "p99 %.1fus over the open slices (not a metric: see README); "
      "generator lateness p50 %.1fus p99 %.1fus max %.1fus\n",
      m.closed_qps.size(), static_cast<unsigned long long>(m.closed_answers),
      m.threshold_p50.size(), Percentile(m.threshold_us, 99),
      Percentile(m.lateness_us, 50), Percentile(m.lateness_us, 99),
      Percentile(m.lateness_us, 100));
  return true;
}

bool RunServeRead(const Args& args, Report* report) {
  Setup setup;
  if (!RunSetup(kOpenDataDomains, args, &setup, report)) return false;
  SetSetupMetrics(setup, report);
  const Traffic traffic(setup, args.seed);
  if (args.trace) {
    return RunLedger(&setup, traffic.threshold, traffic.topk, args, report);
  }
  // A round (about a tenth of --seconds): the closed and open loops, then
  // the side phases on the same engine and traffic.
  const double slice_s = 0.035 * args.seconds;
  ServeSampler serve(*setup.engine, traffic, report);
  BatchSampler batch(*setup.engine, ToSpecs(traffic.threshold), report);
  OpenSampler open(setup, report);
  ChurnSideSampler churn(&setup, args.seed, report);
  if (!serve.Start()) return false;
  const int rounds = RunRounds(
      args.seconds,
      [&] {
        return serve.ClosedSlice(slice_s) && serve.OpenSlice(slice_s) &&
               batch.Batch() && batch.Batch() && batch.Batch() && open.Open() &&
               open.Open() && open.Open() && churn.Step(1024);
      },
      [&] {
        serve.ResetSamples();
        batch.ResetSamples();
        open.ResetSamples();
        churn.ResetSamples();
      });
  if (rounds < 0 || !serve.Finish()) return false;
  std::printf("rounds: %d measured after one warm-up round\n", rounds);
  batch.Finish();
  open.Finish();
  churn.Finish();
  report->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  AccuracyPhase(setup, traffic.threshold, traffic.indexed.size(),
                batch.outs(), report);
  return true;
}

}  // namespace layerbench
