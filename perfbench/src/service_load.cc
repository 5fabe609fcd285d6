// xmark-large-service: XMark at scale 0.5, the 17 XPathMark queries on PPF
// in a seeded shuffle, served by QueryService (workers = nproc, result
// cache off, plan cache warm, default intra-query parallelism) to four
// closed-loop clients in this process, one request in flight each. Outputs
// reach tens of thousands of nodes, morsels shard, and intra-query work
// competes with inter-query work for the cores: this is where executor,
// result-assembly and parallelism changes show.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <random>
#include <thread>

#include "perfbench.h"

namespace perfbench {

using xp::engine::Backend;

namespace {

constexpr double kScale = 0.5;
constexpr int kSetups = 3;
constexpr int kClients = 4;

struct ClientLog {
  std::vector<double> latency_ms;               // untraced requests
  std::vector<std::vector<double>> per_query;   // untraced, by query
  std::vector<double> queue_wait_ms, exec_ms;   // traced requests
  uint64_t untraced_ops = 0, traced_ops = 0;
  double untraced_ms = 0, traced_ms = 0;
  uint64_t attempted = 0, failed = 0, wrong = 0;
};

}  // namespace

RunResult RunXMarkLargeService(const Args& args) {
  RunResult res;
  const double scale = kScale * args.scale_factor;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  res.scales = buf;
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // Only the PPF store is queried here, so only it is built.
  xp::engine::EngineOptions eopt;
  eopt.enable_edge = false;
  eopt.enable_accel = false;

  Tracer tracer(args.trace);
  std::unique_ptr<Corpus> corpus;
  std::vector<SetupTimes> setups;
  std::unique_ptr<xp::service::QueryService> plain, traced_svc;
  auto make_service = [&](int trace_level) {
    xp::service::ServiceOptions sopt;
    sopt.workers = workers;
    sopt.result_cache_capacity = 0;
    sopt.trace_level = trace_level;
    sopt.trace_ring_capacity = 16;
    return std::make_unique<xp::service::QueryService>(*corpus->engine, sopt);
  };
  const double setup_s = MedianSetup(kSetups, [&](int) {
    plain.reset();
    traced_svc.reset();
    corpus.reset();
    SetupTimes t;
    const auto t0 = Clock::now();
    corpus = BuildXMarkCorpus(scale, args.seed, eopt, args.trace, &tracer, &t);
    {
      Scoped span(&tracer, "service.start");
      plain = make_service(0);
      if (args.trace) traced_svc = make_service(1);
    }
    setups.push_back(t);
    return SecondsSince(t0);
  });
  const xp::engine::XPathEngine& engine = *corpus->engine;
  // Peak memory of the program alone: sampled before the oracle exists.
  const double rss_mb = PeakRssMb();

  const auto oracle_start = Clock::now();
  Oracle oracle(corpus->doc);
  std::vector<const std::vector<xp::xml::NodeId>*> expected(kNumXPathMark);
  std::vector<bool> expected_ok(kNumXPathMark);
  for (size_t q = 0; q < kNumXPathMark; ++q) {
    bool ok = false;
    expected[q] = &oracle.Answer(kXPathMark[q].xpath, &ok);
    expected_ok[q] = ok;
    res.result_nodes.push_back({kXPathMark[q].id, expected[q]->size()});
  }
  // Warm the plan cache (checked like every other read). The clients check
  // inside their closed loops, so the check (one pass over the answer; no
  // copy unless the self-test is armed) counts against qps, but not against
  // the latencies.
  // The self-test switch is armed when the timed phase starts.
  std::atomic<bool> corrupt{false};
  auto wrong_answer = [&](size_t q,
                          const std::vector<xp::xml::NodeId>& nodes) {
    const bool c = corrupt.load(std::memory_order_relaxed) &&
                   corrupt.exchange(false);
    return !expected_ok[q] || !SameAnswer(nodes, corpus->doc, *expected[q], c);
  };
  for (size_t q = 0; q < kNumXPathMark; ++q) {
    ++res.attempted;
    auto r = engine.Run(Backend::kPpf, kXPathMark[q].xpath);
    if (!r.ok() || wrong_answer(q, r.value().nodes)) {
      ++res.failed;
      if (r.ok()) ++res.wrong;
    }
  }
  std::fprintf(stderr,
               "[xmark-large-service] setup %.2f s (median of %d), "
               "oracle+warm-up %.2f s\n",
               setup_s, kSetups, SecondsSince(oracle_start));

  // Timed phase: kClients closed-loop clients. A traced run splits the
  // time into four segments, untraced and traced in A-B-B-A order (the
  // side that goes first alternates with the seed); traced segments use a
  // second service over the same engine with per-request tracing on.
  std::mutex layers_mu;
  ReadLayers layers;
  std::vector<ClientLog> logs(kClients);
  const std::vector<bool> order =
      args.trace ? TraceSegmentOrder(args.seed) : std::vector<bool>{false};
  const double seg_s = args.seconds / static_cast<double>(order.size());
  corrupt = args.corrupt_one_answer;
  const auto timed_start = Clock::now();
  for (bool traced : order) {
    xp::service::QueryService& svc = traced ? *traced_svc : *plain;
    const auto seg_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seg_s));
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c, traced]() {
        ClientLog& log = logs[static_cast<size_t>(c)];
        log.per_query.resize(kNumXPathMark);
        std::mt19937_64 rng(args.seed * 7919 + static_cast<uint64_t>(c) +
                            (traced ? 104729 : 0));
        std::vector<size_t> deck(kNumXPathMark);
        size_t next = kNumXPathMark;
        while (Clock::now() < seg_end) {
          if (next == kNumXPathMark) {
            for (size_t i = 0; i < deck.size(); ++i) deck[i] = i;
            std::shuffle(deck.begin(), deck.end(), rng);
            next = 0;
          }
          const size_t q = deck[next++];
          xp::service::QueryRequest req;
          req.xpath = kXPathMark[q].xpath;
          const uint64_t id = traced ? tracer.NextRequest() : 0;
          const int span =
              traced ? tracer.Begin("service.request", -1, id) : -1;
          const auto t0 = Clock::now();
          auto resp = svc.Submit(std::move(req)).get();
          const double ms = MsBetween(t0, Clock::now());
          tracer.End(span);
          ++log.attempted;
          if (!resp.ok()) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         kXPathMark[q].id, resp.status().ToString().c_str());
            ++log.failed;
            continue;
          }
          if (wrong_answer(q, resp.value().nodes)) {
            std::fprintf(stderr, "perfbench: %s wrong answer\n",
                         kXPathMark[q].id);
            ++log.failed;
            ++log.wrong;
          }
          if (!traced) {
            log.latency_ms.push_back(ms);
            log.per_query[q].push_back(ms);
            log.untraced_ms += ms;
            ++log.untraced_ops;
            continue;
          }
          log.traced_ms += ms;
          ++log.traced_ops;
          log.queue_wait_ms.push_back(resp.value().queue_wait_ms);
          const uint64_t trace_id = resp.value().trace_id;
          for (const auto& rec : svc.RecentTraces()) {
            if (rec.trace_id != trace_id) continue;
            log.exec_ms.push_back(rec.elapsed_ms);
            std::lock_guard<std::mutex> lock(layers_mu);
            layers.AddServiceTrace(rec);
            layers.AddStats(resp.value().stats);
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  const double timed_s = SecondsSince(timed_start);

  ClientLog all;
  all.per_query.resize(kNumXPathMark);
  for (const ClientLog& log : logs) {
    all.latency_ms.insert(all.latency_ms.end(), log.latency_ms.begin(),
                          log.latency_ms.end());
    for (size_t q = 0; q < kNumXPathMark && q < log.per_query.size(); ++q) {
      all.per_query[q].insert(all.per_query[q].end(), log.per_query[q].begin(),
                              log.per_query[q].end());
    }
    all.queue_wait_ms.insert(all.queue_wait_ms.end(), log.queue_wait_ms.begin(),
                             log.queue_wait_ms.end());
    all.exec_ms.insert(all.exec_ms.end(), log.exec_ms.begin(),
                       log.exec_ms.end());
    all.untraced_ops += log.untraced_ops;
    all.traced_ops += log.traced_ops;
    all.untraced_ms += log.untraced_ms;
    all.traced_ms += log.traced_ms;
    res.attempted += log.attempted;
    res.failed += log.failed;
    res.wrong += log.wrong;
  }
  std::fprintf(stderr, "[xmark-large-service] %llu requests in %.2f s\n",
               static_cast<unsigned long long>(all.untraced_ops +
                                               all.traced_ops),
               timed_s);

  MetricSet& m = res.metrics;
  std::vector<double> medians;
  for (const auto& v : all.per_query) medians.push_back(Median(v));
  if (!args.trace) {
    m.Set("setup_s", setup_s, "s");
    m.Set("rss_mb", rss_mb, "MB");
    m.Set("ppf_geomean_ms", Geomean(medians), "ms");
    m.Set("qps", static_cast<double>(all.untraced_ops) / timed_s, "1/s");
    m.Set("query_p50_ms", Median(all.latency_ms), "ms");
    m.Set("query_p99_ms", TailPercentile(all.latency_ms, 0.99), "ms");
    return res;
  }
  std::vector<double> gen, ppf;
  for (const SetupTimes& t : setups) {
    gen.push_back(t.generate_s);
    ppf.push_back(t.ppf_load_s);
  }
  m.Set("data.generate_s", Median(gen), "s");
  m.Set("shred.ppf_load_s", Median(ppf), "s");
  layers.Emit(&m);
  m.Set("service.queue_wait_ms", Median(all.queue_wait_ms), "ms");
  m.Set("service.queue_wait_p99_ms", TailPercentile(all.queue_wait_ms, 0.99),
        "ms");
  m.Set("service.exec_ms", Median(all.exec_ms), "ms");
  m.Set("service.rejected",
        static_cast<double>(plain->metrics().rejected.load() +
                            traced_svc->metrics().rejected.load()),
        "count");
  m.Set("trace_overhead",
        (all.traced_ms / std::max<double>(all.traced_ops, 1)) /
            (all.untraced_ms / std::max<double>(all.untraced_ops, 1)),
        "ratio");
  tracer.WriteJsonl(args.out_dir + "/spans-xmark-large-service-" +
                    std::to_string(args.seed) + ".jsonl");
  return res;
}

}  // namespace perfbench
