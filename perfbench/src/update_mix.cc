// update-mix: XMark at scale 0.1 behind QueryService with the result cache
// on, one closed-loop client issuing one operation at a time: 10% writes
// (insert, delete or retitle an item through DurabilityManager, WAL on,
// fsync off, a checkpoint every kCheckpointWalBytes of WAL), 45% repeated
// XPathMark reads and 45% point reads whose literals are never reused. It
// uses the read path differently from the other workloads: plan-cache
// misses (parse, translate, plan), result-cache hits and surgical
// invalidation, writer-excludes-readers, DML and the WAL. Executor work is
// small here, so executor-only changes should read "no change".
//
// Every read is checked against xpatheval outside the timed intervals.
// xpatheval treats node ids as preorder positions, which DML breaks (it
// grafts nodes at the end of the node array), so the oracle runs on a
// SerializeXml -> ParseXml copy of the current document, rebuilt after each
// write burst, and engine answers are mapped through Document::OrderRank.
// The reads of a round are checked together when the round ends, before the
// next write burst: the client's operations run back to back, as a real
// client's would, instead of each one after the oracle has flushed the
// CPU caches.
#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <random>
#include <thread>
#include <utility>

#include "perfbench.h"
#include "dml/mutator.h"
#include "durability/manager.h"
#include "xpath/parser.h"

namespace perfbench {

using xp::engine::Backend;

namespace {

constexpr double kScale = 0.1;
constexpr int kSetups = 3;
// WAL bytes between checkpoints: small enough that every run completes
// several checkpoints (each snapshots the whole shredded state).
constexpr uint64_t kCheckpointWalBytes = 10 << 10;
// Writes arrive in bursts of kBurst: each round is kBurst writes followed by
// kReadsPerBurst repeated and kReadsPerBurst cold reads in seeded order, so
// 10% writes, 45% repeated and 45% cold reads. The oracle needs a fresh
// document copy after every write burst, and per-write copies would cost
// several times the timed phase.
constexpr int kBurst = 4;
constexpr int kReadsPerBurst = 9 * kBurst / 2;

const char* const kRegions[] = {"africa", "asia",     "australia",
                                "europe", "namerica", "samerica"};

std::string ItemFragment(uint64_t k) {
  const std::string id = std::to_string(k);
  return "<item id=\"pb" + id + "\"><location>Honduras</location>"
         "<quantity>1</quantity><name>perfbench item " + id + "</name>"
         "<payment>Cash</payment><description><text>perfbench payload "
         "<keyword>k" + id + "</keyword></text></description>"
         "<shipping>Will ship only within country</shipping></item>";
}

// Never-reused point-read literals: a seeded permutation of the entity
// ids the document holds, continuing past its end (absent ids, empty
// answers) if a run ever exhausts it.
class LiteralStream {
 public:
  LiteralStream(size_t n, std::mt19937_64& rng) : ids_(n) {
    for (size_t i = 0; i < n; ++i) ids_[i] = i;
    std::shuffle(ids_.begin(), ids_.end(), rng);
  }
  size_t Next() { return next_ < ids_.size() ? ids_[next_++] : next_++; }

 private:
  std::vector<size_t> ids_;
  size_t next_ = 0;
};

enum class WriteKind { kInsert, kDelete, kRetitle };

struct OpLog {
  std::vector<double> repeated_ms, cold_ms, write_ms, checkpoint_write_ms;
  std::vector<std::vector<double>> per_query =
      std::vector<std::vector<double>>(kNumXPathMark);
  double active_ms = 0;  // op time, oracle checks excluded
  uint64_t ops = 0;
};

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

RunResult RunUpdateMix(const Args& args) {
  namespace fs = std::filesystem;
  RunResult res;
  const double scale = kScale * args.scale_factor;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", scale);
  res.scales = buf;
  const int workers =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const fs::path dur_dir = fs::path(args.out_dir) /
                           ("update-mix-wal-" + std::to_string(args.seed));

  xp::durability::DurabilityOptions dopt;
  dopt.fsync_wal = false;
  dopt.checkpoint_wal_bytes = kCheckpointWalBytes;
  dopt.retain_history = false;

  Tracer tracer(args.trace);
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<xp::durability::DurabilityManager> mgr;
  std::unique_ptr<xp::service::QueryService> plain, traced_svc;
  std::vector<SetupTimes> setups;
  std::vector<double> create_s;
  auto make_service = [&](int trace_level) {
    xp::service::ServiceOptions sopt;
    sopt.workers = workers;
    sopt.trace_level = trace_level;
    sopt.trace_ring_capacity = 16;
    auto svc =
        std::make_unique<xp::service::QueryService>(*corpus->engine, sopt);
    svc->AttachDurability(mgr.get());
    return svc;
  };
  const double setup_s = MedianSetup(kSetups, [&](int) {
    plain.reset();
    traced_svc.reset();
    mgr.reset();
    corpus.reset();
    std::error_code ec;
    fs::remove_all(dur_dir, ec);
    SetupTimes t;
    const auto t0 = Clock::now();
    corpus = BuildXMarkCorpus(scale, args.seed, {}, args.trace, &tracer, &t);
    const auto tc = Clock::now();
    {
      Scoped span(&tracer, "durability.create");
      auto m = xp::durability::DurabilityManager::Create(
          dur_dir.string(), corpus->doc, *corpus->engine, dopt);
      if (!m.ok()) {
        std::fprintf(stderr, "perfbench: durability: %s\n",
                     m.status().ToString().c_str());
        std::exit(1);
      }
      mgr = std::move(m).value();
    }
    create_s.push_back(SecondsSince(tc));
    {
      Scoped span(&tracer, "service.start");
      plain = make_service(0);
      if (args.trace) traced_svc = make_service(1);
    }
    setups.push_back(t);
    return SecondsSince(t0);
  });
  xp::engine::XPathEngine& engine = *corpus->engine;
  xp::xml::Document& doc = corpus->doc;
  // Resolves write targets; the durable mutations go through `mgr`.
  xp::dml::DocumentMutator resolver(doc, engine);

  // Peak memory of the program alone: sampled before the oracle exists.
  const double rss_mb = PeakRssMb();

  std::mt19937_64 rng(args.seed * 2654435761u + 17);
  const auto prep_start = Clock::now();
  auto oracle = std::make_unique<Oracle>(doc);  // pristine: ids are preorder
  bool ok = false;
  LiteralStream persons(oracle->Answer("/site/people/person", &ok).size(), rng);
  const size_t n_items = oracle->Answer("/site/regions/*/item", &ok).size();
  LiteralStream items(n_items, rng);
  LiteralStream auctions(
      oracle->Answer("/site/open_auctions/open_auction", &ok).size(), rng);
  for (size_t q = 0; q < kNumXPathMark; ++q) {
    bool qok = false;
    res.result_nodes.push_back(
        {kXPathMark[q].id, oracle->Answer(kXPathMark[q].xpath, &qok).size()});
  }

  // The self-test switch is armed when the timed phase starts, so the
  // answer it corrupts is checked against an oracle copy made after writes.
  bool corrupt = false;
  double oracle_ms = 0, copy_ms = 0;
  auto check = [&](const std::string& xpath,
                   const xp::Result<xp::service::QueryResponse>& r) {
    ++res.attempted;
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: read %s failed: %s\n", xpath.c_str(),
                   r.status().ToString().c_str());
      ++res.failed;
      return;
    }
    const auto t0 = Clock::now();
    if (oracle == nullptr) {
      oracle = Oracle::ForMutated(doc);
      copy_ms += MsBetween(t0, Clock::now());
    }
    bool eval_ok = false;
    const auto& expected = oracle->Answer(xpath, &eval_ok);
    const auto& nodes = r.value().nodes;
    if (!eval_ok ||
        !SameAnswer(nodes, doc, expected, std::exchange(corrupt, false))) {
      std::fprintf(stderr,
                   "perfbench: %s wrong answer (%zu nodes, oracle %zu)\n",
                   xpath.c_str(), nodes.size(), expected.size());
      ++res.failed;
      ++res.wrong;
    }
    oracle_ms += MsBetween(t0, Clock::now());
  };

  // Answers of the current round's reads, checked when the round ends (the
  // document does not change between a round's first read and its end).
  std::vector<std::pair<std::string, xp::Result<xp::service::QueryResponse>>>
      pending;
  auto check_pending = [&] {
    for (const auto& [xpath, r] : pending) check(xpath, r);
    pending.clear();
  };

  // Warm the plan cache with the repeated reads (checked).
  for (size_t q = 0; q < kNumXPathMark; ++q) {
    xp::service::QueryRequest req;
    req.xpath = kXPathMark[q].xpath;
    check(req.xpath, plain->Run(req));
  }
  std::fprintf(stderr,
               "[update-mix] setup %.2f s (median of %d), oracle+warm-up "
               "%.2f s\n",
               setup_s, kSetups, SecondsSince(prep_start));

  // Per-layer accumulators (traced segments only).
  ReadLayers layers;
  std::vector<double> queue_wait_ms, exec_ms, resolve_us, invalidate_us;
  std::vector<double> insert_ms, delete_ms, update_ms;
  uint64_t traced_writes = 0;
  double invalidated_entries = 0, plan_invalidated = 0, renumbers = 0,
         wal_bytes = 0;

  std::deque<std::pair<uint64_t, size_t>> inserted;  // (pb id, region)
  uint64_t next_pb = 0, retitles = 0;
  OpLog untraced_log, traced_log;

  // One write: resolve the target, apply it durably, invalidate the
  // service caches. Returns false on failure.
  auto write_op = [&](bool traced, xp::service::QueryService& active,
                      xp::service::QueryService* other) {
    const uint64_t pre_ckpt = mgr->stats().checkpoints.load();
    const uint64_t pre_wal = mgr->stats().wal_bytes.load();
    const uint64_t pre_renum = mgr->mutation_stats().dewey_renumbers;
    const uint64_t pre_plan =
        engine.mutation_counters().plan_entries_invalidated.load();
    const uint64_t pre_inval =
        active.metrics().cache_entries_invalidated.load();
    const uint64_t req = traced ? tracer.NextRequest() : 0;
    Tracer* tr = traced ? &tracer : nullptr;
    const auto t0 = Clock::now();
    Scoped write_span(tr, "update.write", -1, req);
    // 40% insert, 30% delete (of an item this run inserted), 30% retitle.
    const uint64_t dice = rng() % 10;
    const WriteKind kind = dice <= 3 || (dice <= 6 && inserted.empty())
                               ? WriteKind::kInsert
                               : dice <= 6 ? WriteKind::kDelete
                                           : WriteKind::kRetitle;
    std::string target;
    std::pair<uint64_t, size_t> victim{0, 0};  // (pb id, region)
    if (kind == WriteKind::kInsert) {
      victim = {next_pb++, static_cast<size_t>(rng() % 6)};
      target = std::string("/site/regions/") + kRegions[victim.second];
    } else if (kind == WriteKind::kDelete) {
      victim = inserted.front();
      inserted.pop_front();
      target = std::string("/site/regions/") + kRegions[victim.second] +
               "/item[@id='pb" + std::to_string(victim.first) + "']";
    } else {
      target = "/site/regions/*/item[@id='item" +
               std::to_string(rng() % std::max<size_t>(1, n_items)) +
               "']/name";
    }
    const auto tr0 = Clock::now();
    xp::Result<xp::xml::NodeId> node = [&] {
      Scoped span(tr, "dml.resolve", write_span.id(), req);
      return resolver.ResolveTarget(target);
    }();
    const auto tr1 = Clock::now();
    if (!node.ok()) {
      std::fprintf(stderr, "perfbench: resolve %s: %s\n", target.c_str(),
                   node.status().ToString().c_str());
      return false;
    }
    xp::Result<xp::dml::MutationResult> mr = [&] {
      Scoped span(tr, "durability.mutate", write_span.id(), req);
      if (kind == WriteKind::kInsert) {
        const size_t slots = doc.node(*node).children.size() + 1;
        return mgr->InsertFragment(*node, rng() % slots,
                                   ItemFragment(victim.first));
      }
      if (kind == WriteKind::kDelete) return mgr->DeleteSubtree(*node);
      return mgr->UpdateText(*node, "retitled " + std::to_string(++retitles));
    }();
    if (mr.ok() && kind == WriteKind::kInsert) inserted.push_back(victim);
    const auto tr2 = Clock::now();
    if (!mr.ok()) {
      std::fprintf(stderr, "perfbench: write on %s: %s\n", target.c_str(),
                   mr.status().ToString().c_str());
      return false;
    }
    {
      Scoped span(tr, "service.invalidate", write_span.id(), req);
      active.InvalidateMutation(mr.value().affected);
    }
    const auto t1 = Clock::now();
    // The idle service (traced runs keep two) must not serve stale results.
    if (other != nullptr) other->InvalidateMutation(mr.value().affected);
    OpLog& log = traced ? traced_log : untraced_log;
    const double ms = MsBetween(t0, t1);
    log.active_ms += ms;
    ++log.ops;
    if (mgr->stats().checkpoints.load() != pre_ckpt) {
      log.checkpoint_write_ms.push_back(ms);
    }
    if (!traced) {
      log.write_ms.push_back(ms);
      return true;
    }
    ++traced_writes;
    resolve_us.push_back(UsBetween(tr0, tr1));
    (kind == WriteKind::kInsert   ? insert_ms
     : kind == WriteKind::kDelete ? delete_ms
                                  : update_ms)
        .push_back(MsBetween(tr1, tr2));
    invalidate_us.push_back(UsBetween(tr2, t1));
    invalidated_entries += static_cast<double>(
        active.metrics().cache_entries_invalidated.load() - pre_inval);
    plan_invalidated += static_cast<double>(
        engine.mutation_counters().plan_entries_invalidated.load() - pre_plan);
    renumbers +=
        static_cast<double>(mgr->mutation_stats().dewey_renumbers - pre_renum);
    wal_bytes += static_cast<double>(mgr->stats().wal_bytes.load() - pre_wal);
    return true;
  };

  // One read through the active service, checked against the oracle.
  auto read_op = [&](bool traced, bool cold, xp::service::QueryService& svc,
                     const std::string& xpath, size_t q) {
    const uint64_t req = traced ? tracer.NextRequest() : 0;
    if (traced && cold) {
      // The parse and translate a plan-cache miss pays, timed around the
      // public calls (outside the request's latency).
      const auto p0 = Clock::now();
      {
        Scoped span(&tracer, "xpath.parse", -1, req);
        (void)xp::xpath::ParseXPath(xpath);
      }
      const auto p1 = Clock::now();
      {
        Scoped span(&tracer, "translate.ppf", -1, req);
        (void)engine.TranslateToSql(Backend::kPpf, xpath);
      }
      const auto p2 = Clock::now();
      ++layers.parses;
      layers.parse_us += UsBetween(p0, p1);
      // TranslateToSql parses again; charge translate with the rest.
      layers.translate_us +=
          std::max(0.0, UsBetween(p1, p2) - UsBetween(p0, p1));
    }
    xp::service::QueryRequest request;
    request.xpath = xpath;
    const auto t0 = Clock::now();
    int span = traced ? tracer.Begin("service.request", -1, req) : -1;
    auto r = svc.Submit(std::move(request)).get();
    if (traced) tracer.End(span);
    const double ms = MsBetween(t0, Clock::now());
    OpLog& log = traced ? traced_log : untraced_log;
    log.active_ms += ms;
    ++log.ops;
    if (!traced) {
      (cold ? log.cold_ms : log.repeated_ms).push_back(ms);
      if (!cold) log.per_query[q].push_back(ms);
    } else if (r.ok()) {
      if (!r.value().cache_hit) {
        queue_wait_ms.push_back(r.value().queue_wait_ms);
        for (const auto& rec : svc.RecentTraces()) {
          if (rec.trace_id != r.value().trace_id) continue;
          exec_ms.push_back(rec.elapsed_ms);
          layers.AddServiceTrace(rec);
          layers.AddStats(r.value().stats);
        }
      }
    }
    pending.emplace_back(xpath, std::move(r));
  };

  // Timed phase: op time (oracle checks excluded) is measured against
  // --seconds. Traced runs split it into A-B-B-A segments of untraced and
  // traced ops; each write is invalidated in both services' caches.
  const std::vector<bool> order =
      args.trace ? TraceSegmentOrder(args.seed) : std::vector<bool>{false};
  const double seg_ms = args.seconds * 1e3 / static_cast<double>(order.size());
  corrupt = args.corrupt_one_answer;
  const auto timed_start = Clock::now();
  std::vector<int> round;  // remaining ops of the current round, last first
  std::vector<size_t> deck;  // remaining repeated-read queries
  for (bool traced : order) {
    xp::service::QueryService& svc = traced ? *traced_svc : *plain;
    xp::service::QueryService* other =
        args.trace ? (traced ? plain.get() : traced_svc.get()) : nullptr;
    OpLog& log = traced ? traced_log : untraced_log;
    const double seg_end = log.active_ms + seg_ms;
    while (log.active_ms < seg_end) {
      if (round.empty()) {
        check_pending();
        // A new round: kBurst writes, then the repeated and cold reads in
        // seeded order.
        round.assign(kBurst, 0);
        round.insert(round.end(), kReadsPerBurst, 1);
        round.insert(round.end(), kReadsPerBurst, 2);
        std::shuffle(round.begin() + kBurst, round.end(), rng);
        std::reverse(round.begin(), round.end());
      }
      const int op = round.back();
      round.pop_back();
      if (op == 0) {
        if (!write_op(traced, svc, other)) {
          ++res.failed;
        }
        ++res.attempted;
        oracle.reset();  // the document changed
      } else if (op == 1) {
        // Repeated reads deal the 17 queries from a shuffled deck, so each
        // is read once per deck and its hit/miss mix does not hinge on how
        // often the dice picked it between two write bursts.
        if (deck.empty()) {
          for (size_t i = 0; i < kNumXPathMark; ++i) deck.push_back(i);
          std::shuffle(deck.begin(), deck.end(), rng);
        }
        const size_t q = deck.back();
        deck.pop_back();
        read_op(traced, false, svc, kXPathMark[q].xpath, q);
      } else {
        std::string xpath;
        switch (rng() % 3) {
          case 0:
            xpath = "/site/people/person[@id='person" +
                    std::to_string(persons.Next()) + "']/name";
            break;
          case 1:
            xpath = "/site/regions/*/item[@id='item" +
                    std::to_string(items.Next()) + "']/description//keyword";
            break;
          default:
            xpath = "/site/open_auctions/open_auction[@id='open_auction" +
                    std::to_string(auctions.Next()) + "']/bidder/personref";
            break;
        }
        read_op(traced, true, svc, xpath, 0);
      }
    }
  }
  check_pending();
  std::fprintf(stderr,
               "[update-mix] %llu ops in %.2f s of op time (%.2f s wall, "
               "%.2f s in oracle checks, %.2f s of it copying), "
               "%llu checkpoints, %llu WAL bytes; untraced op time: %.2f s "
               "repeated reads, %.2f s cold reads, %.2f s writes\n",
               static_cast<unsigned long long>(untraced_log.ops +
                                               traced_log.ops),
               (untraced_log.active_ms + traced_log.active_ms) / 1e3,
               SecondsSince(timed_start), oracle_ms / 1e3, copy_ms / 1e3,
               static_cast<unsigned long long>(
                   mgr->stats().checkpoints.load()),
               static_cast<unsigned long long>(mgr->stats().wal_bytes.load()),
               Sum(untraced_log.repeated_ms) / 1e3,
               Sum(untraced_log.cold_ms) / 1e3,
               Sum(untraced_log.write_ms) / 1e3);

  MetricSet& m = res.metrics;
  const uint64_t checkpoints = mgr->stats().checkpoints.load();
  const uint64_t snapshot_bytes = mgr->stats().snapshot_bytes.load();
  const uint64_t rejected =
      plain->metrics().rejected.load() +
      (traced_svc != nullptr ? traced_svc->metrics().rejected.load() : 0);
  const double hit_rate =
      traced_svc != nullptr ? traced_svc->metrics().CacheHitRate() : 0;
  plain.reset();
  traced_svc.reset();
  mgr.reset();
  std::error_code ec;
  fs::remove_all(dur_dir, ec);

  if (!args.trace) {
    // Per-query means, not medians: a query's reads mix result-cache hits
    // (~0.01 ms) and misses (~1 ms), and where its hit share is near one half
    // its median would flip between the two from run to run.
    std::vector<double> means;
    for (const auto& v : untraced_log.per_query) {
      means.push_back(Sum(v) /
                      static_cast<double>(std::max<size_t>(v.size(), 1)));
    }
    m.Set("setup_s", setup_s, "s");
    m.Set("rss_mb", rss_mb, "MB");
    m.Set("ppf_geomean_ms", Geomean(means), "ms");
    m.Set("qps", static_cast<double>(untraced_log.ops) /
                     (untraced_log.active_ms / 1e3),
          "1/s");
    m.Set("query_p50_ms", Median(untraced_log.repeated_ms), "ms");
    m.Set("query_p99_ms", TailPercentile(untraced_log.repeated_ms, 0.99),
          "ms");
    return res;
  }
  m.Set("cold_p50_ms", Median(untraced_log.cold_ms), "ms");
  m.Set("cold_p99_ms", TailPercentile(untraced_log.cold_ms, 0.99), "ms");
  m.Set("write_p50_ms", Median(untraced_log.write_ms), "ms");
  m.Set("write_p99_ms", TailPercentile(untraced_log.write_ms, 0.99), "ms");
  std::vector<double> gen, ppf, edge, accel;
  for (const SetupTimes& t : setups) {
    gen.push_back(t.generate_s);
    ppf.push_back(t.ppf_load_s);
    edge.push_back(t.edge_load_s);
    accel.push_back(t.accel_build_s);
  }
  m.Set("data.generate_s", Median(gen), "s");
  m.Set("shred.ppf_load_s", Median(ppf), "s");
  m.Set("shred.edge_load_s", Median(edge), "s");
  m.Set("accel.build_s", Median(accel), "s");
  m.Set("durability.create_s", Median(create_s), "s");
  layers.Emit(&m);
  m.Set("service.queue_wait_ms", Median(queue_wait_ms), "ms");
  m.Set("service.queue_wait_p99_ms", TailPercentile(queue_wait_ms, 0.99),
        "ms");
  m.Set("service.exec_ms", Median(exec_ms), "ms");
  m.Set("service.result_cache_hit_rate", hit_rate, "ratio");
  const double w = static_cast<double>(std::max<uint64_t>(traced_writes, 1));
  m.Set("service.cache_entries_invalidated", invalidated_entries / w,
        "count/op");
  m.Set("service.invalidate_us", Median(invalidate_us), "us");
  m.Set("service.rejected", static_cast<double>(rejected), "count");
  m.Set("dml.resolve_us", Median(resolve_us), "us");
  m.Set("dml.insert_ms", Median(insert_ms), "ms");
  m.Set("dml.delete_ms", Median(delete_ms), "ms");
  m.Set("dml.update_ms", Median(update_ms), "ms");
  m.Set("dml.dewey_renumbers", renumbers / w, "count/op");
  m.Set("engine.plan_entries_invalidated", plan_invalidated / w, "count/op");
  m.Set("durability.wal_bytes_per_write", wal_bytes / w, "bytes");
  m.Set("durability.checkpoints", static_cast<double>(checkpoints), "count");
  std::vector<double> ckpt = untraced_log.checkpoint_write_ms;
  ckpt.insert(ckpt.end(), traced_log.checkpoint_write_ms.begin(),
              traced_log.checkpoint_write_ms.end());
  m.Set("durability.checkpoint_ms", Median(ckpt), "ms");
  m.Set("durability.snapshot_bytes", static_cast<double>(snapshot_bytes),
        "bytes");
  m.Set("trace_overhead",
        (traced_log.active_ms / std::max<double>(traced_log.ops, 1)) /
            (untraced_log.active_ms / std::max<double>(untraced_log.ops, 1)),
        "ratio");
  tracer.WriteJsonl(args.out_dir + "/spans-update-mix-" +
                    std::to_string(args.seed) + ".jsonl");
  return res;
}

}  // namespace perfbench
