// Shared pieces of the xprel benchmark binary: clocks and statistics, the
// benchmark's own span recorder, the metric sink, the XMark corpus set-up,
// the XPathMark query list and the xpatheval answer oracle.
#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/trace.h"
#include "engine/engine.h"
#include "service/query_service.h"
#include "xml/document.h"
#include "xpatheval/evaluator.h"
#include "xsd/schema_graph.h"
#include "xsd/xsd_parser.h"

namespace perfbench {

namespace xp = ::xprel;

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ---------------------------------------------------------------- arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Multiplies every workload's XMark scale; 1 for real runs, small for the
  // smoke test.
  double scale_factor = 1.0;
  // Self-test: deliberately corrupt one answer before it is checked, so the
  // run must report it as a failure.
  bool corrupt_one_answer = false;
  // Directory (inside the checkout) for span dumps and result records.
  std::string out_dir = ".bench_build/perfbench-out";
};

// ---------------------------------------------------------------- statistics

double Median(std::vector<double> v);
// The value with exactly `above` samples above it in sorted order, i.e. the
// highest percentile the sample supports with that many samples beyond it;
// never higher than quantile q. Returns the max when the sample is tiny.
double TailPercentile(std::vector<double> v, double q, size_t above = 10);
double Geomean(const std::vector<double>& v);
// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMb();

// ---------------------------------------------------------------- cpus

// Moves the calling thread round-robin over the CPUs it may run on, one
// CPU per Next(), and restores its affinity when destroyed. On a shared
// host each vCPU is slowed in its own phases (under a second to minutes
// long, up to 2x on cache-resident work); a single caller left on one vCPU
// measures that vCPU's phase, one that rotates measures all of them. A
// no-op with one CPU or when affinity is refused.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void Next();

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------- metrics

// Ordered name -> (value, unit) map printed as the result line's "metrics".
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

// ---------------------------------------------------------------- tracing

// The benchmark's own span recorder: one span per call into a layer (name,
// start, end, parent span, request id), kept in memory and written out as
// JSON lines when the run ends. Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
    uint64_t request;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // Opens a span (-1 when disabled); End(-1) is a no-op.
  int Begin(const char* name, int parent, uint64_t request);
  void End(int id);
  // Thread-safe: concurrent clients draw request ids.
  uint64_t NextRequest() {
    return last_request_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Writes every span as one JSON object per line, with its self time
  // (duration minus the time its child spans cover).
  bool WriteJsonl(const std::string& path) const;

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::atomic<uint64_t> last_request_{0};
};

class Scoped {
 public:
  Scoped(Tracer* t, const char* name, int parent = -1, uint64_t request = 0)
      : t_(t != nullptr && t->enabled() ? t : nullptr),
        id_(t_ != nullptr ? t_->Begin(name, parent, request) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Tracer* t_;
  int id_;
};

// ---------------------------------------------------------------- corpus

struct NamedQuery {
  const char* id;
  const char* xpath;
};
// The paper's XPathMark subset (Appendix B) plus Q-A.
extern const NamedQuery kXPathMark[17];
constexpr size_t kNumXPathMark = 17;

extern const xp::engine::Backend kAllBackends[5];
const char* BackendMetricPrefix(xp::engine::Backend b);

// A generated XMark document loaded into an engine. Member order matters:
// the engine references the document and the graph, the graph the schema.
struct Corpus {
  xp::xml::Document doc;
  xp::xsd::Schema schema;
  std::unique_ptr<xp::xsd::SchemaGraph> graph;
  std::unique_ptr<xp::engine::XPathEngine> engine;
};

// Set-up stage times of one BuildXMarkCorpus call (seconds). The stage
// split is measured only when `traced` is set; otherwise the store loaders
// run inside XPathEngine::Build and only `total_s` is known.
struct SetupTimes {
  double generate_s = 0;
  double ppf_load_s = 0;
  double edge_load_s = 0;
  double accel_build_s = 0;
  double total_s = 0;
};

// Generates XMark at `scale` from `seed` and loads it under the stores
// `options` enables. Traced builds call the store loaders one by one and
// assemble the engine with BuildFromStores, so each loader is timed on its
// own; untraced builds call XPathEngine::Build. Exits on failure.
std::unique_ptr<Corpus> BuildXMarkCorpus(
    double scale, uint64_t seed, const xp::engine::EngineOptions& options,
    bool traced, Tracer* tracer, SetupTimes* times);

// ---------------------------------------------------------------- oracle

// Reference answers from the xpatheval evaluator. The evaluator treats node
// ids as preorder positions, which holds for a freshly built document; for
// a mutated one, build the oracle over a serialize -> parse copy and map
// engine answers through Document::OrderRank (see SameAnswer).
class Oracle {
 public:
  // `doc` must be unmutated (ids are preorder) and outlive the oracle.
  explicit Oracle(const xp::xml::Document& doc)
      : eval_(std::make_unique<xp::xpatheval::XPathEvaluator>(doc)) {}
  // Copies `mutated` through SerializeXml -> ParseXml, so ids are preorder.
  static std::unique_ptr<Oracle> ForMutated(const xp::xml::Document& mutated);

  // Memoized per query string; *ok is false when the evaluator failed.
  const std::vector<xp::xml::NodeId>& Answer(const std::string& xpath,
                                             bool* ok);

 private:
  Oracle() = default;
  std::unique_ptr<xp::xml::Document> owned_;  // the copy ForMutated made
  std::unique_ptr<xp::xpatheval::XPathEvaluator> eval_;
  // xpath -> (evaluated ok, answer)
  std::unordered_map<std::string,
                     std::pair<bool, std::vector<xp::xml::NodeId>>>
      memo_;
};

// True when `engine_nodes` (ids of `doc`, in the engine's order) name the
// same nodes, in the same order, as `expected` (preorder positions). With
// `corrupt` set (the self-test switch) a copy of the answer loses its last
// node, or gains node 1 when it is empty, before the comparison, so the
// answer must be reported wrong.
bool SameAnswer(const std::vector<xp::xml::NodeId>& engine_nodes,
                const xp::xml::Document& doc,
                const std::vector<xp::xml::NodeId>& expected,
                bool corrupt = false);

// ---------------------------------------------------------------- layers

// Per-layer accumulator for reads, fed from the spans and counters the
// program already exposes (engine "plan"/"execute" spans, rel::ExecTrace
// step actuals, rel::QueryStats, the service's per-request trace records)
// plus the benchmark's own timings around parse and translate calls.
// Emit() turns the sums into the rel.* / engine.* / xpath.* / translate.* /
// accel.staircase_us metrics (times are per-operation means in us).
struct ReadLayers {
  uint64_t reads = 0;           // traced reads that reached the engine
  uint64_t sql_reads = 0;       // ...of which executed SQL plans
  uint64_t staircase_reads = 0; // ...of which ran the staircase evaluator
  double run_us = 0;            // XPathEngine::Run wall time (engine reads)
  double plan_hit_us = 0, plan_miss_us = 0;
  uint64_t plan_hits = 0, plan_misses = 0;
  double execute_us = 0, steps_us = 0, staircase_us = 0;
  uint64_t parses = 0;
  double parse_us = 0, translate_us = 0;
  // rel::QueryStats sums (max for the peaks).
  double rows_scanned = 0, index_probes = 0, hash_join_probes = 0,
         merge_join_rounds = 0, batches = 0, output_rows = 0,
         bitmap_tests = 0, bitmap_hits = 0, exists_evals = 0,
         exists_hits = 0, morsels = 0, morsel_steals = 0;
  double bytes_reserved_peak = 0, parallel_threads = 0;

  void AddStats(const xp::rel::QueryStats& s);
  // Engine spans of one direct Run() (plan/execute) and its step actuals.
  void AddEngineTrace(const xp::TraceContext& ctx,
                      const xp::rel::ExecTrace& etrace, bool staircase);
  // The service's trace record of one executed (non-cache-hit) request:
  // rendered span tree, step actuals and worker execution time.
  void AddServiceTrace(const xp::service::TraceRecord& rec);
  void Emit(MetricSet* m) const;
};

// ---------------------------------------------------------------- results

// What one workload run hands back to main(): operation counts, the
// metrics of the requested kind, and per-query result node counts.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;  // errors, rejections, timeouts and wrong answers
  uint64_t wrong = 0;   // of which wrong answers
  MetricSet metrics;
  std::vector<std::pair<std::string, size_t>> result_nodes;
  std::string scales;  // for the host/run fingerprint, e.g. "0.1"
};

// Order of the untraced (false) and traced (true) segments of a traced run:
// A-B-B-A, with the side that goes first alternating with the seed, so
// neither side always runs warm.
std::vector<bool> TraceSegmentOrder(uint64_t seed);

// Median of `samples` over `k` repetitions of `f` (seconds each).
template <typename F>
double MedianSetup(int k, F&& f) {
  std::vector<double> s;
  for (int i = 0; i < k; ++i) s.push_back(f(i));
  return Median(std::move(s));
}

// Workload entry points.
RunResult RunFig4Small(const Args& args);
RunResult RunXMarkLargeService(const Args& args);
RunResult RunUpdateMix(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
