#include "perfbench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "data/xmark.h"
#include "shred/edge_loader.h"
#include "shred/schema_loader.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {

using xp::engine::Backend;

// ---------------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double TailPercentile(std::vector<double> v, double q, size_t above) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  // Nearest-rank index of quantile q, then pulled down until at least
  // `above` samples lie beyond it.
  size_t idx = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  idx = idx == 0 ? 0 : idx - 1;
  if (n > above) idx = std::min(idx, n - above - 1);
  return v[std::min(idx, n - 1)];
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += std::log(std::max(x, 1e-9));
  return std::exp(s / static_cast<double>(v.size()));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

// ---------------------------------------------------------------- cpus

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
  }
  if (cpus_.size() < 2) cpus_.clear();
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Next() {
  if (cpus_.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// ---------------------------------------------------------------- metrics

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  values_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

std::string MetricSet::Json() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, vu] : values_) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", vu.first);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  return out + "}";
}

// ---------------------------------------------------------------- tracing

int Tracer::Begin(const char* name, int parent, uint64_t request) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, 0, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children always follow their parent, so one pass collects each span's
  // child time.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld, \"parent\": %d, "
                 "\"request\": %llu}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.end_ns - s.start_ns - child_ns[i]),
                 s.parent, static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- corpus

const NamedQuery kXPathMark[17] = {
    {"Q1", "/site/regions/*/item"},
    {"Q2",
     "/site/closed_auctions/closed_auction/annotation/description/parlist/"
     "listitem/text/keyword"},
    {"Q3", "//keyword"},
    {"Q4", "/descendant-or-self::listitem/descendant-or-self::keyword"},
    {"Q5", "/site/regions/*/item[parent::namerica or parent::samerica]"},
    {"Q6", "//keyword/ancestor::listitem"},
    {"Q7", "//keyword/ancestor-or-self::mail"},
    {"Q9",
     "/site/open_auctions/open_auction[@id='open_auction0']/bidder/"
     "preceding-sibling::bidder"},
    {"Q10", "/site/regions/*/item[@id='item0']/following::item"},
    {"Q11",
     "/site/open_auctions/open_auction/bidder[personref/@person='person1']"
     "/preceding::bidder[personref/@person='person0']"},
    {"Q12", "//item[@featured='yes']"},
    {"Q13", "//*[@id]"},
    {"Q21", "/site/regions/*/item[@id='item0']/description//keyword/text()"},
    {"Q22", "/site/regions/namerica/item | /site/regions/samerica/item"},
    {"Q23", "/site/people/person[address and (phone or homepage)]"},
    {"Q24", "/site/people/person[not(homepage)]"},
    {"QA", "/site/open_auctions/open_auction[bidder/date = interval/start]"},
};

const Backend kAllBackends[5] = {Backend::kPpf, Backend::kEdgePpf,
                                 Backend::kAccelerator, Backend::kStaircase,
                                 Backend::kNaive};

const char* BackendMetricPrefix(Backend b) {
  switch (b) {
    case Backend::kPpf:
      return "ppf";
    case Backend::kEdgePpf:
      return "edge";
    case Backend::kAccelerator:
      return "accel";
    case Backend::kStaircase:
      return "staircase";
    case Backend::kNaive:
      return "naive";
  }
  return "?";
}

namespace {

[[noreturn]] void Die(const char* what, const xp::Status& st) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what, st.ToString().c_str());
  std::exit(1);
}

template <typename T>
T Take(xp::Result<T> r, const char* what) {
  if (!r.ok()) Die(what, r.status());
  return std::move(r).value();
}

}  // namespace

std::unique_ptr<Corpus> BuildXMarkCorpus(
    double scale, uint64_t seed, const xp::engine::EngineOptions& options,
    bool traced, Tracer* tracer, SetupTimes* times) {
  auto c = std::make_unique<Corpus>();
  const auto t0 = Clock::now();
  {
    Scoped span(traced ? tracer : nullptr, "data.generate");
    xp::data::XMarkOptions opt;
    opt.scale = scale;
    opt.seed = seed;
    c->doc = xp::data::GenerateXMark(opt);
  }
  const auto t1 = Clock::now();
  c->schema = Take(xp::xsd::ParseXsd(xp::data::XMarkXsd()), "xsd");
  c->graph = std::make_unique<xp::xsd::SchemaGraph>(
      Take(xp::xsd::SchemaGraph::Build(c->schema), "schema graph"));
  if (!traced) {
    c->engine = Take(xp::engine::XPathEngine::Build(c->doc, *c->graph, options),
                     "engine build");
  } else {
    std::unique_ptr<xp::shred::SchemaAwareStore> ppf;
    std::unique_ptr<xp::shred::EdgeStore> edge;
    auto ta = Clock::now();
    if (options.enable_ppf) {
      Scoped span(tracer, "shred.ppf_load");
      ppf = Take(xp::shred::SchemaAwareStore::Create(*c->graph), "ppf store");
      Take(ppf->LoadDocument(c->doc), "ppf load");
    }
    auto tb = Clock::now();
    if (options.enable_edge) {
      Scoped span(tracer, "shred.edge_load");
      edge = Take(xp::shred::EdgeStore::Create(), "edge store");
      Take(edge->LoadDocument(c->doc), "edge load");
    }
    auto tc = Clock::now();
    {
      // With both stores supplied, BuildFromStores only builds the
      // accelerator's pre/post image.
      Scoped span(tracer, "accel.build");
      c->engine = Take(xp::engine::XPathEngine::BuildFromStores(
                           c->doc, *c->graph, std::move(ppf), std::move(edge),
                           options),
                       "engine assemble");
    }
    auto td = Clock::now();
    times->ppf_load_s = MsBetween(ta, tb) / 1e3;
    times->edge_load_s = MsBetween(tb, tc) / 1e3;
    times->accel_build_s = options.enable_accel ? MsBetween(tc, td) / 1e3 : 0;
  }
  times->generate_s = MsBetween(t0, t1) / 1e3;
  times->total_s = SecondsSince(t0);
  return c;
}

// ---------------------------------------------------------------- oracle

std::unique_ptr<Oracle> Oracle::ForMutated(const xp::xml::Document& mutated) {
  std::unique_ptr<Oracle> o(new Oracle());
  o->owned_ = std::make_unique<xp::xml::Document>(
      Take(xp::xml::ParseXml(xp::xml::SerializeXml(mutated)), "oracle copy"));
  o->eval_ = std::make_unique<xp::xpatheval::XPathEvaluator>(*o->owned_);
  return o;
}

const std::vector<xp::xml::NodeId>& Oracle::Answer(const std::string& xpath,
                                                   bool* ok) {
  auto it = memo_.find(xpath);
  if (it == memo_.end()) {
    auto r = eval_->EvaluateString(xpath);
    if (!r.ok()) {
      std::fprintf(stderr, "perfbench: oracle failed on %s: %s\n",
                   xpath.c_str(), r.status().ToString().c_str());
    }
    std::vector<xp::xml::NodeId> answer;
    if (r.ok()) answer = std::move(r).value();
    it = memo_.emplace(xpath, std::make_pair(r.ok(), std::move(answer))).first;
  }
  *ok = it->second.first;
  return it->second.second;
}

bool SameAnswer(const std::vector<xp::xml::NodeId>& engine_nodes,
                const xp::xml::Document& doc,
                const std::vector<xp::xml::NodeId>& expected, bool corrupt) {
  if (corrupt) {
    std::vector<xp::xml::NodeId> copy = engine_nodes;
    if (copy.empty()) {
      copy.push_back(1);
    } else {
      copy.pop_back();
    }
    return SameAnswer(copy, doc, expected);
  }
  if (engine_nodes.size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const xp::xml::NodeId n = engine_nodes[i];
    if (n < 1 || n > doc.size() || !doc.alive(n)) return false;
    if (doc.OrderRank(n) != expected[i]) return false;
  }
  return true;
}

std::vector<bool> TraceSegmentOrder(uint64_t seed) {
  const bool traced_first = seed % 2 == 1;
  return {traced_first, !traced_first, !traced_first, traced_first};
}

}  // namespace perfbench
