#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "perfbench.h"

namespace perfbench {

namespace {

double Per(double total, uint64_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

// Sums "time=<n>us" fields of the service's step-actuals text.
double SumStepTimes(const std::string& text) {
  double total = 0;
  size_t pos = 0;
  while ((pos = text.find("time=", pos)) != std::string::npos) {
    pos += 5;
    total += std::strtod(text.c_str() + pos, nullptr);
  }
  return total;
}

}  // namespace

void ReadLayers::AddStats(const xp::rel::QueryStats& s) {
  rows_scanned += static_cast<double>(s.rows_scanned);
  index_probes += static_cast<double>(s.index_probes);
  hash_join_probes += static_cast<double>(s.hash_join_probes);
  merge_join_rounds += static_cast<double>(s.merge_join_rounds);
  batches += static_cast<double>(s.batches_emitted);
  output_rows += static_cast<double>(s.output_rows);
  bitmap_tests += static_cast<double>(s.bitmap_prefilter_tests);
  bitmap_hits += static_cast<double>(s.bitmap_prefilter_hits);
  exists_evals += static_cast<double>(s.subquery_evals);
  exists_hits += static_cast<double>(s.exists_cache_hits);
  morsels += static_cast<double>(s.morsels_scheduled);
  morsel_steals += static_cast<double>(s.morsel_steals);
  bytes_reserved_peak =
      std::max(bytes_reserved_peak, static_cast<double>(s.bytes_reserved_peak));
  parallel_threads =
      std::max(parallel_threads, static_cast<double>(s.parallel_threads));
}

void ReadLayers::AddEngineTrace(const xp::TraceContext& ctx,
                                const xp::rel::ExecTrace& etrace,
                                bool staircase) {
  for (const auto& span : ctx.Snapshot()) {
    if (span.end_us < span.start_us) continue;
    const double us = static_cast<double>(span.end_us - span.start_us);
    const std::string_view name = span.name;
    if (name == "plan") {
      if (span.note.find("cache=hit") != std::string::npos) {
        plan_hit_us += us;
        ++plan_hits;
      } else {
        plan_miss_us += us;
        ++plan_misses;
      }
    } else if (name == "execute" && span.parent < 0) {
      (staircase ? staircase_us : execute_us) += us;
    }
  }
  for (const auto& block : etrace.blocks) {
    for (const auto& step : block) {
      steps_us += static_cast<double>(step.time_us);
    }
  }
  ++reads;
  ++(staircase ? staircase_reads : sql_reads);
}

void ReadLayers::AddServiceTrace(const xp::service::TraceRecord& rec) {
  // Lines look like "  execute 987µs [rows=12]"; only the engine's
  // top-level plan and execute spans are read here.
  std::istringstream in(rec.spans);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == ' ') continue;
    std::istringstream words(line);
    std::string name, dur;
    words >> name >> dur;
    const double us = std::strtod(dur.c_str(), nullptr);
    if (name == "plan") {
      if (line.find("cache=hit") != std::string::npos) {
        plan_hit_us += us;
        ++plan_hits;
      } else {
        plan_miss_us += us;
        ++plan_misses;
      }
    } else if (name == "execute") {
      execute_us += us;
    }
  }
  steps_us += SumStepTimes(rec.step_actuals);
  run_us += rec.elapsed_ms * 1e3;
  ++reads;
  ++sql_reads;
}

void ReadLayers::Emit(MetricSet* m) const {
  m->Set("xpath.parse_us", Per(parse_us, parses), "us");
  m->Set("translate.ppf_us", Per(translate_us, parses), "us");
  m->Set("engine.plan_us", Per(plan_miss_us, plan_misses), "us");
  m->Set("engine.plan_cache_hit_rate",
         Per(static_cast<double>(plan_hits), plan_hits + plan_misses), "ratio");
  m->Set("rel.execute_us", Per(execute_us, sql_reads), "us");
  m->Set("rel.steps_us", Per(steps_us, sql_reads), "us");
  m->Set("rel.unattributed_us", Per(execute_us - steps_us, sql_reads), "us");
  m->Set("rel.rows_scanned", Per(rows_scanned, reads), "rows/op");
  m->Set("rel.index_probes", Per(index_probes, reads), "count/op");
  m->Set("rel.hash_join_probes", Per(hash_join_probes, reads), "count/op");
  m->Set("rel.merge_join_rounds", Per(merge_join_rounds, reads), "count/op");
  m->Set("rel.batches", Per(batches, reads), "count/op");
  m->Set("rel.output_per_scanned",
         rows_scanned > 0 ? output_rows / rows_scanned : 0, "ratio");
  m->Set("rel.bitmap_hit_ratio",
         bitmap_tests > 0 ? bitmap_hits / bitmap_tests : 0, "ratio");
  m->Set("rel.exists_hit_ratio",
         exists_evals > 0 ? exists_hits / exists_evals : 0, "ratio");
  m->Set("rel.bytes_reserved_peak", bytes_reserved_peak, "bytes");
  m->Set("rel.morsels", Per(morsels, reads), "count/op");
  m->Set("rel.morsel_steal_ratio", morsels > 0 ? morsel_steals / morsels : 0,
         "ratio");
  m->Set("rel.parallel_threads", parallel_threads, "count");
  const double plan_us = plan_hit_us + plan_miss_us;
  const double assemble = run_us - plan_us - execute_us - staircase_us;
  m->Set("engine.assemble_us", Per(assemble, reads), "us");
  m->Set("engine.assemble_share", run_us > 0 ? assemble / run_us : 0,
         "ratio");
  m->Set("accel.staircase_us", Per(staircase_us, staircase_reads), "us");
}

}  // namespace perfbench
