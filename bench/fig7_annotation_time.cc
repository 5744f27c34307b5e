// Regenerates Figure 7: time to annotate a stream of web tables, plus the
// §6.1.2 cost breakdown (paper: 0.7 s/table average on 250k tables, ~80%
// in lemma probes + text similarity, <1% in inference).
#include <algorithm>
#include <iostream>

#include "annotate/corpus_annotator.h"
#include "bench_util.h"
#include "synth/corpus_generator.h"

using namespace webtab;         // NOLINT(build/namespaces)
using namespace webtab::bench;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  int64_t seed = 42;
  int64_t num_tables = 2000;
  int64_t threads = 1;
  FlagSet flags;
  flags.AddInt("seed", &seed, "world seed");
  flags.AddInt("tables", &num_tables, "number of tables to annotate");
  flags.AddInt("threads", &threads, "worker threads (1 = inline)");
  WEBTAB_CHECK_OK(flags.Parse(argc, argv));

  World world = GenerateWorld(DefaultWorldSpec(seed));
  LemmaIndex index(&world.catalog);

  CorpusSpec spec;
  spec.seed = seed + 5;
  spec.num_tables = static_cast<int>(num_tables);
  spec.min_rows = 5;
  spec.max_rows = 60;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }

  CorpusAnnotatorOptions options;
  options.num_threads = static_cast<int>(threads);
  CorpusTimingStats stats;
  std::vector<AnnotatedTable> annotated = AnnotateCorpusParallel(
      &world.catalog, &index, options, tables, &stats);
  (void)annotated;

  std::cout << "=== Figure 7: Time spent annotating tables ===\n";
  std::cout << "tables annotated:   " << stats.per_table_millis.size()
            << "\n";
  std::cout << "worker threads:     " << options.num_threads << "\n";
  std::cout << "total cpu time:     "
            << TablePrinter::Num(stats.total_seconds, 2) << " s\n";
  std::cout << "wall time:          "
            << TablePrinter::Num(stats.wall_seconds, 2) << " s\n";
  std::cout << "mean per table:     "
            << TablePrinter::Num(stats.MeanMillisPerTable(), 2) << " ms\n";
  if (stats.per_table_millis.empty()) {
    std::cout << "(no tables annotated)\n";
    return 0;
  }
  std::vector<double> sorted = stats.per_table_millis;
  std::sort(sorted.begin(), sorted.end());
  auto pct = [&](double p) {
    return sorted[static_cast<size_t>(p * (sorted.size() - 1))];
  };
  std::cout << "p50/p90/p99/max ms: " << TablePrinter::Num(pct(0.5), 2)
            << " / " << TablePrinter::Num(pct(0.9), 2) << " / "
            << TablePrinter::Num(pct(0.99), 2) << " / "
            << TablePrinter::Num(sorted.back(), 2) << "\n";
  std::cout << "throughput:         "
            << TablePrinter::Num(
                   stats.per_table_millis.size() / stats.wall_seconds, 1)
            << " tables/s\n\n";

  std::cout << "=== §6.1.2 cost breakdown ===\n";
  std::cout << "candidate generation (index probes):  "
            << Pct(stats.candidate_seconds / stats.total_seconds) << "%\n";
  std::cout << "graph build (potentials, phi3-heavy): "
            << Pct(stats.graph_seconds / stats.total_seconds) << "%\n";
  std::cout << "inference (message passing):          "
            << Pct(stats.InferenceFraction()) << "%\n";
  std::cout << "candidates + graph build combined:    "
            << Pct(stats.ProbeFraction()) << "%\n";
  std::cout << "\nPaper: ~80% lemma probing + similarity, <1% inference "
               "(0.7 s/table on the authors' 2010 testbed).\n\n";

  // Time series in coarse buckets (the figure's scatter, summarized).
  std::cout << "=== Per-table time series (bucketed means, ms) ===\n";
  const int kBuckets = 10;
  TablePrinter series({"Tables", "Mean ms"});
  size_t per = stats.per_table_millis.size() / kBuckets;
  for (int b = 0; b < kBuckets && per > 0; ++b) {
    double sum = 0.0;
    for (size_t i = b * per; i < (b + 1) * per; ++i) {
      sum += stats.per_table_millis[i];
    }
    series.AddRow({std::to_string(b * per) + "-" +
                       std::to_string((b + 1) * per),
                   TablePrinter::Num(sum / per, 2)});
  }
  series.Print(std::cout);
  return 0;
}
