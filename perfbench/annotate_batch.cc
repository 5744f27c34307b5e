// Workload annotate_batch: the paper's offline annotation path (§6.1.2).
// One thread calls TableAnnotator::Annotate over a stream of freshly
// generated web-noise tables (CorpusSpec defaults, 5-60 rows), closed
// loop. The first kHeadTables of the stream are fixed and carry the
// quality metrics. Once the head is annotated, the thread also searches
// the batch it annotated with the kernel-form engines, in short bursts
// between stream chunks, so the batch's annotation quality shows as
// search MAP and both kinds of samples spread over the whole run.
#include <memory>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "common/rng.h"
#include "eval/annotation_eval.h"
#include "eval/metrics.h"
#include "eval/search_eval.h"
#include "search/corpus_index.h"
#include "synth/corpus_generator.h"
#include "workloads.h"

namespace perfbench {

using namespace webtab;  // NOLINT(build/namespaces)

namespace {

constexpr uint64_t kHeadSeed = 6101;
constexpr int kChunkTables = 32;
constexpr int kHeadChunks = 4;
constexpr int kHeadTables = kChunkTables * kHeadChunks;
constexpr int kBatchPoolEntries = 512;
/// Search bursts get this share of the thread's busy time.
constexpr double kSearchShare = 0.1;
/// Set-up here takes milliseconds, so it is repeated more often than the
/// serve workloads' before taking the median.
constexpr int kBatchSetupReps = 31;

/// The program state annotate_batch sets up: the lemma index over the
/// catalog and one annotator with a private vocabulary copy.
struct BatchState {
  explicit BatchState(const Catalog* catalog)
      : index(catalog),
        vocab(index.CopyVocabulary()),
        annotator(catalog, &index, AnnotatorOptions(), &vocab) {}
  LemmaIndex index;
  Vocabulary vocab;
  TableAnnotator annotator;
};

double TimedSetup(const World& world, std::unique_ptr<BatchState>* out) {
  const int64_t t0 = NowNs();
  *out = std::make_unique<BatchState>(&world.catalog);
  return NsToMs(NowNs() - t0) / 1e3;
}

std::vector<AnnotatedTable> Batch(
    const std::vector<LabeledTable>& head,
    const std::vector<TableAnnotation>& annotations) {
  std::vector<AnnotatedTable> batch;
  for (size_t i = 0; i < head.size(); ++i) {
    batch.push_back(AnnotatedTable{head[i].table, annotations[i]});
  }
  return batch;
}

/// The search side: the batch's own annotated head as a corpus, its
/// query pool and each query's first answer.
struct BatchSearch {
  BatchSearch(const World& world, const std::vector<LabeledTable>& head,
              const std::vector<TableAnnotation>& annotations)
      : closure(&world.catalog),
        corpus(Batch(head, annotations), &closure),
        pool(BuildQueryPool(world, head, kBatchPoolEntries)) {}
  ClosureCache closure;
  const CorpusIndex corpus;
  const std::vector<PoolEntry> pool;
  std::vector<uint64_t> expected;
};

}  // namespace

void RunAnnotateBatch(const Args& args, RawResult* raw,
                      std::vector<std::unique_ptr<SpanLog>>* logs) {
  const World world = GenerateWorld(WorldSpec{.seed = kWorldSeed});
  SpanLog* log = nullptr;
  if (args.trace) {
    logs->push_back(std::make_unique<SpanLog>());
    log = logs->back().get();
  }

  std::unique_ptr<BatchState> state;
  raw->setup_s = {TimedSetup(world, &state)};
  std::unique_ptr<StagePipeline> stages;
  if (args.trace) {
    stages = std::make_unique<StagePipeline>(
        &world.catalog, &state->index, state->annotator.options());
  }

  std::vector<LabeledTable> head;
  std::vector<TableAnnotation> head_annotations;
  std::unique_ptr<BatchSearch> batch;
  Digest digest;
  // Samples on the thread's busy clock (seconds spent in the timed
  // calls), so per-segment rates exclude stream generation.
  std::vector<TimedSample> annotate_ms, search_ms;
  double annotate_busy_s = 0, search_busy_s = 0;
  StageCounters stage_counters;
  KernelCounters kernel_counters;
  int64_t mismatches = 0, annotated = 0, searched = 0, within_limit = 0;
  int64_t wrong_search = 0;
  Rng rng(MixSeed(args.seed, 0x5ea));
  SearchWorkspace workspace;
  std::vector<SearchResult> results;
  // Traced runs only need the layer means, not end-to-end p99s.
  const int64_t min_samples = args.trace ? kHeadTables : kMinTailSamples;
  const int64_t run_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t run_start = NowNs();

  for (int chunk = 0;; ++chunk) {
    if (NowNs() - run_start >= run_ns && annotated >= min_samples &&
        searched >= min_samples) {
      break;
    }
    CorpusSpec spec;
    spec.seed = chunk < kHeadChunks ? kHeadSeed + chunk
                                    : MixSeed(args.seed, chunk);
    spec.num_tables = kChunkTables;
    std::vector<LabeledTable> tables = GenerateCorpus(world, spec);
    for (LabeledTable& lt : tables) {
      TableAnnotation annotation;
      // Traced runs interleave traced and untraced tables so the
      // tracing overhead is measured under the same conditions.
      if (log != nullptr && annotated % 2 == 1) {
        bool mismatch = false;
        annotation = TraceAnnotate(lt.table, &state->annotator, stages.get(),
                                   log, static_cast<uint64_t>(annotated),
                                   annotated % 4 == 3, &stage_counters,
                                   &mismatch);
        if (mismatch) ++mismatches;
      } else {
        const int64_t t0 = NowNs();
        annotation = state->annotator.Annotate(lt.table);
        const double ms = NsToMs(NowNs() - t0);
        annotate_busy_s += ms / 1e3;
        annotate_ms.push_back({annotate_busy_s, ms});
        if (ms <= kAnnotateLimitMs) ++within_limit;
      }
      if (static_cast<int>(head.size()) < kHeadTables) {
        head.push_back(std::move(lt));
        head_annotations.push_back(std::move(annotation));
      }
      ++annotated;
    }
    if (chunk + 1 < kHeadChunks) continue;

    if (batch == nullptr) {
      // The head is complete: index it, and fix each pool query's
      // answer, MAP and digest once.
      batch = std::make_unique<BatchSearch>(world, head, head_annotations);
      std::vector<double> ap;
      for (const PoolEntry& entry : batch->pool) {
        if (!RunKernel(entry, world.catalog, batch->corpus, &workspace,
                       &results, nullptr, 0)) {
          raw->Problem("pool line does not parse: " + entry.line);
        }
        batch->expected.push_back(HashResults(results));
        digest.Results(results);
        ap.push_back(
            JudgeAveragePrecision(results, entry.relevant, world.catalog));
      }
      raw->scalars["search_map"] = MeanAveragePrecision(ap);
      if (batch->pool.empty()) {
        raw->Problem("empty batch query pool");
        break;
      }
    }
    // Search burst: keep search busy time at kSearchShare of the total.
    const double target_s =
        annotate_busy_s * kSearchShare / (1.0 - kSearchShare);
    while (search_busy_s < target_s) {
      const size_t i = rng.Zipf(batch->pool.size(), kZipfExponent);
      SpanLog* query_log =
          (log != nullptr && searched % 2 == 1) ? log : nullptr;
      const uint64_t request = (uint64_t{1} << 40) + searched;
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(query_log, "search.request", request);
        RunKernel(batch->pool[i], world.catalog, batch->corpus, &workspace,
                  &results, query_log, request);
      }
      const double ms = NsToMs(NowNs() - t0);
      search_busy_s += ms / 1e3;
      const bool right = HashResults(results) == batch->expected[i];
      if (!right) ++wrong_search;
      if (query_log == nullptr) {
        search_ms.push_back({search_busy_s, ms});
        if (right && ms <= kSearchLimitMs) ++within_limit;
      } else {
        kernel_counters.Add(workspace.stats());
      }
      ++searched;
    }
  }
  raw->scalars["rss_mb"] = ReadRssMb();
  if (mismatches > 0) {
    raw->Problem(std::to_string(mismatches) +
                 " traced tables: stage-by-stage annotation differs from "
                 "Annotate");
  }
  raw->Fail("wrong_search", wrong_search);

  // Quality on the fixed head, and the head's digest.
  AnnotationEvaluator eval;
  for (size_t i = 0; i < head.size(); ++i) {
    eval.Add(head[i], head_annotations[i]);
    digest.Annotation(head_annotations[i]);
  }
  raw->scalars["entity_acc"] = eval.EntityAccuracy();
  raw->scalars["type_f1"] = eval.type_prf().F1();
  raw->scalars["relation_f1"] = eval.relation_prf().F1();

  // Re-annotating part of the head with a fresh annotator must give the
  // same annotations as the long-lived one (caches never change output).
  {
    TableAnnotator fresh(&world.catalog, &state->index, AnnotatorOptions(),
                         nullptr);
    int64_t differ = 0;
    for (size_t i = 0; i < head.size(); i += 4) {
      if (!SameAnnotation(fresh.Annotate(head[i].table),
                          head_annotations[i])) {
        ++differ;
      }
    }
    raw->Fail("wrong_annotate", differ);
  }

  const double timed =
      static_cast<double>(annotate_ms.size() + search_ms.size());
  raw->scalars["slo_met_frac"] = timed > 0 ? within_limit / timed : 0.0;
  if (log != nullptr) {
    stage_counters.Report(raw);
    kernel_counters.Report(raw);
    for (const TimedSample& s : annotate_ms) {
      raw->layer_samples["trace.untraced_op_ms"].push_back(s.ms);
    }
    raw->config["trace.op_span"] = "annotate.call";
  }
  RecordSegmented(std::move(annotate_ms), 0.0, "annotate_ms",
                  "annotate_tables_per_s", raw);
  RecordSegmented(std::move(search_ms), 0.0, "search_ms", "search_qps", raw);
  raw->attempted = annotated + searched;
  raw->digest = digest.Hex();
  raw->config["head_tables"] = std::to_string(head.size());
  raw->config["batch_pool"] =
      std::to_string(batch != nullptr ? batch->pool.size() : 0);

  // Further set-ups, timed after the measurement so they do not disturb
  // it or the RSS reading.
  batch.reset();
  stages.reset();
  state.reset();
  for (int rep = 1; rep < kBatchSetupReps; ++rep) {
    raw->setup_s.push_back(TimedSetup(world, &state));
    state.reset();
  }
}

}  // namespace perfbench
