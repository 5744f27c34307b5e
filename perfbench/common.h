// Shared pieces of the benchmark program: the raw result every workload
// fills, output digests, the query pool, the stage-by-stage annotation
// decomposition used by traced runs, and the serving set-up.
#ifndef WEBTAB_PERFBENCH_COMMON_H_
#define WEBTAB_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "annotate/annotator.h"
#include "index/lemma_index.h"
#include "search/query.h"
#include "search/search_workspace.h"
#include "spans.h"
#include "synth/world_generator.h"
#include "table/annotation.h"

namespace perfbench {

using webtab::EntityId;

/// Fixed inputs. The world, the serving corpus and the annotate_batch
/// quality head do not depend on --seed, so quality metrics and output
/// digests are comparable across seeds and commits; the seed drives the
/// traffic (stream tables, query draws, arrival times, annotate picks).
inline constexpr uint64_t kWorldSeed = 42;
inline constexpr int kTopK = 10;
/// Requests counted against the service-level limits.
inline constexpr double kSearchLimitMs = 10.0;
inline constexpr double kAnnotateLimitMs = 100.0;
/// A p99 needs 10 samples beyond it, so 1000 samples.
inline constexpr int64_t kMinTailSamples = 1000;
/// Latency and rate metrics are computed per contiguous segment of a run
/// and reported as the median over segments, so a few seconds of
/// interference from outside the process move one segment, not the
/// result. Each segment keeps at least kMinTailSamples samples.
inline constexpr int kMaxSegments = 12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
  /// mixed_serve arrival rate in requests/s (fixed in BENCHMARK.json).
  double mixed_rate = 0.0;
};

/// What a workload measured, before any percentile arithmetic. Written
/// as JSON for perfbench/run.py, which derives the reported metrics.
struct RawResult {
  /// Seconds per set-up; the first set-up is the one the run used.
  std::vector<double> setup_s;
  /// End-to-end scalars (entity_acc, search_map, ...).
  std::map<std::string, double> scalars;
  /// Raw latency samples (annotate_ms, search_ms), one list per segment.
  std::map<std::string, std::vector<std::vector<double>>> latency;
  /// Throughput per segment (annotate_tables_per_s, search_qps).
  std::map<std::string, std::vector<double>> rates;
  /// Per-layer scalars and raw samples.
  std::map<std::string, double> layer;
  std::map<std::string, std::vector<double>> layer_samples;
  /// Failed operations by reason; their sum is the `failed` count.
  std::map<std::string, int64_t> failures;
  int64_t attempted = 0;
  /// Verification findings that make the run incorrect.
  std::vector<std::string> problems;
  std::string digest;
  std::map<std::string, std::string> config;

  void Fail(const std::string& reason, int64_t n = 1) {
    if (n > 0) failures[reason] += n;
  }
  void Problem(const std::string& what) { problems.push_back(what); }
  bool WriteJson(const std::string& path) const;
};

/// One latency sample and the time it completed, in seconds on the
/// clock its rate is measured by.
struct TimedSample {
  double t_s;
  double ms;
};

/// Sorts `samples` by completion time and splits them into up to
/// kMaxSegments contiguous segments of at least kMinTailSamples (one
/// segment when there are fewer). Records each segment's latencies under
/// `latency_name` and, unless `rate_name` is empty, its throughput:
/// samples over the clock time since the previous segment ended (the
/// first segment starts at `start_s`).
void RecordSegmented(std::vector<TimedSample> samples, double start_s,
                     const std::string& latency_name,
                     const std::string& rate_name, RawResult* raw);

/// FNV-1a over bytes; the digests two commits are compared by.
class Digest {
 public:
  void Bytes(const void* data, size_t n);
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void I64(int64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void Results(const std::vector<webtab::SearchResult>& results);
  void Annotation(const webtab::TableAnnotation& annotation);
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

uint64_t HashResults(const std::vector<webtab::SearchResult>& results);
bool SameAnnotation(const webtab::TableAnnotation& a,
                    const webtab::TableAnnotation& b);
double ReadRssMb();
int HardwareThreads();

/// One distinct query the traffic draws from: its wire line and the
/// entities the world's hidden truth makes relevant.
struct PoolEntry {
  std::string line;
  std::unordered_set<EntityId> relevant;
};

/// Builds up to `max_entries` distinct queries answerable from the gold
/// labels of `tables`, all four engines at k = kTopK (select queries on
/// every gold relation, join queries through `directed`), shuffled by a
/// fixed seed so Zipf rank order does not depend on --seed.
std::vector<PoolEntry> BuildQueryPool(
    const webtab::World& world,
    const std::vector<webtab::LabeledTable>& tables, int max_entries);

/// Runs one pool entry through the kernel-form engine with a reused
/// workspace, as the serving worker does: wire parse, resolve, then
/// normalize + cache key (span search.normalize) and the kernel (span
/// search.kernel.<engine>). Returns false when the line does not parse.
bool RunKernel(const PoolEntry& entry, const webtab::CatalogView& catalog,
               const webtab::CorpusView& corpus,
               webtab::SearchWorkspace* workspace,
               std::vector<webtab::SearchResult>* out, SpanLog* log,
               uint64_t request);

/// Kernel counters over many RunKernel calls.
struct KernelCounters {
  int64_t queries = 0;
  int64_t planned = 0;
  int64_t scored = 0;
  int64_t stopped_early = 0;
  void Add(const webtab::SearchWorkspace::QueryStats& stats);
  void Report(RawResult* raw) const;
};

/// Per-table counters of the annotation stages.
struct StageCounters {
  int64_t tables = 0;
  int64_t cells = 0;
  int64_t entity_candidates = 0;
  int64_t columns = 0;
  int64_t type_candidates = 0;
  int64_t factors = 0;
  int64_t factor_bytes = 0;
  int64_t bp_iterations = 0;
  int64_t bp_updates = 0;
  int64_t bp_skips = 0;
  int64_t bp_converged = 0;
  void Report(RawResult* raw) const;
};

/// The annotation pipeline called stage by stage through public
/// functions, with its own caches and workspaces, so a traced run can
/// time GenerateCandidates, TableLabelSpace::Build, BuildTableGraph,
/// RunBeliefPropagation and DecodeAssignment separately. Its output
/// must equal TableAnnotator::Annotate's for the same options.
class StagePipeline {
 public:
  /// `prototype`, when given, seeds the closure cache the way a
  /// serving worker seeds its annotator.
  StagePipeline(const webtab::CatalogView* catalog,
                const webtab::LemmaIndexView* index,
                const webtab::AnnotatorOptions& options,
                const webtab::ClosureCache* prototype = nullptr);
  webtab::TableAnnotation Run(const webtab::Table& table, SpanLog* log,
                              uint64_t request, StageCounters* counters);

 private:
  const webtab::LemmaIndexView* index_;
  webtab::AnnotatorOptions options_;
  webtab::ClosureCache closure_;
  webtab::Vocabulary vocab_;
  webtab::FeatureComputer features_;
  webtab::CandidateWorkspace candidate_workspace_;
  webtab::BpWorkspace bp_workspace_;
};

/// Annotates `table` twice, with `annotator` (span "annotate.call") and
/// stage by stage (span "annotate.stages"), both under a root span
/// "annotate.table"; `stages_first` picks the order so neither side
/// always runs second on warm CPU caches. Returns Annotate's output and
/// sets *mismatch when the stage pipeline disagrees with it.
webtab::TableAnnotation TraceAnnotate(const webtab::Table& table,
                                      webtab::TableAnnotator* annotator,
                                      StagePipeline* stages, SpanLog* log,
                                      uint64_t request, bool stages_first,
                                      StageCounters* counters,
                                      bool* mismatch);

}  // namespace perfbench

#endif  // WEBTAB_PERFBENCH_COMMON_H_
