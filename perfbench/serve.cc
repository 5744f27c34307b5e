// Workloads search_serve and mixed_serve: traffic through the wire
// protocol (ParseWireRequest -> resolve/validate or WireToTable ->
// WebTabService Submit* -> Render*Response) over two mmap'd snapshot
// generations built in set-up.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <mutex>
#include <sched.h>
#include <optional>
#include <thread>
#include <vector>

#include "annotate/corpus_annotator.h"
#include "common/rng.h"
#include "eval/annotation_eval.h"
#include "eval/metrics.h"
#include "eval/search_eval.h"
#include "search/corpus_index.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "storage/snapshot.h"
#include "storage/snapshot_writer.h"
#include "synth/corpus_generator.h"
#include "workloads.h"

namespace perfbench {

using namespace webtab;  // NOLINT(build/namespaces)
using serve::WireRequest;

namespace {

constexpr uint64_t kServeCorpusSeed = 5101;
constexpr int kServeCorpusTables = 1024;
/// Generation A serves corpus tables [0, 896), generation B [128, 1024).
constexpr int kGenerationTables = 896;
constexpr int kGenerationShift = 128;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Threads annotating the corpus in set-up. Fewer than the machine's
/// cores: the per-table times of a set-up that fills every core swing
/// with how many cores the host's other tenants leave free.
constexpr int kSetupThreads = 2;
constexpr int kPoolEntries = 2048;
/// Result cache entries: a quarter of the query pool, so the Zipf draw
/// has a hot set the cache holds and a long tail it cannot.
constexpr int kCacheCapacity = 512;
/// Corpus tables re-annotated stage by stage in traced serve runs.
constexpr int kTracedCorpusTables = 32;
/// mixed_serve: every kAnnotateEvery-th arrival is an annotate. Fixed
/// spacing instead of a coin flip per arrival keeps annotate bursts (and
/// with them the run-to-run spread of queueing tails) down while the
/// arrival times stay Poisson.
constexpr size_t kAnnotateEvery = 8;
/// Every swap makes each worker rebuild its annotate state on its next
/// annotate (serve.worker_warm_ms).
constexpr int64_t kSwapPeriodMs = 2000;

/// mixed_serve annotates fresh tables outside the corpus: small ones
/// (5-15 rows), so at a given load there are many short annotate busy
/// periods per second rather than a few long ones, and the queueing
/// tails searches see settle within a run.
constexpr uint64_t kAnnotatePoolSeed = 5201;
/// More tables than a run sends, so no table is annotated twice.
constexpr int kAnnotatePoolTables = 4096;
constexpr int kAnnotateMaxRows = 15;

/// Inputs of the serve workloads; none depends on --seed.
struct ServeInputs {
  World world;
  std::vector<LabeledTable> corpus;
  std::vector<Table> tables;
  std::vector<PoolEntry> pool;
  /// mixed_serve only: tables to annotate and their {"op":"annotate"}
  /// wire lines.
  std::vector<Table> annotate_tables;
  std::vector<std::string> annotate_lines;
};

std::string AnnotateLine(const Table& table) {
  std::string line = "{\"op\":\"annotate\",\"table\":{";
  auto str = [&line](const std::string& s) {
    line += '"';
    serve::JsonEscape(s, &line);
    line += '"';
  };
  if (table.has_headers()) {
    line += "\"headers\":[";
    for (int c = 0; c < table.cols(); ++c) {
      if (c > 0) line += ',';
      str(table.header(c));
    }
    line += "],";
  }
  line += "\"rows\":[";
  for (int r = 0; r < table.rows(); ++r) {
    line += r > 0 ? ",[" : "[";
    for (int c = 0; c < table.cols(); ++c) {
      if (c > 0) line += ',';
      str(table.cell(r, c));
    }
    line += ']';
  }
  line += "],\"context\":";
  str(table.context());
  line += ",\"id\":" + std::to_string(table.id()) + "}}";
  return line;
}

std::unique_ptr<ServeInputs> MakeInputs(bool annotate_pool) {
  auto in = std::make_unique<ServeInputs>();
  in->world = GenerateWorld(WorldSpec{.seed = kWorldSeed});
  CorpusSpec spec;
  spec.seed = kServeCorpusSeed;
  spec.num_tables = kServeCorpusTables;
  in->corpus = GenerateCorpus(in->world, spec);
  for (const LabeledTable& lt : in->corpus) in->tables.push_back(lt.table);
  if (annotate_pool) {
    CorpusSpec fresh;
    fresh.seed = kAnnotatePoolSeed;
    fresh.num_tables = kAnnotatePoolTables;
    fresh.max_rows = kAnnotateMaxRows;
    for (const LabeledTable& lt : GenerateCorpus(in->world, fresh)) {
      in->annotate_tables.push_back(lt.table);
      in->annotate_lines.push_back(AnnotateLine(lt.table));
    }
  }
  // Queries are drawn from what both generations hold.
  std::vector<LabeledTable> shared(
      in->corpus.begin() + kGenerationShift,
      in->corpus.begin() + kGenerationTables);
  in->pool = BuildQueryPool(in->world, shared, kPoolEntries);
  return in;
}

/// Everything set-up builds; setup_s covers its construction up to a
/// started service.
struct ServeState {
  std::string path[2];  // generation A, generation B
  std::unique_ptr<LemmaIndex> index;
  std::vector<TableAnnotation> annotations;  // per corpus table
  CorpusTimingStats timing;
  serve::SnapshotManager manager;
  std::unique_ptr<serve::WebTabService> service;
  double setup_s = 0, annotate_s = 0, corpus_index_s = 0, write_s = 0;
  double open_ms = 0, bytes = 0;

  ~ServeState() {
    service.reset();
    for (const std::string& p : path) {
      std::error_code ec;
      std::filesystem::remove(p, ec);
    }
  }
};

/// Restricts the calling thread to `cpu`; threads it creates inherit
/// that.
void PinToCpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

/// Builds both generations and starts the service. With `worker_cpu` >= 0
/// the service's threads start on that core alone.
std::unique_ptr<ServeState> BuildServe(const ServeInputs& in,
                                       const std::string& dir,
                                       const serve::ServiceOptions& options,
                                       int worker_cpu, RawResult* raw) {
  auto s = std::make_unique<ServeState>();
  s->path[0] = dir + "/gen_a.snap";
  s->path[1] = dir + "/gen_b.snap";
  const Catalog* catalog = &in.world.catalog;
  const int64_t t0 = NowNs();
  s->index = std::make_unique<LemmaIndex>(catalog);
  CorpusAnnotatorOptions annotate_options;
  annotate_options.num_threads = kSetupThreads;
  std::vector<AnnotatedTable> annotated = AnnotateCorpusParallel(
      catalog, s->index.get(), annotate_options, in.tables, &s->timing);
  const int64_t t1 = NowNs();
  for (const AnnotatedTable& t : annotated) {
    s->annotations.push_back(t.annotation);
  }
  const int64_t t2 = NowNs();
  {
    ClosureCache closure(catalog);
    const CorpusIndex gen_a(
        std::vector<AnnotatedTable>(annotated.begin(),
                                    annotated.begin() + kGenerationTables),
        &closure);
    const CorpusIndex gen_b(
        std::vector<AnnotatedTable>(annotated.begin() + kGenerationShift,
                                    annotated.end()),
        &closure);
    const int64_t t3 = NowNs();
    s->corpus_index_s = NsToMs(t3 - t2) / 1e3;
    const CorpusIndex* gens[2] = {&gen_a, &gen_b};
    for (int g = 0; g < 2; ++g) {
      storage::SnapshotBuilder builder;
      builder.SetCatalog(catalog).SetLemmaIndex(s->index.get()).SetCorpus(
          gens[g]);
      Status written = builder.WriteToFile(s->path[g]);
      if (!written.ok()) raw->Problem("snapshot write: " + written.ToString());
    }
    s->write_s = NsToMs(NowNs() - t3) / 1e3;
  }
  const int64_t t4 = NowNs();
  Result<uint64_t> loaded = s->manager.Load(s->path[0]);
  if (!loaded.ok()) raw->Problem("snapshot open: " + loaded.status().ToString());
  const int64_t t5 = NowNs();
  s->service = std::make_unique<serve::WebTabService>(&s->manager, options);
  cpu_set_t saved;
  const bool pin =
      worker_cpu >= 0 && sched_getaffinity(0, sizeof(saved), &saved) == 0;
  if (pin) PinToCpu(worker_cpu);
  s->service->Start();
  if (pin) sched_setaffinity(0, sizeof(saved), &saved);
  const int64_t t6 = NowNs();
  // The reference copy of the annotations is benchmark bookkeeping.
  s->setup_s = NsToMs((t6 - t0) - (t2 - t1)) / 1e3;
  s->annotate_s = NsToMs(t1 - t0) / 1e3;
  s->open_ms = NsToMs(t5 - t4);
  std::error_code ec;
  s->bytes = static_cast<double>(std::filesystem::file_size(s->path[0], ec) +
                                 std::filesystem::file_size(s->path[1], ec));
  return s;
}

/// Set-up outputs both serve workloads report: set-up layer times, the
/// corpus annotation cost and its quality against the gold labels.
void ReportSetup(const ServeInputs& in, const ServeState& s,
                 RawResult* raw) {
  raw->layer["annotate.corpus.build_s"] = s.annotate_s;
  raw->layer["search.corpus_index.build_s"] = s.corpus_index_s;
  raw->layer["storage.snapshot.write_s"] = s.write_s;
  raw->layer["storage.snapshot.bytes"] = s.bytes;
  raw->layer["storage.snapshot.open_ms"] = s.open_ms;
  AnnotationEvaluator eval;
  for (size_t i = 0; i < in.corpus.size(); ++i) {
    eval.Add(in.corpus[i], s.annotations[i]);
  }
  raw->scalars["entity_acc"] = eval.EntityAccuracy();
  raw->scalars["type_f1"] = eval.type_prf().F1();
  raw->scalars["relation_f1"] = eval.relation_prf().F1();
}

/// After the measured run: set up kSetupReps - 1 more times (timed
/// only), each in a fresh directory. Returns the set-ups' states for
/// callers that report from them; their services are stopped and their
/// files removed.
std::vector<std::unique_ptr<ServeState>> MoreSetups(
    const ServeInputs& in, const std::string& dir,
    const serve::ServiceOptions& options, int worker_cpu, RawResult* raw) {
  std::vector<std::unique_ptr<ServeState>> states;
  for (int rep = 1; rep < kSetupReps; ++rep) {
    const std::string rep_dir = dir + "/setup" + std::to_string(rep);
    std::filesystem::create_directories(rep_dir);
    std::unique_ptr<ServeState> s =
        BuildServe(in, rep_dir, options, worker_cpu, raw);
    raw->setup_s.push_back(s->setup_s);
    s->service.reset();
    s->index.reset();
    states.push_back(std::move(s));
    std::filesystem::remove_all(rep_dir);
  }
  return states;
}

/// The answer every served search must match, per generation and pool
/// entry: the kernel-form engine on an independent mapping of the same
/// file. Also yields MAP (generation A), kernel counters and spans.
struct Truth {
  std::vector<uint64_t> expected[2];
};

Truth VerifyPool(const ServeInputs& in, const ServeState& s, int generations,
                 SpanLog* log, RawResult* raw, Digest* digest) {
  Truth truth;
  KernelCounters counters;
  SearchWorkspace workspace;
  std::vector<SearchResult> results;
  for (int g = 0; g < generations; ++g) {
    Result<storage::Snapshot> snap = storage::Snapshot::Open(s.path[g]);
    if (!snap.ok()) {
      raw->Problem("reference open: " + snap.status().ToString());
      return truth;
    }
    std::vector<double> ap;
    for (size_t i = 0; i < in.pool.size(); ++i) {
      const uint64_t request = (uint64_t{2 + static_cast<unsigned>(g)} << 40) + i;
      if (!RunKernel(in.pool[i], *snap->catalog(), *snap->corpus(),
                     &workspace, &results, log, request)) {
        raw->Problem("pool line does not parse: " + in.pool[i].line);
      }
      counters.Add(workspace.stats());
      truth.expected[g].push_back(HashResults(results));
      digest->Results(results);
      if (g == 0) {
        ap.push_back(JudgeAveragePrecision(results, in.pool[i].relevant,
                                           *snap->catalog()));
      }
    }
    if (g == 0) raw->scalars["search_map"] = MeanAveragePrecision(ap);
  }
  if (log != nullptr) counters.Report(raw);
  return truth;
}

/// Traced serve runs: re-annotate the first corpus tables through
/// Annotate and stage by stage on generation A, as a serving worker
/// would, and check both against the set-up annotations.
void TraceCorpusSample(const ServeInputs& in, const ServeState& s,
                       SpanLog* log, RawResult* raw) {
  Result<std::shared_ptr<const serve::ServingSnapshot>> snap =
      serve::ServingSnapshot::Load(s.path[0], serve::ServingSnapshotOptions());
  if (!snap.ok()) {
    raw->Problem("sample open: " + snap.status().ToString());
    return;
  }
  const serve::ServingSnapshot& gen = **snap;
  Vocabulary vocab = gen.lemma_index()->CopyVocabulary();
  TableAnnotator annotator(&gen.catalog(), gen.lemma_index(),
                           AnnotatorOptions(), &vocab);
  annotator.closure()->SeedFrom(gen.closure_prototype());
  StagePipeline stages(&gen.catalog(), gen.lemma_index(), AnnotatorOptions(),
                       &gen.closure_prototype());
  StageCounters counters;
  int64_t mismatches = 0;
  for (int i = 0; i < kTracedCorpusTables; ++i) {
    bool mismatch = false;
    const TableAnnotation got =
        TraceAnnotate(in.tables[i], &annotator, &stages, log,
                      (uint64_t{4} << 40) + i, i % 2 == 1, &counters,
                      &mismatch);
    if (mismatch || !SameAnnotation(got, s.annotations[i])) ++mismatches;
  }
  if (mismatches > 0) {
    raw->Problem(std::to_string(mismatches) +
                 " corpus tables: Annotate, the stage pipeline and set-up "
                 "disagree");
  }
  counters.Report(raw);
}

const char* FailureReason(const Status& status) {
  switch (status.code()) {
    case StatusCode::kUnavailable:
      return "refused";
    case StatusCode::kDeadlineExceeded:
      return "expired";
    default:
      return "error";
  }
}

/// Swaps the service between the two generations every kSwapPeriodMs
/// from its own thread, which sleeps in between.
class Swapper {
 public:
  explicit Swapper(ServeState* s) : thread_([this, s] { Run(s); }) {}
  ~Swapper() { Stop(); }

  /// Stops the thread and records serve.swap_ms and any failed swap.
  void Finish(RawResult* raw) {
    Stop();
    for (const std::string& e : errors_) raw->Problem("swap: " + e);
    raw->layer_samples["serve.swap_ms"] = ms_;
  }

 private:
  void Run(ServeState* s) {
    std::unique_lock<std::mutex> lock(mu_);
    for (int k = 0;; ++k) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(kSwapPeriodMs),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      const int64_t t0 = NowNs();
      Status swapped = s->service->SwapSnapshot(s->path[(k + 1) % 2]);
      const double ms = NsToMs(NowNs() - t0);
      lock.lock();
      ms_.push_back(ms);
      if (!swapped.ok()) errors_.push_back(swapped.ToString());
    }
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> ms_;
  std::vector<std::string> errors_;
  std::thread thread_;  // last: starts after the members it uses
};

/// One served request as the client saw it.
struct Record {
  int64_t due_ns = 0;     // when it should have been sent (open loop)
  int64_t sent_ns = 0;    // parse start
  int64_t submit_ns = 0;  // parse + resolve done, Submit* called
  int64_t ready_ns = 0;   // future observed ready
  int64_t done_ns = 0;    // response rendered
  double queue_ms = 0, work_ms = 0;
  uint64_t version = 0;
  uint64_t hash = 0;
  uint32_t index = 0;  // query pool entry or annotate table
  bool annotate = false;
  bool ok = false;
  bool traced = false;
  double latency_ms() const { return NsToMs(done_ns - due_ns); }
  double call_ms() const { return NsToMs(ready_ns - submit_ns); }
};

/// Parses and resolves a search/join line against the current
/// generation, pinned in `handle` until the response is rendered, and
/// submits it, stamping `submit_ns` just before the Submit* call.
/// Returns false (with the failure counted) when the line is rejected
/// before submission.
bool SubmitSearchLine(serve::WebTabService* service, const std::string& line,
                      std::future<serve::SearchResponse>* future,
                      serve::SnapshotManager::Handle* handle,
                      int64_t* submit_ns, RawResult* raw) {
  Result<WireRequest> wire = serve::ParseWireRequest(line);
  if (!wire.ok()) {
    raw->Fail("parse");
    return false;
  }
  *handle = service->manager()->Current();
  const CatalogView& catalog = handle->snapshot->catalog();
  const TopKOptions topk{std::max(0, wire->top_k), /*prune=*/true};
  if (wire->op == WireRequest::Op::kJoin) {
    JoinQuery query = serve::ResolveJoinQuery(wire->join, catalog);
    if (!serve::ValidateResolvedJoin(wire->join, query).ok()) {
      raw->Fail("invalid");
      return false;
    }
    *submit_ns = NowNs();
    *future = service->SubmitJoin(std::move(query), topk);
    return true;
  }
  SelectQuery query = serve::ResolveSelectQuery(wire->select, catalog);
  if (!serve::ValidateResolvedSelect(wire->engine, wire->select, query)
           .ok()) {
    raw->Fail("invalid");
    return false;
  }
  *submit_ns = NowNs();
  *future = service->SubmitSearch(wire->engine, std::move(query), topk);
  return true;
}

/// A seeded order of the annotate tables in which every kAnnotateEvery
/// consecutive picks hold one table from each size stratum (by cell
/// count), so the annotate work offered per second varies little
/// between runs.
std::vector<uint32_t> SizeStratifiedOrder(const std::vector<Table>& tables,
                                          Rng* rng) {
  std::vector<uint32_t> by_size(tables.size());
  for (size_t i = 0; i < by_size.size(); ++i) by_size[i] = i;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](uint32_t a, uint32_t b) {
                     return tables[a].rows() * tables[a].cols() <
                            tables[b].rows() * tables[b].cols();
                   });
  const size_t strata = kAnnotateEvery;
  const size_t per = by_size.size() / strata;
  std::vector<std::vector<uint32_t>> stratum(strata);
  for (size_t k = 0; k < strata; ++k) {
    stratum[k].assign(by_size.begin() + k * per,
                      by_size.begin() + (k + 1) * per);
    rng->Shuffle(&stratum[k]);
  }
  std::vector<uint32_t> order;
  std::vector<size_t> pick(strata);
  for (size_t k = 0; k < strata; ++k) pick[k] = k;
  for (size_t round = 0; round < per; ++round) {
    rng->Shuffle(&pick);
    for (size_t k : pick) order.push_back(stratum[k][round]);
  }
  return order;
}

void AddRequestSpans(SpanLog* log, const Record& r, uint64_t request) {
  const int32_t root = log->Add("request", -1, request, r.due_ns, r.done_ns);
  log->Add("serve.protocol.parse", root, request, r.sent_ns, r.submit_ns);
  log->Add("serve.call", root, request, r.submit_ns, r.ready_ns);
  log->Add("serve.protocol.render", root, request, r.ready_ns, r.done_ns);
}

/// Shared post-run accounting of served requests: latency samples,
/// service-side splits, verification against the truth, SLO.
void Account(const std::vector<Record>& records, const Truth& truth,
             const std::vector<uint64_t>& annotation_hashes,
             int num_workers, bool warm_on_annotate, int64_t start_ns,
             RawResult* raw) {
  std::vector<TimedSample> search_ms, annotate_ms;
  std::vector<double> queue_ms, work_search, work_annotate, handoff,
      untraced;
  int64_t met = 0, wrong_search = 0, wrong_annotate = 0;
  // The first requests (annotates, when `warm_on_annotate`) answered by
  // each generation after a swap, in submission order: the per-worker
  // state rebuild lands in their latency.
  std::map<uint64_t, int> warm_seen;
  std::vector<double> warm;
  for (const Record& r : records) {
    if (!r.ok) continue;
    // Generation A answers odd versions (loaded first), B even ones.
    const int gen = r.version % 2 == 1 ? 0 : 1;
    bool right;
    if (r.annotate) {
      right = r.hash == annotation_hashes[r.index];
      if (!right) ++wrong_annotate;
    } else {
      right = r.index < truth.expected[gen].size() &&
              r.hash == truth.expected[gen][r.index];
      if (!right) ++wrong_search;
    }
    if (!right) continue;
    const double latency = r.latency_ms();
    (r.annotate ? annotate_ms : search_ms)
        .push_back({NsToMs(r.done_ns - start_ns) / 1e3, latency});
    if (latency <= (r.annotate ? kAnnotateLimitMs : kSearchLimitMs)) ++met;
    queue_ms.push_back(r.queue_ms);
    (r.annotate ? work_annotate : work_search).push_back(r.work_ms);
    handoff.push_back(r.call_ms() - r.queue_ms - r.work_ms);
    if (!r.traced) untraced.push_back(latency);
    if (r.annotate == warm_on_annotate && r.version >= 2 &&
        warm_seen[r.version]++ < num_workers) {
      warm.push_back(r.call_ms() - r.queue_ms);
    }
  }
  raw->Fail("wrong_search", wrong_search);
  raw->Fail("wrong_annotate", wrong_annotate);
  raw->scalars["slo_met_frac"] =
      raw->attempted > 0 ? static_cast<double>(met) / raw->attempted : 0.0;
  RecordSegmented(std::move(search_ms), 0.0, "search_ms", "search_qps", raw);
  raw->layer_samples["serve.queue_wait_ms"] = std::move(queue_ms);
  raw->layer_samples["serve.work_ms.search"] = std::move(work_search);
  raw->layer_samples["serve.work_ms.annotate"] = std::move(work_annotate);
  raw->layer_samples["serve.handoff_ms"] = std::move(handoff);
  raw->layer_samples["serve.worker_warm_ms"] = std::move(warm);
  raw->layer_samples["trace.untraced_op_ms"] = std::move(untraced);
  raw->config["trace.op_span"] = "request";
  RecordSegmented(std::move(annotate_ms), 0.0, "annotate_ms",
                  "annotate_tables_per_s", raw);
}

/// search_serve annotates only in set-up, so its annotate metrics
/// describe the corpus annotation: one segment per set-up, holding the
/// per-table times across the set-up threads and the tables per second.
void RecordSetupAnnotation(const ServeState& s, RawResult* raw) {
  raw->latency["annotate_ms"].push_back(s.timing.per_table_millis);
  if (s.timing.wall_seconds > 0) {
    raw->rates["annotate_tables_per_s"].push_back(
        s.timing.per_table_millis.size() / s.timing.wall_seconds);
  }
}

void ReportServiceStats(const serve::ServiceStats& stats, RawResult* raw) {
  const double lookups = static_cast<double>(stats.cache.hits +
                                             stats.cache.misses);
  raw->layer["serve.cache.hit_ratio"] =
      lookups > 0 ? stats.cache.hits / lookups : 0.0;
  raw->layer["serve.rejected_overload"] =
      static_cast<double>(stats.rejected_overload);
  raw->layer["serve.expired"] = static_cast<double>(stats.expired);
}

std::vector<uint64_t> AnnotationHashes(
    const std::vector<TableAnnotation>& annotations) {
  std::vector<uint64_t> hashes;
  for (const TableAnnotation& a : annotations) {
    Digest d;
    d.Annotation(a);
    hashes.push_back(d.value());
  }
  return hashes;
}

}  // namespace

void RunSearchServe(const Args& args, RawResult* raw,
                    std::vector<std::unique_ptr<SpanLog>>* logs) {
  const std::unique_ptr<ServeInputs> in = MakeInputs(false);
  // One client and one worker, both on one core: the client yields while
  // it polls for its reply, so every hand-off is a switch on that core.
  // Nothing waits for the host to resume another, idle virtual CPU, a
  // wait that depends on the host's other tenants, not on the program.
  const int clients = 1;
  const int serve_cpu = HardwareThreads() - 1;
  serve::ServiceOptions options;
  options.num_workers = 1;
  options.result_cache_capacity = kCacheCapacity;
  raw->config["clients"] = std::to_string(clients);
  raw->config["workers"] = std::to_string(options.num_workers);
  raw->config["pool"] = std::to_string(in->pool.size());
  raw->config["cache_capacity"] = std::to_string(kCacheCapacity);

  std::unique_ptr<ServeState> s =
      BuildServe(*in, args.out_dir, options, serve_cpu, raw);
  raw->setup_s = {s->setup_s};
  ReportSetup(*in, *s, raw);
  RecordSetupAnnotation(*s, raw);

  std::vector<std::vector<Record>> per_client(clients);
  std::vector<SpanLog*> client_logs(clients, nullptr);
  if (args.trace) {
    for (int c = 0; c < clients; ++c) {
      logs->push_back(std::make_unique<SpanLog>());
      client_logs[c] = logs->back().get();
    }
  }
  std::vector<RawResult> client_raw(clients);
  std::optional<Swapper> swapper(s.get());
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(args.seconds * 1e9);
  auto client = [&](int c) {
    PinToCpu(serve_cpu);
    Rng rng(MixSeed(args.seed, 100 + c));
    std::vector<Record>& records = per_client[c];
    records.reserve(1 << 18);
    for (uint64_t n = 0; NowNs() < end; ++n) {
      Record r;
      r.index = static_cast<uint32_t>(rng.Zipf(in->pool.size(),
                                               kZipfExponent));
      r.traced = client_logs[c] != nullptr && n % 2 == 1;
      r.due_ns = r.sent_ns = NowNs();
      std::future<serve::SearchResponse> future;
      serve::SnapshotManager::Handle handle;
      if (!SubmitSearchLine(s->service.get(), in->pool[r.index].line,
                            &future, &handle, &r.submit_ns, &client_raw[c])) {
        continue;
      }
      while (future.wait_for(std::chrono::seconds(0)) !=
             std::future_status::ready) {
        sched_yield();
      }
      serve::SearchResponse response = future.get();
      r.ready_ns = NowNs();
      const std::string rendered = serve::RenderSearchResponse(
          response, &handle.snapshot->catalog(), kTopK);
      r.done_ns = NowNs();
      r.ok = response.status.ok() && !rendered.empty();
      if (!r.ok) client_raw[c].Fail(FailureReason(response.status));
      r.queue_ms = response.meta.queue_millis;
      r.work_ms = response.meta.work_millis;
      r.version = response.meta.snapshot_version;
      r.hash = HashResults(response.results);
      if (r.traced) {
        AddRequestSpans(client_logs[c], r, (static_cast<uint64_t>(c + 1) << 32) + n);
      }
      records.push_back(r);
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
  swapper->Finish(raw);
  swapper.reset();
  raw->scalars["rss_mb"] = ReadRssMb();
  ReportServiceStats(s->service->stats(), raw);
  // Traced runs also send the first corpus tables through the annotate
  // wire path, so the service's annotate work is measured; each answer
  // must equal the set-up annotation of that table.
  std::vector<double> served_annotate_ms;
  if (args.trace) {
    int64_t mismatches = 0;
    for (int i = 0; i < kTracedCorpusTables; ++i) {
      Result<WireRequest> wire =
          serve::ParseWireRequest(AnnotateLine(in->tables[i]));
      Result<Table> table = wire.ok() ? serve::WireToTable(wire->table)
                                      : Result<Table>(wire.status());
      if (!table.ok()) {
        ++mismatches;
        continue;
      }
      serve::SnapshotManager::Handle handle = s->manager.Current();
      serve::AnnotateResponse response =
          s->service->SubmitAnnotate(std::move(*table)).get();
      const std::string rendered = serve::RenderAnnotateResponse(
          response, &handle.snapshot->catalog());
      if (!response.status.ok() || rendered.empty() ||
          !SameAnnotation(response.annotation, s->annotations[i])) {
        ++mismatches;
      }
      served_annotate_ms.push_back(response.meta.work_millis);
    }
    if (mismatches > 0) {
      raw->Problem(std::to_string(mismatches) +
                   " corpus tables: served annotation differs from set-up");
    }
  }
  s->service->Stop();

  std::vector<Record> records;
  for (int c = 0; c < clients; ++c) {
    records.insert(records.end(), per_client[c].begin(),
                   per_client[c].end());
    for (const auto& [reason, n] : client_raw[c].failures) {
      raw->Fail(reason, n);
    }
  }
  raw->attempted = static_cast<int64_t>(records.size());
  for (const auto& [reason, n] : raw->failures) {
    if (reason == "parse" || reason == "invalid") raw->attempted += n;
  }

  SpanLog* verify_log = nullptr;
  if (args.trace) {
    logs->push_back(std::make_unique<SpanLog>());
    verify_log = logs->back().get();
  }
  Digest digest;
  const Truth truth = VerifyPool(*in, *s, 2, verify_log, raw, &digest);
  for (uint64_t h : AnnotationHashes(s->annotations)) digest.U64(h);
  raw->digest = digest.Hex();
  Account(records, truth, {}, options.num_workers,
          /*warm_on_annotate=*/false, start, raw);
  if (args.trace) {
    raw->layer_samples["serve.work_ms.annotate"] =
        std::move(served_annotate_ms);
    TraceCorpusSample(*in, *s, verify_log, raw);
  }

  s.reset();
  for (const auto& rep :
       MoreSetups(*in, args.out_dir, options, serve_cpu, raw)) {
    RecordSetupAnnotation(*rep, raw);
  }
}

void RunMixedServe(const Args& args, RawResult* raw,
                   std::vector<std::unique_ptr<SpanLog>>* logs) {
  const std::unique_ptr<ServeInputs> in = MakeInputs(true);
  if (args.mixed_rate <= 0) {
    raw->Problem("mixed_serve needs --mixed-rate");
    return;
  }
  serve::ServiceOptions options;
  // One load-generator thread; the rest of the cores serve.
  // One load-generator thread; the rest of the cores serve.
  options.num_workers = std::max(1, std::min(3, HardwareThreads() - 1));
  options.queue_capacity = 4096;
  options.result_cache_capacity = kCacheCapacity;
  raw->config["workers"] = std::to_string(options.num_workers);
  raw->config["rate_per_s"] = std::to_string(args.mixed_rate);
  raw->config["pool"] = std::to_string(in->pool.size());
  raw->config["cache_capacity"] = std::to_string(kCacheCapacity);

  // Seeded Poisson schedule; it runs --seconds and, if needed, until
  // it holds enough annotates for a supported p99.
  struct Arrival {
    int64_t due_ns;
    uint32_t index;
    bool annotate;
  };
  std::vector<Arrival> schedule;
  {
    Rng rng(MixSeed(args.seed, 200));
    const std::vector<uint32_t> order =
        SizeStratifiedOrder(in->annotate_tables, &rng);
    double t = 0;
    int64_t annotates = 0;
    while (t < args.seconds || annotates < kMinTailSamples) {
      t += -std::log(1.0 - rng.UniformReal()) / args.mixed_rate;
      Arrival a;
      a.due_ns = static_cast<int64_t>(t * 1e9);
      a.annotate = schedule.size() % kAnnotateEvery == kAnnotateEvery - 1;
      // Searches are drawn uniformly: with four times more distinct
      // queries than cache entries most of them miss, so the median
      // search runs the kernel instead of sitting between the cache-hit
      // and cache-miss modes, where it would jump from run to run.
      a.index = a.annotate ? order[annotates++ % order.size()]
                           : static_cast<uint32_t>(
                                 rng.Uniform(in->pool.size()));
      schedule.push_back(a);
    }
  }

  std::unique_ptr<ServeState> s =
      BuildServe(*in, args.out_dir, options, /*worker_cpu=*/-1, raw);
  raw->setup_s = {s->setup_s};
  ReportSetup(*in, *s, raw);
  // Reference annotations for every table the schedule sends, each
  // computed by one single-threaded annotator (not part of setup_s).
  std::vector<uint64_t> reference(in->annotate_tables.size(), 0);
  {
    std::vector<uint32_t> sent;
    for (const Arrival& a : schedule) {
      if (a.annotate) sent.push_back(a.index);
    }
    std::sort(sent.begin(), sent.end());
    sent.erase(std::unique(sent.begin(), sent.end()), sent.end());
    std::vector<Table> tables;
    for (uint32_t i : sent) tables.push_back(in->annotate_tables[i]);
    CorpusAnnotatorOptions reference_options;
    reference_options.num_threads = HardwareThreads();
    std::vector<AnnotatedTable> annotated = AnnotateCorpusParallel(
        &in->world.catalog, s->index.get(), reference_options, tables);
    for (size_t k = 0; k < sent.size(); ++k) {
      Digest d;
      d.Annotation(annotated[k].annotation);
      reference[sent[k]] = d.value();
    }
  }
  SpanLog* log = nullptr;
  if (args.trace) {
    logs->push_back(std::make_unique<SpanLog>());
    log = logs->back().get();
  }

  std::optional<Swapper> swapper(s.get());

  struct Pending {
    Record record;
    // Pins the generation whose catalog renders the response.
    serve::SnapshotManager::Handle handle;
    std::future<serve::SearchResponse> search;
    std::future<serve::AnnotateResponse> annotate;
  };
  std::vector<Pending> pending;
  std::vector<Record> records;
  records.reserve(schedule.size());
  std::vector<double> lag_ms;
  lag_ms.reserve(schedule.size());
  const int64_t origin = NowNs() + 1000000;
  size_t next = 0;
  auto send = [&](const Arrival& a, size_t n) {
    Pending p;
    Record& r = p.record;
    r.due_ns = origin + a.due_ns;
    r.index = a.index;
    r.annotate = a.annotate;
    // Trace alternate blocks of kAnnotateEvery arrivals, so traced and
    // untraced requests hold the same share of annotates.
    r.traced = log != nullptr && (n / kAnnotateEvery) % 2 == 1;
    r.sent_ns = NowNs();
    lag_ms.push_back(NsToMs(r.sent_ns - r.due_ns));
    if (a.annotate) {
      Result<WireRequest> wire =
          serve::ParseWireRequest(in->annotate_lines[a.index]);
      Result<Table> table = wire.ok() ? serve::WireToTable(wire->table)
                                      : Result<Table>(wire.status());
      if (!table.ok()) {
        raw->Fail("parse");
        return;
      }
      p.handle = s->manager.Current();
      r.submit_ns = NowNs();
      p.annotate = s->service->SubmitAnnotate(std::move(*table));
    } else {
      if (!SubmitSearchLine(s->service.get(), in->pool[a.index].line,
                            &p.search, &p.handle, &r.submit_ns, raw)) {
        return;
      }
    }
    pending.push_back(std::move(p));
  };
  auto ready = [](auto& future) {
    return future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };
  auto finish = [&](Pending& p) {
    Record& r = p.record;
    r.ready_ns = NowNs();
    if (r.annotate) {
      serve::AnnotateResponse response = p.annotate.get();
      const std::string rendered =
          serve::RenderAnnotateResponse(response,
                                        &p.handle.snapshot->catalog());
      r.done_ns = NowNs();
      r.ok = response.status.ok() && !rendered.empty();
      if (!r.ok) raw->Fail(FailureReason(response.status));
      r.queue_ms = response.meta.queue_millis;
      r.work_ms = response.meta.work_millis;
      r.version = response.meta.snapshot_version;
      Digest d;
      d.Annotation(response.annotation);
      r.hash = d.value();
    } else {
      serve::SearchResponse response = p.search.get();
      const std::string rendered =
          serve::RenderSearchResponse(response,
                                      &p.handle.snapshot->catalog(), kTopK);
      r.done_ns = NowNs();
      r.ok = response.status.ok() && !rendered.empty();
      if (!r.ok) raw->Fail(FailureReason(response.status));
      r.queue_ms = response.meta.queue_millis;
      r.work_ms = response.meta.work_millis;
      r.version = response.meta.snapshot_version;
      r.hash = HashResults(response.results);
    }
    if (r.traced) AddRequestSpans(log, r, records.size());
    records.push_back(r);
  };
  // One spinning thread sends on schedule and harvests completions, so
  // both send lag and completion times are observed within microseconds.
  while (next < schedule.size() || !pending.empty()) {
    while (next < schedule.size() &&
           origin + schedule[next].due_ns <= NowNs()) {
      send(schedule[next], next);
      ++next;
    }
    for (size_t i = 0; i < pending.size();) {
      Pending& p = pending[i];
      if (p.record.annotate ? ready(p.annotate) : ready(p.search)) {
        finish(p);
        pending[i] = std::move(pending.back());
        pending.pop_back();
      } else {
        ++i;
      }
    }
  }
  swapper->Finish(raw);
  swapper.reset();
  raw->scalars["rss_mb"] = ReadRssMb();
  ReportServiceStats(s->service->stats(), raw);
  s->service->Stop();
  raw->attempted = static_cast<int64_t>(schedule.size());
  raw->layer_samples["loadgen.lag_ms"] = std::move(lag_ms);

  SpanLog* verify_log = nullptr;
  if (args.trace) {
    logs->push_back(std::make_unique<SpanLog>());
    verify_log = logs->back().get();
  }
  Digest digest;
  const Truth truth = VerifyPool(*in, *s, 2, verify_log, raw, &digest);
  for (uint64_t h : AnnotationHashes(s->annotations)) digest.U64(h);
  for (uint64_t h : reference) digest.U64(h);
  raw->digest = digest.Hex();
  Account(records, truth, reference, options.num_workers,
          /*warm_on_annotate=*/true, origin, raw);
  if (args.trace) TraceCorpusSample(*in, *s, verify_log, raw);

  s.reset();
  MoreSetups(*in, args.out_dir, options, /*worker_cpu=*/-1, raw);
}

}  // namespace perfbench
