#include "common.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>
#include <utility>

#include "common/rng.h"
#include "index/candidates.h"
#include "inference/belief_propagation.h"
#include "inference/table_graph.h"
#include "model/label_space.h"
#include "search/baseline_search.h"
#include "search/join_search.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "serve/json.h"
#include "serve/protocol.h"

namespace perfbench {

using namespace webtab;  // NOLINT(build/namespaces)

namespace {

void AppendNumber(double v, std::string* out) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendString(const std::string& s, std::string* out) {
  *out += '"';
  serve::JsonEscape(s, out);
  *out += '"';
}

template <typename Map, typename Fn>
void AppendObject(const Map& map, Fn value, std::string* out) {
  *out += '{';
  bool first = true;
  for (const auto& [key, v] : map) {
    if (!first) *out += ',';
    first = false;
    AppendString(key, out);
    *out += ':';
    value(v, out);
  }
  *out += '}';
}

void AppendArray(const std::vector<double>& values, std::string* out) {
  *out += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out += ',';
    AppendNumber(values[i], out);
  }
  *out += ']';
}

}  // namespace

bool RawResult::WriteJson(const std::string& path) const {
  std::string out;
  out.reserve(1 << 20);
  out += "{\"setup_s\":";
  AppendArray(setup_s, &out);
  out += ",\"scalars\":";
  AppendObject(scalars, AppendNumber, &out);
  out += ",\"latency\":";
  AppendObject(
      latency,
      [](const std::vector<std::vector<double>>& segments, std::string* o) {
        *o += '[';
        for (size_t i = 0; i < segments.size(); ++i) {
          if (i > 0) *o += ',';
          AppendArray(segments[i], o);
        }
        *o += ']';
      },
      &out);
  out += ",\"rates\":";
  AppendObject(rates, AppendArray, &out);
  out += ",\"layer\":";
  AppendObject(layer, AppendNumber, &out);
  out += ",\"layer_samples\":";
  AppendObject(layer_samples, AppendArray, &out);
  out += ",\"failures\":";
  AppendObject(
      failures,
      [](int64_t v, std::string* o) { AppendNumber(static_cast<double>(v), o); },
      &out);
  out += ",\"attempted\":";
  AppendNumber(static_cast<double>(attempted), &out);
  out += ",\"problems\":[";
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i > 0) out += ',';
    AppendString(problems[i], &out);
  }
  out += "],\"digest\":";
  AppendString(digest, &out);
  out += ",\"config\":";
  AppendObject(config, AppendString, &out);
  out += "}\n";
  std::ofstream f(path, std::ios::binary);
  f << out;
  return static_cast<bool>(f);
}

void RecordSegmented(std::vector<TimedSample> samples, double start_s,
                     const std::string& latency_name,
                     const std::string& rate_name, RawResult* raw) {
  if (samples.empty()) return;
  std::stable_sort(samples.begin(), samples.end(),
                   [](const TimedSample& a, const TimedSample& b) {
                     return a.t_s < b.t_s;
                   });
  const size_t n = samples.size();
  const size_t k = std::clamp<size_t>(n / kMinTailSamples, 1, kMaxSegments);
  double prev_end = start_s;
  for (size_t seg = 0; seg < k; ++seg) {
    const size_t begin = seg * n / k, end = (seg + 1) * n / k;
    std::vector<double> values;
    for (size_t i = begin; i < end; ++i) values.push_back(samples[i].ms);
    raw->latency[latency_name].push_back(std::move(values));
    const double seg_end = samples[end - 1].t_s;
    if (!rate_name.empty() && seg_end > prev_end) {
      raw->rates[rate_name].push_back((end - begin) / (seg_end - prev_end));
    }
    prev_end = seg_end;
  }
}

void Digest::Bytes(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::Results(const std::vector<SearchResult>& results) {
  U64(results.size());
  for (const SearchResult& r : results) {
    I64(r.entity);
    Str(r.text);
    F64(r.score);
  }
}

void Digest::Annotation(const TableAnnotation& annotation) {
  U64(annotation.column_types.size());
  for (TypeId t : annotation.column_types) I64(t);
  U64(annotation.cell_entities.size());
  for (const auto& row : annotation.cell_entities) {
    U64(row.size());
    for (EntityId e : row) I64(e);
  }
  U64(annotation.relations.size());
  for (const auto& [pair, rel] : annotation.relations) {
    I64(pair.first);
    I64(pair.second);
    I64(rel.relation);
    U64(rel.swapped ? 1 : 0);
  }
}

std::string Digest::Hex() const {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

uint64_t HashResults(const std::vector<SearchResult>& results) {
  Digest d;
  d.Results(results);
  return d.value();
}

bool SameAnnotation(const TableAnnotation& a, const TableAnnotation& b) {
  return a.column_types == b.column_types &&
         a.cell_entities == b.cell_entities && a.relations == b.relations;
}

double ReadRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<double>(std::strtoll(line.c_str() + 6, nullptr,
                                              10)) /
             1024.0;
    }
  }
  return 0.0;
}

int HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

// --- Query pool -----------------------------------------------------------

namespace {

std::string SelectLine(const World& world, serve::EngineKind engine,
                       RelationId rel, EntityId e2) {
  const Catalog& c = world.catalog;
  std::string line = "{\"op\":\"search\",\"engine\":";
  AppendString(std::string(serve::EngineKindName(engine)), &line);
  line += ",\"relation\":";
  AppendString(std::string(c.RelationName(rel)), &line);
  line += ",\"type1\":";
  AppendString(std::string(c.TypeName(c.relation(rel).subject_type)),
               &line);
  line += ",\"type2\":";
  AppendString(std::string(c.TypeName(c.relation(rel).object_type)), &line);
  line += ",\"e2\":";
  AppendString(std::string(c.EntityName(e2)), &line);
  line += ",\"k\":" + std::to_string(kTopK) + "}";
  return line;
}

std::string JoinLine(const World& world, RelationId r1, RelationId r2,
                     EntityId e3) {
  const Catalog& c = world.catalog;
  std::string line = "{\"op\":\"join\",\"r1\":";
  AppendString(std::string(c.RelationName(r1)), &line);
  line += ",\"e1_is_subject\":false,\"r2\":";
  AppendString(std::string(c.RelationName(r2)), &line);
  line += ",\"e2_is_subject\":true,\"e3\":";
  AppendString(std::string(c.EntityName(e3)), &line);
  line += ",\"k\":" + std::to_string(kTopK) + "}";
  return line;
}

}  // namespace

std::vector<PoolEntry> BuildQueryPool(const World& world,
                                      const std::vector<LabeledTable>& tables,
                                      int max_entries) {
  const Catalog& catalog = world.catalog;
  // Distinct (relation, object entity) pairs from the gold labels whose
  // entity names round-trip through the wire (FindEntityByName).
  std::set<std::pair<RelationId, EntityId>> select_keys;
  std::set<EntityId> directors;
  for (const LabeledTable& lt : tables) {
    for (const auto& [cols, rel] : lt.gold.relations) {
      if (rel.relation == kNa) continue;
      for (int c : {cols.first, cols.second}) {
        for (int r = 0; r < lt.table.rows(); ++r) {
          const EntityId e = lt.gold.EntityOf(r, c);
          if (e == kNa) continue;
          if (world.TrueSubjectsOf(rel.relation, e).empty()) continue;
          if (catalog.FindEntityByName(catalog.EntityName(e)) != e) continue;
          select_keys.insert({rel.relation, e});
          if (rel.relation == world.directed) directors.insert(e);
        }
      }
    }
  }
  std::vector<std::pair<RelationId, EntityId>> keys(select_keys.begin(),
                                                    select_keys.end());
  Rng rng(0x9e3779b97f4a7c15ull);
  rng.Shuffle(&keys);

  std::vector<PoolEntry> pool;
  // Joins: "actors (producers) of movies directed by E3", one eighth of
  // the pool at most.
  const int max_joins = max_entries / 8;
  for (EntityId d : directors) {
    for (RelationId r1 : {world.acted_in, world.produced}) {
      if (static_cast<int>(pool.size()) >= max_joins) break;
      PoolEntry entry;
      entry.line = JoinLine(world, r1, world.directed, d);
      for (EntityId movie : world.TrueSubjectsOf(world.directed, d)) {
        for (EntityId e1 : world.TrueObjectsOf(r1, movie)) {
          entry.relevant.insert(e1);
        }
      }
      if (!entry.relevant.empty()) pool.push_back(std::move(entry));
    }
  }
  const serve::EngineKind select_engines[] = {
      serve::EngineKind::kBaseline, serve::EngineKind::kType,
      serve::EngineKind::kTypeRelation};
  for (const auto& [rel, e2] : keys) {
    for (serve::EngineKind engine : select_engines) {
      if (static_cast<int>(pool.size()) >= max_entries) break;
      PoolEntry entry;
      entry.line = SelectLine(world, engine, rel, e2);
      for (EntityId s : world.TrueSubjectsOf(rel, e2)) {
        entry.relevant.insert(s);
      }
      pool.push_back(std::move(entry));
    }
  }
  rng.Shuffle(&pool);
  return pool;
}

bool RunKernel(const PoolEntry& entry, const CatalogView& catalog,
               const CorpusView& corpus, SearchWorkspace* workspace,
               std::vector<SearchResult>* out, SpanLog* log,
               uint64_t request) {
  Result<serve::WireRequest> wire = serve::ParseWireRequest(entry.line);
  if (!wire.ok()) return false;
  const TopKOptions topk{std::max(0, wire->top_k), /*prune=*/true};
  if (wire->op == serve::WireRequest::Op::kJoin) {
    const JoinQuery query = serve::ResolveJoinQuery(wire->join, catalog);
    {
      ScopedSpan span(log, "search.normalize", request);
      const std::string key = JoinQueryCacheKey(query);
      if (key.empty()) return false;
    }
    ScopedSpan span(log, "search.kernel.join", request);
    JoinSearch(corpus, query, topk, workspace, out);
    return true;
  }
  const SelectQuery query = serve::ResolveSelectQuery(wire->select, catalog);
  NormalizedSelectQuery normalized;
  {
    ScopedSpan span(log, "search.normalize", request);
    normalized = NormalizeSelectQuery(query);
    const std::string key = SelectQueryCacheKey(query, normalized);
    if (key.empty()) return false;
  }
  switch (wire->engine) {
    case serve::EngineKind::kBaseline: {
      ScopedSpan span(log, "search.kernel.baseline", request);
      BaselineSearch(corpus, query, normalized, topk, workspace, out);
      break;
    }
    case serve::EngineKind::kType: {
      ScopedSpan span(log, "search.kernel.type", request);
      TypeSearch(corpus, query, normalized, topk, workspace, out);
      break;
    }
    default: {
      ScopedSpan span(log, "search.kernel.type_relation", request);
      TypeRelationSearch(corpus, query, normalized, topk, workspace, out);
      break;
    }
  }
  return true;
}

void KernelCounters::Add(const SearchWorkspace::QueryStats& stats) {
  ++queries;
  planned += stats.tables_planned;
  scored += stats.tables_scored;
  stopped_early += stats.stopped_early ? 1 : 0;
}

void KernelCounters::Report(RawResult* raw) const {
  const double q = std::max<int64_t>(1, queries);
  raw->layer["search.kernel.tables_planned"] = planned / q;
  raw->layer["search.kernel.tables_scored"] = scored / q;
  raw->layer["search.kernel.scored_frac"] =
      planned > 0 ? static_cast<double>(scored) / planned : 0.0;
  raw->layer["search.kernel.early_stop_frac"] = stopped_early / q;
}

void StageCounters::Report(RawResult* raw) const {
  const double t = std::max<int64_t>(1, tables);
  raw->layer["index.candidates.entity_per_cell"] =
      cells > 0 ? static_cast<double>(entity_candidates) / cells : 0.0;
  raw->layer["index.candidates.types_per_col"] =
      columns > 0 ? static_cast<double>(type_candidates) / columns : 0.0;
  raw->layer["inference.graph.factors"] = factors / t;
  raw->layer["inference.graph.factor_bytes"] = factor_bytes / t;
  raw->layer["inference.bp.iterations"] = bp_iterations / t;
  raw->layer["inference.bp.skip_ratio"] =
      bp_updates + bp_skips > 0
          ? static_cast<double>(bp_skips) / (bp_updates + bp_skips)
          : 0.0;
  raw->layer["inference.bp.converged_frac"] = bp_converged / t;
}

// --- Stage pipeline ---------------------------------------------------------

StagePipeline::StagePipeline(const CatalogView* catalog,
                             const LemmaIndexView* index,
                             const AnnotatorOptions& options,
                             const ClosureCache* prototype)
    : index_(index),
      options_(options),
      closure_(catalog),
      vocab_(index->CopyVocabulary()),
      features_(&closure_, &vocab_, options.features) {
  if (prototype != nullptr) closure_.SeedFrom(*prototype);
}

TableAnnotation StagePipeline::Run(const Table& table, SpanLog* log,
                                   uint64_t request,
                                   StageCounters* counters) {
  TableCandidates candidates;
  {
    ScopedSpan span(log, "index.candidates", request);
    candidates = GenerateCandidates(table, *index_, &closure_,
                                    options_.candidates,
                                    &candidate_workspace_);
  }
  TableLabelSpace space;
  {
    ScopedSpan span(log, "model.label_space", request);
    space = TableLabelSpace::Build(table, candidates);
  }
  TableGraph graph;
  {
    ScopedSpan span(log, "inference.graph_build", request);
    TableGraphOptions graph_options;
    graph_options.use_relations = options_.use_relations;
    graph_options.factor_rep = options_.factor_rep;
    graph = BuildTableGraph(table, space, &features_, options_.weights,
                            graph_options);
  }
  BpResult bp;
  {
    ScopedSpan span(log, "inference.bp", request);
    bp = RunBeliefPropagation(graph.graph, options_.bp, &bp_workspace_);
  }
  TableAnnotation annotation;
  {
    ScopedSpan span(log, "inference.decode", request);
    annotation = graph.DecodeAssignment(bp.assignment, space);
  }
  if (counters != nullptr) {
    ++counters->tables;
    for (int r = 0; r < table.rows(); ++r) {
      for (int c = 0; c < table.cols(); ++c) {
        ++counters->cells;
        counters->entity_candidates +=
            static_cast<int64_t>(candidates.cells[r][c].size());
      }
    }
    for (const auto& types : candidates.column_types) {
      ++counters->columns;
      counters->type_candidates += static_cast<int64_t>(types.size());
    }
    counters->factors += graph.graph.num_factors();
    counters->factor_bytes += graph.graph.FactorMemoryBytes();
    counters->bp_iterations += bp.iterations;
    counters->bp_updates += bp.factor_updates;
    counters->bp_skips += bp.factor_skips;
    counters->bp_converged += bp.converged ? 1 : 0;
  }
  return annotation;
}

TableAnnotation TraceAnnotate(const Table& table, TableAnnotator* annotator,
                              StagePipeline* stages, SpanLog* log,
                              uint64_t request, bool stages_first,
                              StageCounters* counters, bool* mismatch) {
  ScopedSpan root(log, "annotate.table", request);
  TableAnnotation called, staged;
  auto call = [&] {
    ScopedSpan span(log, "annotate.call", request);
    called = annotator->Annotate(table);
  };
  auto stage = [&] {
    ScopedSpan span(log, "annotate.stages", request);
    staged = stages->Run(table, log, request, counters);
  };
  if (stages_first) {
    stage();
    call();
  } else {
    call();
    stage();
  }
  *mismatch = !SameAnnotation(called, staged);
  return called;
}

}  // namespace perfbench
