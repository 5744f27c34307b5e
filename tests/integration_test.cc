// End-to-end pipeline tests over the generated world: extraction →
// candidate generation → collective inference → evaluation → search.
// These assert the paper's *qualitative* results at small scale.
#include <gtest/gtest.h>

#include <unordered_set>
#include <algorithm>

#include "annotate/annotator.h"
#include "common/rng.h"
#include "annotate/corpus_annotator.h"
#include "baseline/lca_annotator.h"
#include "baseline/majority_annotator.h"
#include "eval/annotation_eval.h"
#include "eval/metrics.h"
#include "eval/search_eval.h"
#include "full_rank.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "synth/datasets.h"
#include "synth/page_generator.h"
#include "table/table_extractor.h"
#include "test_world.h"

namespace webtab {
namespace {

using testing_util::FullRank;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

struct EvalOutcome {
  AnnotationEvaluator collective;
  AnnotationEvaluator lca;
  AnnotationEvaluator majority;
};

EvalOutcome RunAll(const std::vector<LabeledTable>& data) {
  const World& world = SharedWorld();
  TableAnnotator annotator(&world.catalog, &SharedIndex());
  EvalOutcome out;
  for (const LabeledTable& lt : data) {
    TableCandidates cands;
    TableAnnotation pred =
        annotator.AnnotateWithCandidates(lt.table, &cands);
    out.collective.Add(lt, pred);
    BaselineResult lca = AnnotateLca(lt.table, cands, annotator.closure(),
                                     annotator.features(),
                                     annotator.options().weights);
    out.lca.Add(lt, lca.annotation, &lca.column_type_sets);
    BaselineResult maj = AnnotateMajority(
        lt.table, cands, annotator.closure(), annotator.features(),
        annotator.options().weights);
    out.majority.Add(lt, maj.annotation, &maj.column_type_sets);
  }
  return out;
}

TEST(IntegrationTest, CollectiveBeatsBaselinesFigure6Shape) {
  Datasets data = MakeDatasets(SharedWorld(), 0.15, 321);
  EvalOutcome wiki = RunAll(data.wiki_manual);

  // Entity task: Collective strictly best (Figure 6 top block).
  EXPECT_GT(wiki.collective.EntityAccuracy(),
            wiki.lca.EntityAccuracy());
  EXPECT_GT(wiki.collective.EntityAccuracy(),
            wiki.majority.EntityAccuracy());
  EXPECT_GT(wiki.collective.EntityAccuracy(), 0.7);

  // Type task: Collective strictly best, baselines far behind (middle
  // block; LCA over-generalizes, Majority over-predicts).
  EXPECT_GT(wiki.collective.type_prf().F1(), wiki.lca.type_prf().F1());
  EXPECT_GT(wiki.collective.type_prf().F1(),
            wiki.majority.type_prf().F1());
  EXPECT_LT(wiki.lca.type_prf().F1(), 0.6);

  // Relation task: Collective >= Majority (bottom block; LCA has none).
  EXPECT_GE(wiki.collective.relation_prf().F1(),
            wiki.majority.relation_prf().F1());
  EXPECT_EQ(wiki.lca.relation_prf().predicted, 0);
}

TEST(IntegrationTest, WikiCleanerThanWebForCollective) {
  Datasets data = MakeDatasets(SharedWorld(), 0.15, 321);
  EvalOutcome wiki = RunAll(data.wiki_manual);
  EvalOutcome web = RunAll(data.web_manual);
  // §6.1.1: accuracy on Wiki Manual exceeds the noisier Web Manual.
  EXPECT_GE(wiki.collective.EntityAccuracy(),
            web.collective.EntityAccuracy());
}

TEST(IntegrationTest, RelationsOnlyDatasetEvaluates) {
  Datasets data = MakeDatasets(SharedWorld(), 0.15, 321);
  EvalOutcome outcome = RunAll(data.web_relations);
  EXPECT_GT(outcome.collective.relation_prf().gold, 0);
  EXPECT_GT(outcome.collective.relation_prf().F1(), 0.4);
  EXPECT_EQ(outcome.collective.entity_counter().total, 0);
}

TEST(IntegrationTest, ExtractionPipelineFeedsAnnotator) {
  // Render labeled tables to HTML, re-extract, annotate, evaluate: the
  // full crawl pipeline (§3.2 -> §4 -> §6).
  const World& world = SharedWorld();
  CorpusSpec spec;
  spec.seed = 88;
  spec.num_tables = 6;
  spec.min_rows = 4;
  spec.max_rows = 8;
  spec.header_drop_prob = 0.0;
  std::vector<LabeledTable> labeled = GenerateCorpus(world, spec);

  std::vector<Table> to_render;
  for (const LabeledTable& lt : labeled) to_render.push_back(lt.table);
  std::string page = RenderPage(to_render, PageSpec{});

  TableExtractor extractor;
  std::vector<Table> extracted;
  extractor.ExtractFromPage(page, &extracted);
  ASSERT_EQ(extracted.size(), labeled.size());

  TableAnnotator annotator(&world.catalog, &SharedIndex());
  AnnotationEvaluator eval;
  for (size_t i = 0; i < extracted.size(); ++i) {
    // Re-extracted tables must equal the originals cell-for-cell.
    ASSERT_EQ(extracted[i].rows(), labeled[i].table.rows());
    ASSERT_EQ(extracted[i].cols(), labeled[i].table.cols());
    TableAnnotation pred = annotator.Annotate(extracted[i]);
    eval.Add(labeled[i], pred);
  }
  EXPECT_GT(eval.EntityAccuracy(), 0.6);
}

TEST(IntegrationTest, SearchOrderingFigure9Shape) {
  const World& world = SharedWorld();
  TableAnnotator annotator(&world.catalog, &SharedIndex());
  CorpusSpec spec;
  spec.seed = 99;
  spec.num_tables = 150;
  spec.min_rows = 5;
  spec.max_rows = 20;
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  CorpusIndex cindex(AnnotateCorpus(&annotator, tables),
                     annotator.closure());

  RelationId rels[3] = {world.wrote, world.directed, world.plays_for};
  Rng rng(123);
  std::vector<double> ap_base, ap_type, ap_tr;
  for (RelationId rel : rels) {
    const RelationRecord& rec = world.catalog.relation(rel);
    const auto& tuples = world.true_relations[rel].tuples;
    for (int qi = 0; qi < 10; ++qi) {
      EntityId e2 = tuples[rng.Uniform(tuples.size())].second;
      SelectQuery q;
      q.relation = rel;
      q.type1 = rec.subject_type;
      q.type2 = rec.object_type;
      q.e2 = e2;
      q.e2_text = world.catalog.entity(e2).lemmas[0];
      q.relation_text = rec.name;
      q.type1_text = world.catalog.type(rec.subject_type).lemmas[0];
      q.type2_text = world.catalog.type(rec.object_type).lemmas[0];
      std::unordered_set<EntityId> relevant;
      for (EntityId s : world.TrueSubjectsOf(rel, e2)) relevant.insert(s);
      if (relevant.empty()) continue;
      ap_base.push_back(JudgeAveragePrecision(
          FullRank(BaselineSearch, cindex, q), relevant, world.catalog));
      ap_type.push_back(JudgeAveragePrecision(FullRank(TypeSearch, cindex, q),
                                              relevant, world.catalog));
      ap_tr.push_back(JudgeAveragePrecision(
          FullRank(TypeRelationSearch, cindex, q), relevant, world.catalog));
    }
  }
  double map_base = MeanAveragePrecision(ap_base);
  double map_type = MeanAveragePrecision(ap_type);
  double map_tr = MeanAveragePrecision(ap_tr);
  // Figure 9: Baseline < Type <= Type+Rel.
  EXPECT_LT(map_base, map_type);
  EXPECT_LE(map_type, map_tr + 0.02);
  EXPECT_GT(map_tr, 0.3);
}

TEST(IntegrationTest, BpConvergesFastOnRealTables) {
  // §4.4.2: "convergence was achieved within three iterations".
  const World& world = SharedWorld();
  TableAnnotator annotator(&world.catalog, &SharedIndex());
  CorpusSpec spec;
  spec.seed = 44;
  spec.num_tables = 20;
  spec.min_rows = 5;
  spec.max_rows = 15;
  int fast = 0;
  int converged = 0;
  int total = 0;
  int max_iterations = 0;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    AnnotationTiming timing;
    annotator.Annotate(lt.table, &timing);
    ++total;
    if (timing.bp_converged) ++converged;
    if (timing.bp_converged && timing.bp_iterations <= 3) ++fast;
    max_iterations = std::max(max_iterations, timing.bp_iterations);
  }
  // Everything converges, a sizable share within the paper's three
  // iterations, and nothing needs more than a couple extra (our message
  // residual test is stricter than the paper's practical criterion).
  EXPECT_EQ(converged, total);
  EXPECT_GE(fast, total * 2 / 5);
  EXPECT_LE(max_iterations, 6);
}

TEST(IntegrationTest, DeterministicEndToEnd) {
  const World& world = SharedWorld();
  TableAnnotator a1(&world.catalog, &SharedIndex());
  TableAnnotator a2(&world.catalog, &SharedIndex());
  CorpusSpec spec;
  spec.seed = 7;
  spec.num_tables = 5;
  spec.min_rows = 4;
  spec.max_rows = 8;
  auto data = GenerateCorpus(world, spec);
  for (const LabeledTable& lt : data) {
    TableAnnotation p1 = a1.Annotate(lt.table);
    TableAnnotation p2 = a2.Annotate(lt.table);
    EXPECT_EQ(p1.column_types, p2.column_types);
    EXPECT_EQ(p1.cell_entities, p2.cell_entities);
    EXPECT_EQ(p1.relations, p2.relations);
  }
}

}  // namespace
}  // namespace webtab
