#include <gtest/gtest.h>

#include "full_rank.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/join_search.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "test_world.h"

namespace webtab {
namespace {

using testing_util::Figure1World;
using testing_util::FullRank;
using testing_util::MakeFigure1Table;
using testing_util::MakeFigure1World;

class SearchEnginesTest : public ::testing::Test {
 protected:
  SearchEnginesTest()
      : w_(MakeFigure1World()),
        closure_(&w_.catalog),
        index_(MakeCorpus(), &closure_) {}

  std::vector<AnnotatedTable> MakeCorpus() {
    AnnotatedTable at;
    at.table = MakeFigure1Table();
    at.annotation = TableAnnotation::Empty(2, 2);
    at.annotation.column_types[0] = w_.book;
    at.annotation.column_types[1] = w_.person;
    at.annotation.cell_entities[0][0] = w_.b95;
    at.annotation.cell_entities[1][0] = w_.b41;
    at.annotation.cell_entities[0][1] = w_.stannard;
    at.annotation.cell_entities[1][1] = w_.einstein;
    at.annotation.relations[{0, 1}] = RelationCandidate{w_.author, false};
    return {at};
  }

  SelectQuery EinsteinQuery() {
    // "Which books did Einstein write?"
    SelectQuery q;
    q.relation = w_.author;
    q.type1 = w_.book;
    q.type2 = w_.person;
    q.e2 = w_.einstein;
    q.e2_text = "A. Einstein";
    q.relation_text = "author";
    q.type1_text = "title";
    q.type2_text = "written by";
    return q;
  }

  Figure1World w_;
  ClosureCache closure_;
  CorpusIndex index_;
};

TEST_F(SearchEnginesTest, BaselineFindsByStringMatch) {
  auto results = FullRank(BaselineSearch, index_, EinsteinQuery());
  // Headers: "Title" matches type1_text; "written by" matches type2_text.
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].entity, kNa);  // Baseline is string-only.
  EXPECT_EQ(results[0].text,
            "Relativity: The Special and the General Theory");
}

TEST_F(SearchEnginesTest, BaselineMissesWithoutHeaderOverlap) {
  SelectQuery q = EinsteinQuery();
  q.type1_text = "movie";      // No header matches.
  q.type2_text = "filmmaker";
  EXPECT_TRUE(FullRank(BaselineSearch, index_, q).empty());
}

TEST_F(SearchEnginesTest, TypeSearchResolvesEntities) {
  auto results = FullRank(TypeSearch, index_, EinsteinQuery());
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].entity, w_.b41);
}

TEST_F(SearchEnginesTest, TypeSearchUsesSubtypeExpansion) {
  // Query asks for person column; the annotation says person directly,
  // but querying with physicist-typed E2 annotation still matches via
  // entity annotation.
  SelectQuery q = EinsteinQuery();
  auto results = FullRank(TypeSearch, index_, q);
  ASSERT_FALSE(results.empty());
}

TEST_F(SearchEnginesTest, TypeRelationSearchStrictest) {
  auto results = FullRank(TypeRelationSearch, index_, EinsteinQuery());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].entity, w_.b41);
}

TEST_F(SearchEnginesTest, TypeRelationRespectsDirection) {
  // Query the inverse direction: person as subject type. There is no
  // relation posting with person as subject role, and E2 ("Relativity")
  // sits in the object column of no posting, so nothing returns.
  SelectQuery q;
  q.relation = w_.author;
  q.type1 = w_.person;
  q.type2 = w_.book;
  q.e2 = w_.stannard;  // Wrong role on purpose.
  q.e2_text = "Stannard";
  auto results = FullRank(TypeRelationSearch, index_, q);
  // Stannard never appears in the object column of author postings
  // (books are subjects), so the engine must not hallucinate answers.
  for (const auto& r : results) {
    EXPECT_NE(r.entity, w_.b41);
  }
}

TEST_F(SearchEnginesTest, TextFallbackWhenEntityUnknown) {
  SelectQuery q = EinsteinQuery();
  q.e2 = kNa;  // E2 not in catalog: text matching only (Figure 4 line 7).
  auto results = FullRank(TypeRelationSearch, index_, q);
  ASSERT_FALSE(results.empty());
  EXPECT_EQ(results[0].entity, w_.b41);
}

TEST_F(SearchEnginesTest, UnknownQueryYieldsNothing) {
  SelectQuery q;
  q.relation = 999;
  q.type1 = w_.book;
  q.type2 = w_.person;
  q.e2_text = "nobody";
  EXPECT_TRUE(FullRank(TypeRelationSearch, index_, q).empty());
}

TEST_F(SearchEnginesTest, ScoreTiesRankByAscendingEntityId) {
  // Both books appear once with the same row score, so they tie; the
  // documented convention (score desc, id asc — consistent with PR 4's
  // LemmaHit ordering) must rank the smaller id first. The retired
  // aggregator ranked ties by *descending* id; this pins the fix.
  std::vector<AnnotatedTable> corpus = MakeCorpus();
  // Rewrite both rows to the same E2 so each answer scores once.
  corpus[0].annotation.cell_entities[0][1] = w_.einstein;
  corpus[0].annotation.cell_entities[1][1] = w_.einstein;
  CorpusIndex tied(std::move(corpus), &closure_);
  SelectQuery q = EinsteinQuery();
  auto results = FullRank(TypeSearch, tied, q);
  ASSERT_EQ(results.size(), 2u);
  ASSERT_EQ(results[0].score, results[1].score);
  EXPECT_LT(results[0].entity, results[1].entity);
  EXPECT_EQ(results[0].entity, std::min(w_.b95, w_.b41));
}

TEST_F(SearchEnginesTest, TopKReturnsExactPrefix) {
  SearchWorkspace ws;
  std::vector<SearchResult> topk;
  SelectQuery q = EinsteinQuery();
  NormalizedSelectQuery nq = NormalizeSelectQuery(q);
  auto full = FullRank(TypeSearch, index_, q);
  ASSERT_FALSE(full.empty());
  for (bool prune : {false, true}) {
    TypeSearch(index_, q, nq, TopKOptions{1, prune}, &ws, &topk);
    ASSERT_EQ(topk.size(), 1u);
    EXPECT_EQ(topk[0].entity, full[0].entity);
    EXPECT_EQ(topk[0].text, full[0].text);
  }
  // k larger than the result set: identical to the full ranking.
  TypeSearch(index_, q, nq, TopKOptions{100, true}, &ws, &topk);
  ASSERT_EQ(topk.size(), full.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(topk[i].entity, full[i].entity);
    EXPECT_EQ(topk[i].score, full[i].score);  // Nothing was skipped.
  }
}

TEST_F(SearchEnginesTest, ValidateSelectQueryRejectsGarbageIds) {
  SelectQuery ok = EinsteinQuery();
  EXPECT_TRUE(ValidateSelectQuery(ok, w_.catalog).ok());
  ok.e2 = kNa;  // Absent ids are legal (text fallback).
  EXPECT_TRUE(ValidateSelectQuery(ok, w_.catalog).ok());

  SelectQuery bad = EinsteinQuery();
  bad.relation = 9999;
  Status status = ValidateSelectQuery(bad, w_.catalog);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);

  bad = EinsteinQuery();
  bad.type1 = -7;
  EXPECT_EQ(ValidateSelectQuery(bad, w_.catalog).code(),
            StatusCode::kInvalidArgument);

  JoinQuery join;
  join.r1 = w_.author;
  join.r2 = 12345;
  EXPECT_EQ(ValidateJoinQuery(join, w_.catalog).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SearchEnginesTest, EvidenceAggregationAcrossTables) {
  // Duplicate the corpus: scores should double, order stays stable.
  std::vector<AnnotatedTable> corpus = MakeCorpus();
  std::vector<AnnotatedTable> doubled = MakeCorpus();
  for (auto& at : MakeCorpus()) doubled.push_back(at);
  CorpusIndex big(std::move(doubled), &closure_);
  auto one = FullRank(TypeRelationSearch, index_, EinsteinQuery());
  auto two = FullRank(TypeRelationSearch, big, EinsteinQuery());
  ASSERT_FALSE(one.empty());
  ASSERT_FALSE(two.empty());
  EXPECT_NEAR(two[0].score, 2.0 * one[0].score, 1e-9);
}

}  // namespace
}  // namespace webtab
