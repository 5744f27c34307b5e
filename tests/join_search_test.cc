#include "search/join_search.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "annotate/annotator.h"
#include "annotate/corpus_annotator.h"
#include "full_rank.h"
#include "search/corpus_index.h"
#include "synth/corpus_generator.h"
#include "test_world.h"

namespace webtab {
namespace {

using testing_util::FullRank;
using testing_util::SharedIndex;
using testing_util::SharedWorld;

class JoinSearchTest : public ::testing::Test {
 protected:
  static const CorpusIndex& Corpus() {
    static const CorpusIndex* index = [] {
      const World& world = SharedWorld();
      TableAnnotator annotator(&world.catalog, &SharedIndex());
      CorpusSpec spec;
      spec.seed = 4242;
      spec.num_tables = 250;
      spec.min_rows = 5;
      spec.max_rows = 20;
      spec.join_table_prob = 0.5;  // Plenty of movie|actor|director data.
      std::vector<Table> tables;
      for (const LabeledTable& lt : GenerateCorpus(SharedWorld(), spec)) {
        tables.push_back(lt.table);
      }
      static ClosureCache closure(&SharedWorld().catalog);
      return new CorpusIndex(AnnotateCorpus(&annotator, tables), &closure);
    }();
    return *index;
  }
};

TEST_F(JoinSearchTest, ActorsInMoviesDirectedBy) {
  const World& world = SharedWorld();
  // Pick a director with at least one directed movie that has actors.
  EntityId director = kNa;
  std::unordered_set<EntityId> relevant;
  for (const auto& [movie, d] : world.true_relations[world.directed]
                                    .tuples) {
    auto actors = world.TrueObjectsOf(world.acted_in, movie);
    if (!actors.empty()) {
      director = d;
      for (const auto& [m2, d2] :
           world.true_relations[world.directed].tuples) {
        if (d2 != director) continue;
        for (EntityId a : world.TrueObjectsOf(world.acted_in, m2)) {
          relevant.insert(a);
        }
      }
      break;
    }
  }
  ASSERT_NE(director, kNa);

  JoinQuery q;
  q.r1 = world.acted_in;       // acted_in(movie, actor): e1 = actor.
  q.e1_is_subject = false;
  q.r2 = world.directed;       // directed(movie, director): e2 = movie.
  q.e2_is_subject = true;
  q.e3 = director;
  q.e3_text = world.catalog.entity(director).lemmas[0];

  std::vector<SearchResult> results = FullRank(Corpus(), q);
  // The corpus is a sample, so we cannot demand full recall; but
  // returned answers that exist in the truth should dominate the top.
  ASSERT_FALSE(results.empty());
  int true_hits = 0;
  int checked = 0;
  for (const SearchResult& r : results) {
    if (checked++ >= 5) break;
    if (relevant.count(r.entity)) ++true_hits;
  }
  EXPECT_GT(true_hits, 0);
}

TEST_F(JoinSearchTest, ClubsOfFootballersBornIn) {
  const World& world = SharedWorld();
  // clubs ← plays_for(footballer, club) ∧ born_in(footballer, city).
  const auto& born = world.true_relations[world.born_in].tuples;
  EntityId city = kNa;
  for (const auto& [person, c] : born) {
    if (!world.TrueObjectsOf(world.plays_for, person).empty()) {
      city = c;
      break;
    }
  }
  ASSERT_NE(city, kNa);

  JoinQuery q;
  q.r1 = world.plays_for;  // plays_for(footballer, club): e1 = club.
  q.e1_is_subject = false;
  q.r2 = world.born_in;    // born_in(person, city): e2 = person.
  q.e2_is_subject = true;
  q.e3 = city;
  q.e3_text = world.catalog.entity(city).lemmas[0];
  std::vector<SearchResult> results = FullRank(Corpus(), q);
  // Every resolved answer must be a club (type sanity).
  ClosureCache closure(&world.catalog);
  for (const SearchResult& r : results) {
    ASSERT_NE(r.entity, kNa);
    EXPECT_TRUE(closure.EntityHasType(r.entity, world.football_club) ||
                closure.EntityHasType(r.entity, world.organization))
        << world.catalog.entity(r.entity).name;
  }
}

TEST_F(JoinSearchTest, UnknownRelationReturnsNothing) {
  JoinQuery q;
  q.r1 = 999;
  q.r2 = 998;
  q.e3 = 0;
  EXPECT_TRUE(FullRank(Corpus(), q).empty());
}

TEST_F(JoinSearchTest, ScoresSortedDescending) {
  const World& world = SharedWorld();
  JoinQuery q;
  q.r1 = world.acted_in;
  q.e1_is_subject = false;
  q.r2 = world.directed;
  q.e2_is_subject = true;
  q.e3 = world.true_relations[world.directed].tuples[0].second;
  q.e3_text = world.catalog.entity(q.e3).lemmas[0];
  std::vector<SearchResult> results = FullRank(Corpus(), q);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GE(results[i - 1].score, results[i].score);
  }
}

TEST_F(JoinSearchTest, MaxJoinEntitiesLimitsExpansion) {
  const World& world = SharedWorld();
  JoinQuery q;
  q.r1 = world.acted_in;
  q.e1_is_subject = false;
  q.r2 = world.directed;
  q.e2_is_subject = true;
  q.e3 = world.true_relations[world.directed].tuples[0].second;
  q.max_join_entities = 0;  // Expand nothing.
  EXPECT_TRUE(FullRank(Corpus(), q).empty());
}

}  // namespace
}  // namespace webtab
