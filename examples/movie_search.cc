// The §5 search application: select-project queries over annotated web
// tables. Asks "which movies did X direct?" — and shows why relation
// annotations matter by contrasting the three engines on a person who
// could plausibly appear with movies in several relations (the intro's
// "directed by, as against featuring as actor, George Clooney").
//
//   ./examples/movie_search [--corpus N]
#include <iostream>

#include "annotate/annotator.h"
#include "annotate/corpus_annotator.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/rng.h"
#include "eval/search_eval.h"
#include "index/lemma_index.h"
#include "search/baseline_search.h"
#include "search/corpus_index.h"
#include "search/type_relation_search.h"
#include "search/type_search.h"
#include "synth/corpus_generator.h"
#include "synth/world_generator.h"

using namespace webtab;  // NOLINT(build/namespaces)

namespace {
void PrintTop(const std::string& label,
              const std::vector<SearchResult>& results,
              const Catalog& catalog, int k) {
  std::cout << "  " << label << " (" << results.size() << " results):\n";
  for (int i = 0; i < std::min<int>(k, results.size()); ++i) {
    const SearchResult& r = results[i];
    std::cout << "    " << i + 1 << ". ";
    if (r.entity != kNa) {
      std::cout << catalog.entity(r.entity).name << "  [entity]";
    } else {
      std::cout << "\"" << r.text << "\"  [string]";
    }
    std::cout << "  score=" << r.score << "\n";
  }
}
}  // namespace

int main(int argc, char** argv) {
  int64_t corpus_tables = 400;
  FlagSet flags;
  flags.AddInt("corpus", &corpus_tables, "web-table corpus size");
  WEBTAB_CHECK_OK(flags.Parse(argc, argv));

  World world = GenerateWorld(WorldSpec{});
  LemmaIndex index(&world.catalog);
  TableAnnotator annotator(&world.catalog, &index);

  CorpusSpec spec;
  spec.seed = 31337;
  spec.num_tables = static_cast<int>(corpus_tables);
  std::vector<Table> tables;
  for (const LabeledTable& lt : GenerateCorpus(world, spec)) {
    tables.push_back(lt.table);
  }
  std::cout << "Annotating " << tables.size() << " web tables...\n";
  CorpusIndex cindex(AnnotateCorpus(&annotator, tables),
                     annotator.closure());

  // Pick a director with several movies in the hidden truth.
  const auto& tuples = world.true_relations[world.directed].tuples;
  Rng rng(5);
  EntityId director = tuples[rng.Uniform(tuples.size())].second;
  std::unordered_set<EntityId> relevant;
  for (EntityId m : world.TrueSubjectsOf(world.directed, director)) {
    relevant.insert(m);
  }

  const RelationRecord& rec = world.catalog.relation(world.directed);
  SelectQuery q;
  q.relation = world.directed;
  q.type1 = rec.subject_type;
  q.type2 = rec.object_type;
  q.e2 = director;
  q.e2_text = world.catalog.entity(director).lemmas[0];
  q.relation_text = "directed";
  q.type1_text = "movie";
  q.type2_text = "director";

  std::cout << "\nQuery: movies directed by "
            << world.catalog.entity(director).name << " ("
            << relevant.size() << " true answers)\n\n";

  // Every engine runs through its kernel form: the query normalized
  // once, one reusable workspace, k <= 0 for the full exact ranking.
  const NormalizedSelectQuery nq = NormalizeSelectQuery(q);
  SearchWorkspace ws;
  std::vector<SearchResult> base, type, tr;
  BaselineSearch(cindex, q, nq, TopKOptions{}, &ws, &base);
  TypeSearch(cindex, q, nq, TopKOptions{}, &ws, &type);
  TypeRelationSearch(cindex, q, nq, TopKOptions{}, &ws, &tr);
  PrintTop("Baseline (strings only, Figure 3)", base, world.catalog, 5);
  PrintTop("Type annotations only", type, world.catalog, 5);
  PrintTop("Type + relation annotations (Figure 4)", tr, world.catalog, 5);

  // The serving-style call: top-k with pruning — the kernel skips tables
  // that provably cannot crack the top 5 and returns exactly the full
  // ranking's prefix.
  std::vector<SearchResult> top5;
  TypeRelationSearch(cindex, q, nq, TopKOptions{5, true}, &ws, &top5);
  std::cout << "\nTop-5 (pruned kernel; scanned "
            << ws.stats().tables_scored << "/"
            << ws.stats().tables_planned << " candidate tables):\n";
  PrintTop("Type + relation, k=5", top5, world.catalog, 5);

  std::cout << "\nAverage precision vs hidden truth:\n";
  std::cout << "  Baseline:  "
            << JudgeAveragePrecision(base, relevant, world.catalog) << "\n";
  std::cout << "  Type:      "
            << JudgeAveragePrecision(type, relevant, world.catalog) << "\n";
  std::cout << "  Type+Rel:  "
            << JudgeAveragePrecision(tr, relevant, world.catalog) << "\n";
  return 0;
}
