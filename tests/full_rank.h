#ifndef WEBTAB_TESTS_FULL_RANK_H_
#define WEBTAB_TESTS_FULL_RANK_H_

#include <vector>

#include "search/corpus_view.h"
#include "search/join_search.h"
#include "search/query.h"
#include "search/search_workspace.h"

namespace webtab {
namespace testing_util {

/// A select engine's kernel form: BaselineSearch, TypeSearch or
/// TypeRelationSearch.
using SelectKernel = void (*)(const CorpusView&, const SelectQuery&,
                              const NormalizedSelectQuery&,
                              const TopKOptions&, SearchWorkspace*,
                              std::vector<SearchResult>*);

/// One query's full exact ranking (TopKOptions{}) through an engine's
/// kernel form on a fresh workspace — the shape most tests compare:
///   FullRank(TypeSearch, corpus, query), FullRank(corpus, join_query).
inline std::vector<SearchResult> FullRank(SelectKernel kernel,
                                          const CorpusView& index,
                                          const SelectQuery& query) {
  SearchWorkspace ws;
  std::vector<SearchResult> out;
  kernel(index, query, NormalizeSelectQuery(query), TopKOptions{}, &ws,
         &out);
  return out;
}

inline std::vector<SearchResult> FullRank(const CorpusView& index,
                                          const JoinQuery& query) {
  SearchWorkspace ws;
  std::vector<SearchResult> out;
  JoinSearch(index, query, TopKOptions{}, &ws, &out);
  return out;
}

}  // namespace testing_util
}  // namespace webtab

#endif  // WEBTAB_TESTS_FULL_RANK_H_
