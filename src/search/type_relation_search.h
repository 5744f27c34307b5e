#ifndef WEBTAB_SEARCH_TYPE_RELATION_SEARCH_H_
#define WEBTAB_SEARCH_TYPE_RELATION_SEARCH_H_

#include <vector>

#include "search/corpus_view.h"
#include "search/query.h"
#include "search/search_workspace.h"

namespace webtab {

/// Figure 4: the fully hardened engine. Locates column pairs annotated
/// with relation R (direction-aware), reads E2 from the object column by
/// entity annotation (text fallback per Figure 4 line 7), and collects
/// the subject column's answers, aggregating evidence per entity.
/// Takes a pre-normalized query (cache key and engine share one
/// tokenization), a reusable workspace, results into `out`, top-k
/// pruning per TopKOptions.
void TypeRelationSearch(const CorpusView& index, const SelectQuery& query,
                        const NormalizedSelectQuery& normalized,
                        const TopKOptions& topk, SearchWorkspace* workspace,
                        std::vector<SearchResult>* out);

}  // namespace webtab

#endif  // WEBTAB_SEARCH_TYPE_RELATION_SEARCH_H_
