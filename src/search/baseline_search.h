#ifndef WEBTAB_SEARCH_BASELINE_SEARCH_H_
#define WEBTAB_SEARCH_BASELINE_SEARCH_H_

#include <vector>

#include "search/corpus_view.h"
#include "search/query.h"
#include "search/search_workspace.h"

namespace webtab {

/// Figure 3: the no-annotation engine. All inputs are strings; tables
/// qualify when column headers match the T1/T2 strings (context matching
/// the relation string adds score); E2 is located by text similarity in
/// the T2 column; the T1 column's raw cell strings are clustered, deduped
/// and ranked. Returns unresolved strings (SearchResult::entity == kNa).
/// Takes a pre-normalized query (the serving layer shares one
/// normalization between the cache key and the engine), a reusable
/// workspace, results into `out`, top-k pruning per TopKOptions.
void BaselineSearch(const CorpusView& index, const SelectQuery& query,
                    const NormalizedSelectQuery& normalized,
                    const TopKOptions& topk, SearchWorkspace* workspace,
                    std::vector<SearchResult>* out);

}  // namespace webtab

#endif  // WEBTAB_SEARCH_BASELINE_SEARCH_H_
