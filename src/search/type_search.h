#ifndef WEBTAB_SEARCH_TYPE_SEARCH_H_
#define WEBTAB_SEARCH_TYPE_SEARCH_H_

#include <vector>

#include "search/corpus_view.h"
#include "search/query.h"
#include "search/search_workspace.h"

namespace webtab {

/// The intermediate engine of Figure 9 ("Type"): uses column *type*
/// annotations to locate candidate column pairs (c1 typed T1, c2 typed
/// T2 in the same table) but no relation annotations. E2 is matched by
/// cell entity annotation when the query's E2 is grounded, falling back
/// to text similarity; answers are resolved through cell entity
/// annotations when present.
/// Takes a pre-normalized query (cache key and engine share one
/// tokenization), a reusable workspace (zero steady-state
/// allocations), results emitted into `out` (reused), top-k with safe
/// pruning per TopKOptions.
void TypeSearch(const CorpusView& index, const SelectQuery& query,
                const NormalizedSelectQuery& normalized,
                const TopKOptions& topk, SearchWorkspace* workspace,
                std::vector<SearchResult>* out);

}  // namespace webtab

#endif  // WEBTAB_SEARCH_TYPE_SEARCH_H_
