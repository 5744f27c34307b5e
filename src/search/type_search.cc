#include "search/type_search.h"

#include "search/select_kernel.h"

namespace webtab {

void TypeSearch(const CorpusView& index, const SelectQuery& query,
                const NormalizedSelectQuery& nq, const TopKOptions& topk,
                SearchWorkspace* ws, std::vector<SearchResult>* out) {
  using search_internal::AppendUniqueCols;
  using search_internal::IntersectByTable;
  using search_internal::PlannedTable;
  using search_internal::PostingRunCounter;
  using search_internal::ScreenCond;

  ws->BeginSelect(nq.e2_text);
  // Match-support refinement: with the cell-token index we know exactly
  // which tables can text-match E2 (CellMatchesText needs a shared
  // token), and the entity postings say how many cells are annotated
  // with E2. A table with neither contributes zero evidence. The support
  // set is built even on full-rank scans — the scoring-side verdicts
  // eliminate proven-matchless columns there too.
  ws->BuildMatchSupport(index);
  const bool e2_present = query.e2 != kNa;
  const std::span<const CellRef> e2_postings =
      e2_present ? index.EntityPostings(query.e2)
                 : std::span<const CellRef>();
  const PostingBlockSpan e2_blocks = e2_present
                                         ? index.EntityPostingBlocks(query.e2)
                                         : PostingBlockSpan();

  // Plan: leapfrog the two table-sorted type posting lists; a candidate
  // table needs a T1-typed column and a T2-typed column.
  obs::TraceSpan plan_span("search.plan");
  ws->plan.clear();
  ws->col_pool.clear();
  IntersectByTable(
      index.TypePostings(query.type1), index.TypePostings(query.type2),
      [&](int32_t table, std::span<const ColumnRef> run1,
          std::span<const ColumnRef> run2) {
        PlannedTable p;
        p.table = table;
        std::tie(p.a_begin, p.a_end) = AppendUniqueCols(run1, &ws->col_pool);
        std::tie(p.b_begin, p.b_end) = AppendUniqueCols(run2, &ws->col_pool);
        ws->plan.push_back(p);
      });
  plan_span.End();

  // Any single answer gains at most one row_score (max 1.0) per (row,
  // answer cell, matching E2 column) triple. With match support the E2
  // side tightens: per b-column, at most its count of E2-annotated
  // cells at 1.0 each, plus text fallbacks (0.6) only when that column
  // actually contains enough of the target's tokens. The batched screen
  // runs it on its survivors.
  auto refined_bound = [&](const PlannedTable& p,
                           PostingRunCounter<CellRef>* e2_runs) {
    const double rows = index.rows(p.table);
    const double a = p.a_end - p.a_begin;
    const double b = p.b_end - p.b_begin;
    double bound = rows * a * b;
    double refined = 0.0;
    for (uint32_t bi = p.b_begin; bi < p.b_end; ++bi) {
      const int col = ws->col_pool[bi];
      refined += e2_runs->CountAtCol(p.table, col);
      if (ws->ColumnCanMatch(p.table, col)) {
        refined += 0.6 * rows;
      }
    }
    return std::min(bound, a * refined);
  };
  auto fill_bounds = [&] {
    ws->EnsureFilterClasses();
    static constexpr ScreenCond kKinds[] = {ScreenCond::kEntityRun,
                                            ScreenCond::kTableSupport};
    search_internal::BatchedBoundFill(ws, ws->filter_class_type, kKinds,
                                      e2_postings, e2_blocks, refined_bound);
  };

  // Lazy verdict counter: scored tables arrive in ascending order, so
  // one forward counter serves every FillColumnVerdicts call.
  PostingRunCounter<CellRef> verdict_runs{e2_postings, e2_blocks};
  auto score_table = [&](const PlannedTable& p) {
    search_internal::FillColumnVerdicts(ws, p, &verdict_runs, e2_present);
    const int table = p.table;
    // Row-chunk scoring pass: an annotated hit scores 1.0, a text
    // fallback 0.6, and the memo is probed in row order (an entity hit
    // short-circuits it).
    auto score_chunk = [&](exec::ScoreBatch* batch, int n, bool has_entity,
                           bool has_support) {
      uint32_t* tids = batch->active.mutable_data();
      uint32_t m = 0;
      if (has_entity && has_support) {
        for (int i = 0; i < n; ++i) {
          double rs = 0.0;
          if (batch->entity[i] == query.e2) {
            rs = 1.0;
          } else if (ws->CellMatches(batch->text[i])) {
            rs = 0.6;
          }
          tids[m] = static_cast<uint32_t>(i);
          batch->score[m] = rs;
          m += static_cast<uint32_t>(rs > 0.0);
        }
      } else if (has_entity) {
        // No column support: the memo is provably false on every cell,
        // so only the annotated comparison can fire.
        for (int i = 0; i < n; ++i) {
          tids[m] = static_cast<uint32_t>(i);
          batch->score[m] = 1.0;
          m += static_cast<uint32_t>(batch->entity[i] == query.e2);
        }
      } else {
        // No E2 annotation in the column: only the text fallback.
        for (int i = 0; i < n; ++i) {
          tids[m] = static_cast<uint32_t>(i);
          batch->score[m] = 0.6;
          m += static_cast<uint32_t>(ws->CellMatches(batch->text[i]));
        }
      }
      batch->active.SetSize(m);
    };
    search_internal::ScoreTableBatched(
        ws, index, p, /*need_answer_entities=*/true, score_chunk,
        [&](uint32_t k, uint32_t i, double rs) {
          const size_t lane = k * exec::kBatchSize + i;
          EntityId answer = ws->gather_entities[lane];
          if (answer != kNa) {
            ws->AddEntity(table, answer, ws->gather_cells[lane], rs);
          } else {
            ws->AddText(table, ws->gather_cells[lane], rs * 0.8);
          }
        });
  };

  search_internal::PrepareVerdictLanes(ws, ws->col_pool.size());
  search_internal::RunPlannedTables(ws, topk, fill_bounds, score_table);
  ws->EmitRanked(topk, out);
}

}  // namespace webtab
