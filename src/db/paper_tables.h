// The paper's 17 tables and 2 figures as one run plan, and a renderer that
// prints them from the results.v1 batch that plan produces.
//
// §3.5: "All of the tables in this paper were produced from the database
// included in lmbench."  Here every measured cell is read from one record of
// one batch (a result whose name and metadata["args"] match a plan entry),
// and every paper cell from the embedded tables in paper_data.h, so each
// number traces to what produced it.  Derived rows (the remote-network
// models of Tables 4, 14 and 15, the hierarchy of Table 6) are computed from
// the batch's own results.
#ifndef LMBENCHPP_SRC_DB_PAPER_TABLES_H_
#define LMBENCHPP_SRC_DB_PAPER_TABLES_H_

#include <string>
#include <vector>

#include "src/core/registry.h"
#include "src/report/serialize.h"

namespace lmb::db {

// The entries `tables` read, in the order they read them, each once even
// when two tables show it.  Table ids are "1".."17", "fig1" and "fig2";
// empty means every table and figure, in the paper's order.  `quick`
// shrinks the Figure 1, Figure 2 and Table 6 sweeps; every entry also runs
// with the request's own options, so --quick there sizes each benchmark for
// CI.  Throws std::invalid_argument naming an unknown id.
std::vector<PlanEntry> paper_plan(bool quick, const std::vector<std::string>& tables = {});

// Renders `tables` (empty = all) from `batch` and the embedded paper data:
// a pure function of the two.  A measured cell whose result is missing,
// failed or non-finite renders "--".  The sweep grids are the quick plan's
// unless the batch holds an entry only the full plan measures.  Throws
// std::invalid_argument naming an unknown id.
std::string render_paper(const report::ResultBatch& batch,
                         const std::vector<std::string>& tables = {});

}  // namespace lmb::db

#endif  // LMBENCHPP_SRC_DB_PAPER_TABLES_H_
