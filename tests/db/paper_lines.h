// Reading rendered paper tables in tests: which lines show a blank ("--")
// that is not one of the paper's own blank cells.
#ifndef LMBENCHPP_TESTS_DB_PAPER_LINES_H_
#define LMBENCHPP_TESTS_DB_PAPER_LINES_H_

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/db/paper_data.h"

namespace lmb::db {

// Number of "--" tokens in `line`.
inline size_t blank_cells(const std::string& line) {
  std::istringstream tokens(line);
  size_t n = 0;
  for (std::string token; tokens >> token;) {
    n += token == "--" ? 1 : 0;
  }
  return n;
}

// Lines of `text` that show "--" where the paper itself has no blank: a
// measured row, a note carrying a measured value, or a figure's data.
// Paper rows start with a system name from the embedded database and carry
// no "<--" marker.
inline std::vector<std::string> unmeasured_lines(const std::string& text) {
  std::set<std::string> systems;
  auto add = [&](const auto& rows) {
    for (const auto& row : rows) {
      systems.insert(row.system);
    }
  };
  for (const auto& row : paper_table1()) {
    systems.insert(row.name);
  }
  add(paper_table2()), add(paper_table3()), add(paper_table4()), add(paper_table5());
  add(paper_table6()), add(paper_table7()), add(paper_table8()), add(paper_table9());
  add(paper_table10()), add(paper_table11()), add(paper_table12()), add(paper_table13());
  add(paper_table14()), add(paper_table15()), add(paper_table16()), add(paper_table17());

  std::vector<std::string> out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("--") == std::string::npos || blank_cells(line) == 0) {
      continue;
    }
    bool paper_row = line.find("<--") == std::string::npos &&
                     std::any_of(systems.begin(), systems.end(), [&](const std::string& s) {
                       return line.rfind(s + " ", 0) == 0;
                     });
    if (!paper_row) {
      out.push_back(line);
    }
  }
  return out;
}

inline std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line + "\n";
  }
  return out;
}

}  // namespace lmb::db

#endif  // LMBENCHPP_TESTS_DB_PAPER_LINES_H_
