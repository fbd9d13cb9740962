// Minimal command-line option parsing shared by all harness binaries.
//
// Grammar: `--key=value`, `--flag` (value "true"), and bare positionals.
// Unknown keys are retained; benchmarks query what they need.
#ifndef LMBENCHPP_SRC_CORE_OPTIONS_H_
#define LMBENCHPP_SRC_CORE_OPTIONS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lmb {

class Options {
 public:
  Options() = default;

  // Parses argv[1..argc).  Throws std::invalid_argument on malformed input
  // (e.g. "--=x").
  static Options parse(int argc, const char* const* argv);

  // Builds directly from key/value pairs (tests, programmatic use).
  static Options from_pairs(std::initializer_list<std::pair<std::string, std::string>> kv);

  bool has(const std::string& key) const;

  // Typed getters; return `fallback` when missing.  Throw
  // std::invalid_argument when present but unparseable.
  std::string get_string(const std::string& key, const std::string& fallback = "") const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  // get_int range-checked before it is narrowed to int: a value outside
  // [lo, hi] throws std::invalid_argument naming the key and the range,
  // instead of wrapping on the cast (--n=4294967297 would otherwise be 1).
  int get_int_in(const std::string& key, int fallback, int lo, int hi) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback = false) const;

  // Sizes accept suffixes k/K (1024), m/M (1024^2), g/G (1024^3), matching
  // lmdd's argument convention.
  std::int64_t get_size(const std::string& key, std::int64_t fallback) const;

  // Comma-separated list value ("a,b,c"); returns `fallback` when the key
  // is missing and an empty vector for an explicitly empty value ("--key=").
  // Empty elements ("a,,b", a trailing comma) throw std::invalid_argument —
  // the same strictness as the scalar getters.
  std::vector<std::string> get_list(const std::string& key,
                                    std::vector<std::string> fallback = {}) const;

  void set(const std::string& key, const std::string& value);

  // Every parsed key/value pair (flags appear with value "true").  Lets a
  // driver forward its whole option set verbatim — e.g. lmbench_client
  // shipping suite flags to the daemon.
  const std::map<std::string, std::string>& entries() const { return values_; }

  const std::vector<std::string>& positionals() const { return positionals_; }

  // Convenience: true when --quick was passed (CI-sized benchmark configs).
  bool quick() const { return get_bool("quick", false); }

  // Parses a standalone size string ("64k", "8m", "512").  Throws on garbage.
  static std::int64_t parse_size(const std::string& text);

  // Splits a standalone comma-list ("1,2,4").  "" yields an empty vector;
  // empty elements throw std::invalid_argument.  The shared implementation
  // behind get_list and every ad-hoc list flag (--only, --bw-threads, ...).
  static std::vector<std::string> split_list(const std::string& text);

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
};

}  // namespace lmb

#endif  // LMBENCHPP_SRC_CORE_OPTIONS_H_
