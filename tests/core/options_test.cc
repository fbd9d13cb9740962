#include "src/core/options.h"

#include <gtest/gtest.h>

#include <string>

namespace lmb {
namespace {

Options parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(OptionsTest, ParsesKeyValueAndFlags) {
  Options opts = parse({"--size=64k", "--quick", "--reps=7", "positional"});
  EXPECT_TRUE(opts.has("size"));
  EXPECT_TRUE(opts.quick());
  EXPECT_EQ(opts.get_int("reps", 0), 7);
  ASSERT_EQ(opts.positionals().size(), 1u);
  EXPECT_EQ(opts.positionals()[0], "positional");
}

TEST(OptionsTest, FallbacksWhenMissing) {
  Options opts = parse({});
  EXPECT_FALSE(opts.quick());
  EXPECT_EQ(opts.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(opts.get_double("x", 2.5), 2.5);
  EXPECT_EQ(opts.get_string("s", "dflt"), "dflt");
  EXPECT_EQ(opts.get_size("sz", 1024), 1024);
}

TEST(OptionsTest, SizeSuffixes) {
  EXPECT_EQ(Options::parse_size("512"), 512);
  EXPECT_EQ(Options::parse_size("64k"), 64 * 1024);
  EXPECT_EQ(Options::parse_size("64K"), 64 * 1024);
  EXPECT_EQ(Options::parse_size("8m"), 8 * 1024 * 1024);
  EXPECT_EQ(Options::parse_size("2G"), 2ll * 1024 * 1024 * 1024);
  EXPECT_EQ(Options::parse_size("0"), 0);
}

TEST(OptionsTest, MalformedSizesRejected) {
  EXPECT_THROW(Options::parse_size(""), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("12q"), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("12kb"), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("-5"), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("abc"), std::exception);
}

// A suffixed size whose product passes INT64_MAX is an error naming the
// text, not signed overflow; the largest value that fits still parses.
TEST(OptionsTest, SuffixedSizeBeyondInt64IsRejected) {
  for (const char* text : {"8589934592g", "8796093022208m", "9007199254740992k"}) {
    try {
      Options::parse_size(text);
      ADD_FAILURE() << "expected invalid_argument for " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
    }
  }
  EXPECT_EQ(Options::parse_size("8589934591g"), 9223372035781033984);
}

TEST(OptionsTest, BooleanSpellings) {
  Options opts = Options::from_pairs({{"a", "true"}, {"b", "0"}, {"c", "yes"}, {"d", "off"}});
  EXPECT_TRUE(opts.get_bool("a", false));
  EXPECT_FALSE(opts.get_bool("b", true));
  EXPECT_TRUE(opts.get_bool("c", false));
  EXPECT_FALSE(opts.get_bool("d", true));
  Options bad = Options::from_pairs({{"e", "maybe"}});
  EXPECT_THROW(bad.get_bool("e", false), std::invalid_argument);
}

// The 64-bit value is checked before the narrowing: 2^32+1 would otherwise
// become 1 and slip past a lower bound of 1.
TEST(OptionsTest, GetIntInRangeChecksBeforeNarrowing) {
  Options opts = Options::from_pairs(
      {{"lo", "0"}, {"hi", "129"}, {"wrap", "4294967297"}, {"ok", "128"}});
  EXPECT_EQ(opts.get_int_in("ok", 20, 1, 128), 128);
  EXPECT_EQ(opts.get_int_in("missing", 20, 1, 128), 20);
  for (const char* key : {"lo", "hi", "wrap"}) {
    try {
      opts.get_int_in(key, 20, 1, 128);
      ADD_FAILURE() << "expected invalid_argument for --" << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + key), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("[1, 128]"), std::string::npos) << e.what();
    }
  }
}

TEST(OptionsTest, TypedGettersValidate) {
  Options opts = Options::from_pairs({{"n", "12x"}, {"d", "1.5y"}});
  EXPECT_THROW(opts.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(opts.get_int_in("n", 0, 0, 100), std::invalid_argument);
  EXPECT_THROW(opts.get_double("d", 0), std::invalid_argument);
}

TEST(OptionsTest, MalformedArgumentsRejected) {
  EXPECT_THROW(parse({"--"}), std::invalid_argument);
  EXPECT_THROW(parse({"--=value"}), std::invalid_argument);
}

TEST(OptionsTest, SetOverrides) {
  Options opts = parse({"--n=1"});
  opts.set("n", "2");
  EXPECT_EQ(opts.get_int("n", 0), 2);
}

// Numeric parsing is locale-independent (from_chars) and strict: the whole
// value must be consumed, so trailing garbage and locale-style commas are
// rejected rather than silently truncated.
TEST(OptionsTest, NumericParsingIsStrictAndLocaleIndependent) {
  Options opts = Options::from_pairs({{"d", "1.5"},
                                      {"e", "2.5e3"},
                                      {"comma", "1,5"},
                                      {"ws", " 7"},
                                      {"inf", "inf"},
                                      {"nan", "nan"},
                                      {"hex", "0x10"},
                                      {"neg", "-3.25"}});
  EXPECT_DOUBLE_EQ(opts.get_double("d", 0), 1.5);
  EXPECT_DOUBLE_EQ(opts.get_double("e", 0), 2500.0);
  EXPECT_DOUBLE_EQ(opts.get_double("neg", 0), -3.25);
  // "1,5" is 1.5 under a comma-decimal locale; here it is always garbage.
  EXPECT_THROW(opts.get_double("comma", 0), std::invalid_argument);
  // stod/stoll skipped leading whitespace; from_chars does not.
  EXPECT_THROW(opts.get_double("ws", 0), std::invalid_argument);
  EXPECT_THROW(opts.get_int("ws", 0), std::invalid_argument);
  // Non-finite spellings parse via from_chars but no option means that.
  EXPECT_THROW(opts.get_double("inf", 0), std::invalid_argument);
  EXPECT_THROW(opts.get_double("nan", 0), std::invalid_argument);
  // Hex is trailing garbage for base-10 ints ("0x10" != 16).
  EXPECT_THROW(opts.get_int("hex", 0), std::invalid_argument);
}

TEST(OptionsTest, SplitListSplitsOnCommas) {
  EXPECT_EQ(Options::split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Options::split_list("solo"), (std::vector<std::string>{"solo"}));
  EXPECT_TRUE(Options::split_list("").empty());
}

TEST(OptionsTest, SplitListRejectsEmptyElements) {
  // "a,,b", a leading or a trailing comma all hide a typo'd element; the
  // shared splitter is as strict as the scalar getters.
  EXPECT_THROW(Options::split_list("a,,b"), std::invalid_argument);
  EXPECT_THROW(Options::split_list("a,"), std::invalid_argument);
  EXPECT_THROW(Options::split_list(",a"), std::invalid_argument);
  EXPECT_THROW(Options::split_list(","), std::invalid_argument);
}

TEST(OptionsTest, GetListParsesCommaValues) {
  Options opts = parse({"--only=lat_pipe,bw_mem", "--empty="});
  EXPECT_EQ(opts.get_list("only"), (std::vector<std::string>{"lat_pipe", "bw_mem"}));
  // Explicitly empty value -> empty list; missing key -> fallback.
  EXPECT_TRUE(opts.get_list("empty").empty());
  EXPECT_EQ(opts.get_list("missing", {"dflt"}), (std::vector<std::string>{"dflt"}));
}

TEST(OptionsTest, GetListNamesTheOffendingOption) {
  Options opts = parse({"--only=a,,b"});
  try {
    opts.get_list("only");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--only"), std::string::npos) << e.what();
  }
}

TEST(OptionsTest, EntriesExposeEveryParsedFlag) {
  Options opts = parse({"--quick", "--jobs=2"});
  const auto& entries = opts.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries.at("quick"), "true");
  EXPECT_EQ(entries.at("jobs"), "2");
}

TEST(OptionsTest, SizeSuffixRejectsTrailingGarbage) {
  EXPECT_THROW(Options::parse_size("4kZZ"), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("4k "), std::invalid_argument);
  EXPECT_THROW(Options::parse_size(" 4k"), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("4.5k"), std::invalid_argument);
  EXPECT_THROW(Options::parse_size("k"), std::invalid_argument);
  EXPECT_EQ(Options::parse_size("4k"), 4096);
}

}  // namespace
}  // namespace lmb
