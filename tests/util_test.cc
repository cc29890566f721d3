// Unit tests for the util substrate: strings, rng, json, status, tables,
// strict env readers.

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table_printer.h"

namespace gred {
namespace {

using strings::EditDistance;
using strings::EditSimilarity;
using strings::IdentifierWordOverlap;
using strings::SplitIdentifierWords;

TEST(Strings, ToLowerUpper) {
  EXPECT_EQ(strings::ToLower("HeLLo_42"), "hello_42");
  EXPECT_EQ(strings::ToUpper("HeLLo_42"), "HELLO_42");
  EXPECT_EQ(strings::ToLower(""), "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(strings::Trim("  a b \t\n"), "a b");
  EXPECT_EQ(strings::Trim(""), "");
  EXPECT_EQ(strings::Trim("   "), "");
  EXPECT_EQ(strings::Trim("x"), "x");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  EXPECT_EQ(strings::Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(strings::Split("", ','), (std::vector<std::string>{""}));
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(strings::SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(strings::SplitWhitespace("   ").empty());
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::Join({}, ","), "");
  EXPECT_EQ(strings::Join({"solo"}, ","), "solo");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(strings::StartsWith("employee_id", "emp"));
  EXPECT_FALSE(strings::StartsWith("emp", "employee"));
  EXPECT_TRUE(strings::EndsWith("employee_id", "_id"));
  EXPECT_FALSE(strings::EndsWith("id", "_id"));
}

TEST(Strings, EqualsIgnoreCase) {
  EXPECT_TRUE(strings::EqualsIgnoreCase("Dept_ID", "dept_id"));
  EXPECT_FALSE(strings::EqualsIgnoreCase("dept", "dept_id"));
}

TEST(Strings, ContainsIgnoreCase) {
  EXPECT_TRUE(strings::ContainsIgnoreCase("The Hire_Date column", "hire_date"));
  EXPECT_FALSE(strings::ContainsIgnoreCase("salary", "wage"));
  EXPECT_TRUE(strings::ContainsIgnoreCase("anything", ""));
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(strings::ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(strings::ReplaceAll("abc", "", "x"), "abc");
}

TEST(Strings, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("salary", "salary"), 0u);
}

TEST(Strings, EditSimilarityRange) {
  EXPECT_DOUBLE_EQ(EditSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(EditSimilarity("abc", "abc"), 1.0);
  EXPECT_GT(EditSimilarity("salary", "salaries"), 0.6);
  EXPECT_LT(EditSimilarity("salary", "zzzzzz"), 0.2);
}

TEST(Strings, SplitIdentifierWordsSnake) {
  EXPECT_EQ(SplitIdentifierWords("hire_date"),
            (std::vector<std::string>{"hire", "date"}));
  EXPECT_EQ(SplitIdentifierWords("Dept_ID"),
            (std::vector<std::string>{"dept", "id"}));
}

TEST(Strings, SplitIdentifierWordsCamel) {
  EXPECT_EQ(SplitIdentifierWords("maxSalary"),
            (std::vector<std::string>{"max", "salary"}));
  EXPECT_EQ(SplitIdentifierWords("EmploymentDay"),
            (std::vector<std::string>{"employment", "day"}));
}

TEST(Strings, SplitIdentifierWordsDigits) {
  EXPECT_EQ(SplitIdentifierWords("top10list"),
            (std::vector<std::string>{"top", "10", "list"}));
}

TEST(Strings, CaseRendering) {
  EXPECT_EQ(strings::ToSnakeCase({"hire", "date"}), "hire_date");
  EXPECT_EQ(strings::ToCamelCase({"hire", "date"}), "HireDate");
}

TEST(Strings, IdentifierWordOverlap) {
  EXPECT_DOUBLE_EQ(IdentifierWordOverlap("acc_percent", "percent_of_acc"),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(IdentifierWordOverlap("salary", "salary"), 1.0);
  EXPECT_DOUBLE_EQ(IdentifierWordOverlap("salary", "wage"), 0.0);
  EXPECT_DOUBLE_EQ(IdentifierWordOverlap("Hire_Date", "hire_date"), 1.0);
}

TEST(Strings, Format) {
  EXPECT_EQ(strings::Format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strings::Format("%.2f", 0.5), "0.50");
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(13), 13u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PickWeightedRespectsZeroWeight) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    std::size_t idx = rng.PickWeighted({0.0, 1.0, 0.0});
    EXPECT_EQ(idx, 1u);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, ForkIndependence) {
  Rng a(42);
  Rng fork = a.Fork();
  std::uint64_t next_after_fork = a.Next();
  Rng b(42);
  (void)b.Fork();
  EXPECT_EQ(b.Next(), next_after_fork);
  (void)fork.Next();  // consuming the fork must not disturb the parent
}

TEST(Hash, Fnv1aStability) {
  EXPECT_EQ(Fnv1a64(std::string("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64(std::string("a")), Fnv1a64(std::string("a")));
  EXPECT_NE(Fnv1a64(std::string("a")), Fnv1a64(std::string("b")));
}

TEST(Json, Scalars) {
  EXPECT_EQ(json::Value::Null().Dump(), "null");
  EXPECT_EQ(json::Value::Bool(true).Dump(), "true");
  EXPECT_EQ(json::Value::Int(42).Dump(), "42");
  EXPECT_EQ(json::Value::Number(2.5).Dump(), "2.5");
  EXPECT_EQ(json::Value::Str("hi").Dump(), "\"hi\"");
}

TEST(Json, Escaping) {
  EXPECT_EQ(json::Value::Str("a\"b\\c\nd").Dump(), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(json::Escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ObjectPreservesInsertionOrder) {
  json::Value obj = json::Value::Object();
  obj.Set("z", json::Value::Int(1));
  obj.Set("a", json::Value::Int(2));
  EXPECT_EQ(obj.Dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, SetOverwritesExistingKey) {
  json::Value obj = json::Value::Object();
  obj.Set("k", json::Value::Int(1));
  obj.Set("k", json::Value::Int(2));
  EXPECT_EQ(obj.Dump(), "{\"k\":2}");
}

TEST(Json, NestedArrayDump) {
  json::Value arr = json::Value::Array();
  arr.Append(json::Value::Int(1));
  json::Value inner = json::Value::Object();
  inner.Set("x", json::Value::Str("y"));
  arr.Append(std::move(inner));
  EXPECT_EQ(arr.Dump(), "[1,{\"x\":\"y\"}]");
}

TEST(Json, IndentedDumpContainsNewlines) {
  json::Value obj = json::Value::Object();
  obj.Set("a", json::Value::Int(1));
  std::string out = obj.Dump(2);
  EXPECT_NE(out.find('\n'), std::string::npos);
  EXPECT_NE(out.find("  \"a\": 1"), std::string::npos);
}

TEST(Json, Find) {
  json::Value obj = json::Value::Object();
  obj.Set("key", json::Value::Int(7));
  ASSERT_NE(obj.Find("key"), nullptr);
  EXPECT_EQ(obj.Find("key")->number_value(), 7.0);
  EXPECT_EQ(obj.Find("missing"), nullptr);
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, UnavailableIsTheOnlyTransientCode) {
  Status s = Status::Unavailable("backend overloaded");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(s.IsTransient());
  EXPECT_EQ(s.ToString(), "Unavailable: backend overloaded");
  EXPECT_FALSE(Status::OK().IsTransient());
  EXPECT_FALSE(Status::Internal("boom").IsTransient());
  EXPECT_FALSE(Status::ParseError("bad").IsTransient());
  EXPECT_FALSE(Status::InvalidArgument("bad").IsTransient());
  EXPECT_FALSE(Status::NotFound("gone").IsTransient());
  EXPECT_FALSE(Status::ExecutionError("err").IsTransient());
  EXPECT_FALSE(Status::Unimplemented("todo").IsTransient());
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(Result, ValueAccess) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorState) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, MacroPropagation) {
  auto inner = []() -> Result<int> { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    GRED_ASSIGN_OR_RETURN(int v, inner());
    (void)v;
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInternal);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"A", "Long header"});
  table.AddRow({"x", "1"});
  table.AddRow({"longer", "2"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("| A      | Long header |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 2           |"), std::string::npos);
}

TEST(TablePrinter, ShortRowsArePadded) {
  TablePrinter table({"A", "B"});
  table.AddRow({"only"});
  EXPECT_NE(table.ToString().find("| only |"), std::string::npos);
}

TEST(TablePrinter, FormatPercent) {
  EXPECT_EQ(FormatPercent(0.8517), "85.17%");
  EXPECT_EQ(FormatPercent(0.0), "0.00%");
  EXPECT_EQ(FormatPercent(1.0), "100.00%");
}

// Property: edit distance is a metric on a sampled set of strings.
class EditDistanceProperty : public ::testing::TestWithParam<int> {};

TEST_P(EditDistanceProperty, TriangleInequalityAndSymmetry) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  auto random_word = [&]() {
    std::string w;
    std::size_t n = rng.NextIndex(10);
    for (std::size_t i = 0; i < n; ++i) {
      w.push_back(static_cast<char>('a' + rng.NextIndex(4)));
    }
    return w;
  };
  for (int i = 0; i < 50; ++i) {
    std::string a = random_word();
    std::string b = random_word();
    std::string c = random_word();
    EXPECT_EQ(EditDistance(a, b), EditDistance(b, a));
    EXPECT_LE(EditDistance(a, c),
              EditDistance(a, b) + EditDistance(b, c));
    EXPECT_EQ(EditDistance(a, a), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParsePositiveSize, AcceptsPositiveIntegers) {
  EXPECT_EQ(strings::ParsePositiveSize("1"), 1u);
  EXPECT_EQ(strings::ParsePositiveSize("42"), 42u);
  EXPECT_EQ(strings::ParsePositiveSize("  8 "), 8u);  // surrounding space
  EXPECT_EQ(strings::ParsePositiveSize("007"), 7u);
}

TEST(ParsePositiveSize, RejectsEverythingElse) {
  EXPECT_EQ(strings::ParsePositiveSize(""), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("   "), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("0"), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("-3"), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("+3"), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("3.5"), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("12abc"), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("abc"), std::nullopt);
  EXPECT_EQ(strings::ParsePositiveSize("1e6"), std::nullopt);
  // Overflows std::size_t on every platform we build for.
  EXPECT_EQ(strings::ParsePositiveSize("99999999999999999999999999"),
            std::nullopt);
}

constexpr char kEnvVar[] = "GRED_UTIL_TEST_ENV";

/// Sets kEnvVar for one scope (nullptr leaves it unset), then unsets it.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* value) {
    if (value == nullptr) {
      unsetenv(kEnvVar);
    } else {
      setenv(kEnvVar, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() { unsetenv(kEnvVar); }
};

TEST(Env, UnsetReturnsFallback) {
  ScopedEnv env(nullptr);
  EXPECT_EQ(EnvSizeOrDie(kEnvVar, 7), 7u);
  EXPECT_EQ(EnvCountOrDie(kEnvVar, 9), 9u);
  EXPECT_EQ(EnvRateOrDie(kEnvVar, 0.25), 0.25);
  EXPECT_TRUE(EnvFlagOrDie(kEnvVar, true));
  EXPECT_FALSE(EnvFlagOrDie(kEnvVar, false));
}

TEST(Env, SizeAcceptsPositiveIntegers) {
  for (auto [text, value] : {std::pair<const char*, std::size_t>{"1", 1},
                             {"42", 42},
                             {" 8 ", 8},
                             {"007", 7}}) {
    ScopedEnv env(text);
    EXPECT_EQ(EnvSizeOrDie(kEnvVar, 3), value) << text;
  }
}

TEST(Env, CountAcceptsZeroAndPositiveIntegers) {
  for (auto [text, value] : {std::pair<const char*, std::uint64_t>{"0", 0},
                             {"5", 5},
                             {"100000", 100000}}) {
    ScopedEnv env(text);
    EXPECT_EQ(EnvCountOrDie(kEnvVar, 3), value) << text;
  }
}

TEST(Env, RateAcceptsTheUnitInterval) {
  for (auto [text, value] : {std::pair<const char*, double>{"0", 0.0},
                             {"1", 1.0},
                             {"0.25", 0.25},
                             {"1e-1", 0.1}}) {
    ScopedEnv env(text);
    EXPECT_EQ(EnvRateOrDie(kEnvVar, 0.5), value) << text;
  }
}

TEST(Env, FlagAcceptsZeroAndOne) {
  {
    ScopedEnv env("0");
    EXPECT_FALSE(EnvFlagOrDie(kEnvVar, true));
  }
  ScopedEnv env("1");
  EXPECT_TRUE(EnvFlagOrDie(kEnvVar, false));
}

// A set variable that does not parse — empty included — exits(2) with
// the variable named on stderr, for every reader.
TEST(EnvDeathTest, SizeRejectsZeroSignsGarbageAndEmpty) {
  for (const char* bad : {"0", "-3", "+3", "3.5", "12abc", "", "   ",
                          "99999999999999999999999999"}) {
    ScopedEnv env(bad);
    EXPECT_EXIT(EnvSizeOrDie(kEnvVar, 1), ::testing::ExitedWithCode(2),
                "invalid GRED_UTIL_TEST_ENV")
        << "'" << bad << "'";
  }
}

TEST(EnvDeathTest, CountRejectsSignsGarbageAndEmpty) {
  for (const char* bad : {"-1", "1.5", "abc", "", "00x",
                          "99999999999999999999999999"}) {
    ScopedEnv env(bad);
    EXPECT_EXIT(EnvCountOrDie(kEnvVar, 1), ::testing::ExitedWithCode(2),
                "invalid GRED_UTIL_TEST_ENV")
        << "'" << bad << "'";
  }
}

TEST(EnvDeathTest, RateRejectsOutOfRangeGarbageAndEmpty) {
  for (const char* bad :
       {"-0.1", "1.5", "inf", "nan", "abc", "0.5x", "", "1e999"}) {
    ScopedEnv env(bad);
    EXPECT_EXIT(EnvRateOrDie(kEnvVar, 0.0), ::testing::ExitedWithCode(2),
                "invalid GRED_UTIL_TEST_ENV")
        << "'" << bad << "'";
  }
}

TEST(EnvDeathTest, FlagRejectsAnythingButZeroOrOne) {
  for (const char* bad : {"2", "true", "yes", "01", "", " 1"}) {
    ScopedEnv env(bad);
    EXPECT_EXIT(EnvFlagOrDie(kEnvVar, false), ::testing::ExitedWithCode(2),
                "invalid GRED_UTIL_TEST_ENV")
        << "'" << bad << "'";
  }
}

}  // namespace
}  // namespace gred
