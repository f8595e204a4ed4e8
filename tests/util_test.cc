// Unit tests for the util layer: deterministic RNG, statistics
// accumulators, the flat set backing guard sets, and the bench table
// printer.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/flat_set.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace ocsp::util {
namespace {

// ---- Rng ------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 12);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 12);
  }
}

TEST(Rng, UniformIntCoversAllValues) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, Uniform01InHalfOpenRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyTracksP) {
  Rng rng(21);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.15);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  EXPECT_NE(a.next(), child.next());
  // Splitting is deterministic too.
  Rng b(42);
  Rng child2 = b.split();
  EXPECT_EQ(child2.next(), Rng(42).split().next());
}

TEST(Rng, CopyPreservesState) {
  Rng a(99);
  a.next();
  Rng b = a;
  EXPECT_EQ(a.next(), b.next());
  EXPECT_EQ(a, b);
}

// ---- Accumulator ------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, MergeMatchesCombinedStream) {
  Accumulator all, left, right;
  Rng rng(31);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0, 100);
    all.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a, b;
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 3.0);
}

// ---- Samples ------------------------------------------------------------------

TEST(Samples, ExactPercentiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, EmptyPercentileIsZero) {
  Samples s;
  EXPECT_EQ(s.percentile(50), 0.0);
}

TEST(Samples, MeanIsArithmetic) {
  Samples s;
  s.add(1);
  s.add(2);
  s.add(6);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

// ---- Histogram ------------------------------------------------------------------

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bucket 0
  h.add(9.5);   // bucket 9
  h.add(-5.0);  // clamps to 0
  h.add(50.0);  // clamps to 9
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(5), 5.0);
}

// ---- FlatSet ------------------------------------------------------------------

TEST(FlatSet, InsertEraseContains) {
  FlatSet<int> s;
  EXPECT_TRUE(s.insert(3));
  EXPECT_TRUE(s.insert(1));
  EXPECT_FALSE(s.insert(3));  // duplicate
  EXPECT_TRUE(s.contains(1));
  EXPECT_TRUE(s.erase(1));
  EXPECT_FALSE(s.erase(1));
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.size(), 1u);
}

TEST(FlatSet, StaysSorted) {
  FlatSet<int> s{5, 1, 4, 2, 3};
  std::vector<int> out(s.begin(), s.end());
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(FlatSet, FindReturnsEndForMissing) {
  FlatSet<int> s{1, 2};
  EXPECT_EQ(s.find(3), s.end());
  EXPECT_NE(s.find(2), s.end());
}

TEST(FlatSet, EqualityIsElementwise) {
  FlatSet<int> a{1, 2}, b{2, 1}, c{1, 3};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

// ---- Table ------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.row("x", 1);
  t.row("longer", 2.5);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("2.500"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, FormatsIntegersWithoutDecimals) {
  Table t({"v"});
  t.row(42);
  EXPECT_NE(t.to_string().find("42"), std::string::npos);
  EXPECT_EQ(t.to_string().find("42.000"), std::string::npos);
}

TEST(Table, BoolsRenderAsYesNo) {
  Table t({"a", "b"});
  t.row(true, false);
  const std::string out = t.to_string();
  EXPECT_NE(out.find("yes"), std::string::npos);
  EXPECT_NE(out.find("no"), std::string::npos);
}

// ---- Histogram merge / to_string ------------------------------------------

TEST(Histogram, MergeAddsBucketwise) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.add(1.5);
  a.add(2.5);
  b.add(2.5);
  b.add(9.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 4u);
  EXPECT_EQ(a.bucket(1), 1u);  // [1, 2): the 1.5 sample
  EXPECT_EQ(a.bucket(2), 2u);  // [2, 3): both 2.5 samples
  EXPECT_EQ(a.bucket(9), 1u);  // [9, 10): the 9.5 sample
}

TEST(Histogram, SameShapeDetectsMismatch) {
  Histogram a(0.0, 10.0, 10);
  EXPECT_TRUE(a.same_shape(Histogram(0.0, 10.0, 10)));
  EXPECT_FALSE(a.same_shape(Histogram(0.0, 10.0, 5)));
  EXPECT_FALSE(a.same_shape(Histogram(0.0, 20.0, 10)));
}

TEST(Histogram, ToStringListsNonEmptyBuckets) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);
  h.add(2.5);
  h.add(2.6);
  const std::string s = h.to_string();
  EXPECT_NE(s.find("[0"), std::string::npos);
  EXPECT_NE(s.find("2"), std::string::npos);
  EXPECT_EQ(Histogram(0.0, 4.0, 4).to_string(), "(empty)\n");
}

// ---- JSON writer ----------------------------------------------------------

TEST(Json, WriterProducesExpectedDocument) {
  JsonWriter w;
  w.begin_object();
  w.key("n").value(3);
  w.key("pi").value(0.5);
  w.key("s").value("a\"b\\c\n");
  w.key("flag").value(true);
  w.key("none").null();
  w.key("xs").begin_array().value(1).value(2).end_array();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"n\":3,\"pi\":0.5,\"s\":\"a\\\"b\\\\c\\n\",\"flag\":true,"
            "\"none\":null,\"xs\":[1,2]}");
}

TEST(Json, EscapeHandlesControlCharacters) {
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
  EXPECT_EQ(json_escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(Json, WriterRoundTripsThroughParser) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("ocsp");
  w.key("values").begin_array().value(1.5).value(-2).end_array();
  w.key("nested").begin_object().key("ok").value(true).end_object();
  w.end_object();

  auto parsed = json_parse(w.str());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  EXPECT_EQ(parsed->find("name")->string, "ocsp");
  ASSERT_TRUE(parsed->find("values")->is_array());
  EXPECT_DOUBLE_EQ(parsed->find("values")->array[0].number, 1.5);
  EXPECT_DOUBLE_EQ(parsed->find("values")->array[1].number, -2.0);
  EXPECT_TRUE(parsed->find("nested")->find("ok")->boolean);
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_FALSE(json_parse("{").has_value());
  EXPECT_FALSE(json_parse("[1,]").has_value());
  EXPECT_FALSE(json_parse("{} trailing").has_value());
  EXPECT_FALSE(json_parse("\"unterminated").has_value());
}

TEST(Json, ParserHandlesEscapesAndNesting) {
  auto v = json_parse(R"({"a": [true, null, "xA\n"], "b": -1.25e2})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->find("a");
  ASSERT_TRUE(a != nullptr && a->is_array());
  EXPECT_TRUE(a->array[0].boolean);
  EXPECT_EQ(a->array[1].type, JsonValue::Type::kNull);
  EXPECT_EQ(a->array[2].string, "xA\n");
  EXPECT_DOUBLE_EQ(v->find("b")->number, -125.0);
}

}  // namespace
}  // namespace ocsp::util
