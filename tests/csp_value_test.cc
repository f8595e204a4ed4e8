// Unit tests for csp::Value and csp::Env.
#include <gtest/gtest.h>

#include "csp/env.h"
#include "csp/value.h"

namespace ocsp::csp {
namespace {

TEST(Value, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), Value::Type::kNil);
  EXPECT_EQ(Value(true).type(), Value::Type::kBool);
  EXPECT_EQ(Value(7).type(), Value::Type::kInt);
  EXPECT_EQ(Value(1.5).type(), Value::Type::kReal);
  EXPECT_EQ(Value("hi").type(), Value::Type::kString);
  EXPECT_EQ(Value(ValueList{Value(1)}).type(), Value::Type::kList);

  EXPECT_TRUE(Value(true).as_bool());
  EXPECT_EQ(Value(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value(1.5).as_real(), 1.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(ValueList{Value(1), Value(2)}).as_list().size(), 2u);
}

TEST(Value, IntPromotesToRealAccessor) {
  EXPECT_DOUBLE_EQ(Value(3).as_real(), 3.0);
}

TEST(Value, Truthiness) {
  EXPECT_FALSE(Value().truthy());
  EXPECT_FALSE(Value(false).truthy());
  EXPECT_FALSE(Value(0).truthy());
  EXPECT_FALSE(Value(0.0).truthy());
  EXPECT_FALSE(Value("").truthy());
  EXPECT_FALSE(Value(ValueList{}).truthy());
  EXPECT_TRUE(Value(true).truthy());
  EXPECT_TRUE(Value(-1).truthy());
  EXPECT_TRUE(Value("x").truthy());
  EXPECT_TRUE(Value(ValueList{Value()}).truthy());
}

TEST(Value, EqualityIsStructural) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_FALSE(Value(3) == Value(4));
  EXPECT_FALSE(Value(3) == Value(3.0));  // different types
  EXPECT_EQ(Value(ValueList{Value(1), Value("a")}),
            Value(ValueList{Value(1), Value("a")}));
}

TEST(Value, CompareNumericAndMixed) {
  EXPECT_LT(Value::compare(Value(1), Value(2)), 0);
  EXPECT_GT(Value::compare(Value(5), Value(2)), 0);
  EXPECT_EQ(Value::compare(Value(3), Value(3)), 0);
  EXPECT_LT(Value::compare(Value(1), Value(1.5)), 0);  // int vs real
  EXPECT_LT(Value::compare(Value("abc"), Value("abd")), 0);
}

TEST(Value, Arithmetic) {
  EXPECT_EQ(value_add(Value(2), Value(3)), Value(5));
  EXPECT_EQ(value_add(Value("a"), Value("b")), Value("ab"));
  EXPECT_EQ(value_sub(Value(5), Value(3)), Value(2));
  EXPECT_EQ(value_mul(Value(4), Value(3)), Value(12));
  EXPECT_EQ(value_div(Value(7), Value(2)), Value(3));
  EXPECT_EQ(value_mod(Value(7), Value(3)), Value(1));
  EXPECT_EQ(value_add(Value(1), Value(0.5)), Value(1.5));
}

TEST(Value, ToStringRendering) {
  EXPECT_EQ(Value().to_string(), "nil");
  EXPECT_EQ(Value(true).to_string(), "true");
  EXPECT_EQ(Value(42).to_string(), "42");
  EXPECT_EQ(Value("x").to_string(), "\"x\"");
  EXPECT_EQ(Value(ValueList{Value(1), Value(2)}).to_string(), "[1, 2]");
}

TEST(Value, CopySharesPayloadStorage) {
  const Value s("a long enough string to live on the heap");
  const Value s2 = s;  // O(1): refcount bump, same payload object
  EXPECT_TRUE(s.shares_storage_with(s2));
  EXPECT_EQ(&s.as_string(), &s2.as_string());

  const Value l(ValueList{Value(1), Value("x")});
  const Value l2 = l;
  EXPECT_TRUE(l.shares_storage_with(l2));
  EXPECT_EQ(&l.as_list(), &l2.as_list());

  // Inline scalars have no shared payload.
  EXPECT_FALSE(Value(1).shares_storage_with(Value(1)));
}

TEST(Value, MutatingACopyNeverChangesTheOriginal) {
  Value a("original");
  Value b = a;
  b = Value("rebound");  // the only mutation Values support is rebinding
  EXPECT_EQ(a, Value("original"));
  EXPECT_EQ(b, Value("rebound"));

  Value la(ValueList{Value(1), Value(2)});
  Value lb = la;
  lb = value_add(Value(1), Value(1));
  EXPECT_EQ(la, Value(ValueList{Value(1), Value(2)}));
}

TEST(Value, DeepCopySharesNothing) {
  const Value l(ValueList{Value("payload"), Value(ValueList{Value("deep")})});
  const Value c = l.deep_copy();
  EXPECT_EQ(l, c);
  EXPECT_FALSE(l.shares_storage_with(c));
  EXPECT_FALSE(l.as_list()[0].shares_storage_with(c.as_list()[0]));
  EXPECT_FALSE(l.as_list()[1].shares_storage_with(c.as_list()[1]));
}

TEST(Value, EqualityFastPathAndStructuralAgree) {
  const Value a("same text");
  const Value shared = a;                 // pointer-equal payload
  const Value rebuilt("same text");       // distinct payload, equal content
  EXPECT_EQ(a, shared);
  EXPECT_EQ(a, rebuilt);
  EXPECT_FALSE(a.shares_storage_with(rebuilt));
}

TEST(Value, ApproxBytesTracksPayload) {
  EXPECT_EQ(Value().approx_bytes(), 0u);
  EXPECT_EQ(Value(7).approx_bytes(), 0u);
  const Value s(std::string(100, 'x'));
  EXPECT_GE(s.approx_bytes(), 100u);
  const Value l(ValueList{s, s});
  EXPECT_GE(l.approx_bytes(), 2 * s.approx_bytes());
}

TEST(Env, SetGetHasErase) {
  Env env;
  EXPECT_FALSE(env.has("x"));
  env.set("x", Value(1));
  EXPECT_TRUE(env.has("x"));
  EXPECT_EQ(env.get("x"), Value(1));
  env.set("x", Value(2));
  EXPECT_EQ(env.get("x"), Value(2));
  env.erase("x");
  EXPECT_FALSE(env.has("x"));
}

TEST(Env, GetOrFallsBack) {
  Env env;
  EXPECT_EQ(env.get_or("missing", Value(9)), Value(9));
  env.set("missing", Value(1));
  EXPECT_EQ(env.get_or("missing", Value(9)), Value(1));
}

TEST(Env, CopyIsIndependent) {
  Env a;
  a.set("x", Value(1));
  Env b = a;  // checkpoint
  a.set("x", Value(2));
  a.set("y", Value(3));
  EXPECT_EQ(b.get("x"), Value(1));
  EXPECT_FALSE(b.has("y"));
  a = b;  // rollback
  EXPECT_EQ(a.get("x"), Value(1));
  EXPECT_FALSE(a.has("y"));
}

TEST(Env, EqualityAndNames) {
  Env a, b;
  a.set("x", Value(1));
  b.set("x", Value(1));
  EXPECT_EQ(a, b);
  b.set("y", Value(2));
  EXPECT_FALSE(a == b);
  EXPECT_EQ(b.names(), (std::set<std::string>{"x", "y"}));
}

TEST(Env, CopyIsStructurallyShared) {
  Env a;
  for (int i = 0; i < 32; ++i) {
    a.set(std::string("k") + std::to_string(i), Value(std::string(50, 'v')));
  }
  Env b = a;  // checkpoint: O(1) handle copy
  EXPECT_TRUE(a.shares_root_with(b));
  EXPECT_EQ(a, b);

  // One write path-copies O(log n) nodes; the rest stays shared and the
  // untouched values still alias the same payloads.
  b.set("k0", Value(99));
  EXPECT_FALSE(a.shares_root_with(b));
  EXPECT_EQ(a.get("k0"), Value(std::string(50, 'v')));
  EXPECT_TRUE(a.get("k31").shares_storage_with(b.get("k31")));
}

TEST(Env, DeepCopySharesNothing) {
  Env a;
  a.set("s", Value("payload"));
  a.set("l", Value(ValueList{Value("elem")}));
  const Env b = a.deep_copy();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.shares_root_with(b));
  EXPECT_FALSE(a.get("s").shares_storage_with(b.get("s")));
  EXPECT_FALSE(a.get("l").shares_storage_with(b.get("l")));
}

TEST(Env, ApproxBytesGrowsWithState) {
  Env env;
  EXPECT_EQ(env.approx_bytes(), 0u);
  env.set("a", Value(std::string(1000, 'x')));
  const std::size_t one = env.approx_bytes();
  EXPECT_GE(one, 1000u);
  env.set("b", Value(std::string(1000, 'y')));
  EXPECT_GT(env.approx_bytes(), one);
  env.erase("b");
  EXPECT_EQ(env.approx_bytes(), one);
}

}  // namespace
}  // namespace ocsp::csp
