// Dynamically typed values flowing through CSP programs.
//
// The IR is dynamically typed (like the Hermes programs the paper targeted
// were at the level we model them): a Value is nil, bool, int, real, string,
// or a list of values.  Values are the unit of guessing — a fork's predictor
// produces a Value per passed variable, and the join verifier compares
// Values for equality.
//
// String and list payloads live behind shared immutable storage: copying a
// Value is a refcount bump, never a payload copy.  "Mutation" is rebinding
// (constructing a new Value); nothing can write through an existing
// payload, so aliased copies can never observe each other's changes.  This
// is what makes Env checkpoints and fork-time machine copies O(1) in the
// speculation layer (ISSUE 4 / the paper's §3.2 copy-elision economics).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace ocsp::csp {

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  enum class Type { kNil, kBool, kInt, kReal, kString, kList };

  Value() : data_(std::monostate{}) {}
  Value(bool b) : data_(b) {}
  Value(std::int64_t i) : data_(i) {}
  Value(int i) : data_(static_cast<std::int64_t>(i)) {}
  Value(double d) : data_(d) {}
  Value(const char* s) : data_(std::make_shared<const std::string>(s)) {}
  Value(std::string s)
      : data_(std::make_shared<const std::string>(std::move(s))) {}
  Value(ValueList l)
      : data_(std::make_shared<const ValueList>(std::move(l))) {}

  Type type() const;

  /// Typed accessors; OCSP_CHECK-fail on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_real() const;
  const std::string& as_string() const;
  const ValueList& as_list() const;

  /// Truthiness: nil/false/0/0.0/""/[] are false, everything else true.
  bool truthy() const;

  std::string to_string() const;

  /// Structural equality, with a same-payload fast path for shared
  /// storage.
  friend bool operator==(const Value& a, const Value& b);

  /// Ordering for Lt/Le/...; defined for same-type numeric and string pairs.
  static int compare(const Value& a, const Value& b);

  /// Approximate heap bytes of the payload (0 for inline scalars);
  /// recursive for lists.  Feeds the Env/checkpoint byte accounting.
  std::size_t approx_bytes() const;

  /// A value with freshly allocated payloads all the way down — shares no
  /// storage with this one.  Used by the deep-copy oracle state strategy.
  Value deep_copy() const;

  /// True when both values alias the same string/list payload object.
  /// Scalars are stored inline and never share; they return false.
  bool shares_storage_with(const Value& other) const;

 private:
  using StringPtr = std::shared_ptr<const std::string>;
  using ListPtr = std::shared_ptr<const ValueList>;

  // Alternative order must match Type's enumerator order: type() is
  // data_.index().
  std::variant<std::monostate, bool, std::int64_t, double, StringPtr,
               ListPtr>
      data_;
};

/// Arithmetic helpers; numeric ops promote int->real when mixed.
Value value_add(const Value& a, const Value& b);  ///< + (also string concat)
Value value_sub(const Value& a, const Value& b);
Value value_mul(const Value& a, const Value& b);
Value value_div(const Value& a, const Value& b);
Value value_mod(const Value& a, const Value& b);

}  // namespace ocsp::csp
