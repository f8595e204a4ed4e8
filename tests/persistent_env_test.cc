// Unit and property tests for the persistent structural-sharing map that
// backs csp::Env.  The property test drives PersistentValueMap and a
// std::map reference model with the same randomized operation sequence,
// taking snapshots at random points and checking — after arbitrary later
// mutations — that every snapshot still equals the reference state it was
// taken from.  That is exactly the guarantee checkpoint/rollback leans on.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "csp/persistent_map.h"
#include "util/rng.h"

namespace ocsp::csp {
namespace {

using Model = std::map<std::string, Value>;

// The persistent map must iterate in exactly the reference model's order
// (sorted keys) with structurally equal values.
void expect_matches_model(const PersistentValueMap& map, const Model& model,
                          const std::string& context) {
  ASSERT_EQ(map.size(), model.size()) << context;
  auto mit = model.begin();
  for (auto it = map.begin(); it != map.end(); ++it, ++mit) {
    ASSERT_NE(mit, model.end()) << context;
    EXPECT_EQ((*it).first, mit->first) << context;
    EXPECT_EQ((*it).second, mit->second)
        << context << " at key " << mit->first;
  }
  EXPECT_EQ(mit, model.end()) << context;
}

TEST(PersistentValueMap, InsertFindErase) {
  PersistentValueMap m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find("a"), nullptr);

  m.set("a", Value(1));
  m.set("b", Value("two"));
  ASSERT_NE(m.find("a"), nullptr);
  EXPECT_EQ(*m.find("a"), Value(1));
  EXPECT_EQ(*m.find("b"), Value("two"));
  EXPECT_EQ(m.size(), 2u);

  m.set("a", Value(10));  // overwrite
  EXPECT_EQ(*m.find("a"), Value(10));
  EXPECT_EQ(m.size(), 2u);

  EXPECT_TRUE(m.erase("a"));
  EXPECT_FALSE(m.erase("a"));  // already gone
  EXPECT_EQ(m.find("a"), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

TEST(PersistentValueMap, IterationIsSortedAndDeterministic) {
  // Insert in scrambled order; iteration must come back sorted, twice.
  PersistentValueMap m;
  const std::vector<std::string> keys = {"delta", "alpha", "echo", "bravo",
                                         "charlie"};
  for (const auto& k : keys) m.set(k, Value(k));

  std::vector<std::string> first, second;
  for (auto it = m.begin(); it != m.end(); ++it) {
    first.push_back((*it).first);
  }
  for (auto it = m.begin(); it != m.end(); ++it) {
    second.push_back((*it).first);
  }
  const std::vector<std::string> sorted = {"alpha", "bravo", "charlie",
                                           "delta", "echo"};
  EXPECT_EQ(first, sorted);
  EXPECT_EQ(second, sorted);
}

TEST(PersistentValueMap, IteratorPinsItsSnapshot) {
  PersistentValueMap m;
  for (int i = 0; i < 8; ++i) {
    m.set(std::string("k") + std::to_string(i), Value(i));
  }

  // Mutating mid-loop must not disturb an in-flight traversal: the
  // iterator walks the tree it was created from.
  std::size_t seen = 0;
  for (auto it = m.begin(); it != m.end(); ++it) {
    m.set("extra" + std::to_string(seen), Value(-1));
    m.erase("k3");
    ++seen;
  }
  EXPECT_EQ(seen, 8u);
}

TEST(PersistentValueMap, CopyIsSharedUntilMutated) {
  PersistentValueMap a;
  for (int i = 0; i < 64; ++i) a.set("key" + std::to_string(i), Value(i));

  PersistentValueMap b = a;
  EXPECT_TRUE(a.same_root(b));
  EXPECT_EQ(a, b);

  b.set("key0", Value(-1));
  EXPECT_FALSE(a.same_root(b));
  EXPECT_EQ(*a.find("key0"), Value(0));
  EXPECT_EQ(*b.find("key0"), Value(-1));
  // Every untouched entry still aliases the same payload storage.
  EXPECT_TRUE(a.find("key63") == b.find("key63") ||
              a.find("key63")->shares_storage_with(*b.find("key63")) ||
              *a.find("key63") == *b.find("key63"));
}

TEST(PersistentValueMap, ClearAndBytes) {
  PersistentValueMap m;
  EXPECT_EQ(m.approx_bytes(), 0u);
  m.set("big", Value(std::string(500, 'x')));
  EXPECT_GE(m.approx_bytes(), 500u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.approx_bytes(), 0u);
}

// Randomized differential test against std::map, with persistence checks:
// snapshots taken mid-sequence must remain bit-for-bit equal to the model
// state they captured, no matter what happens to the live map afterwards.
TEST(PersistentValueMap, PropertyMatchesReferenceModelWithSnapshots) {
  util::Rng rng(20260805);
  for (int trial = 0; trial < 10; ++trial) {
    PersistentValueMap live;
    Model model;
    // Snapshots of the persistent map paired with full copies of the model
    // at the same instant.
    std::vector<std::pair<PersistentValueMap, Model>> snapshots;

    const int ops = static_cast<int>(rng.uniform_int(50, 400));
    for (int op = 0; op < ops; ++op) {
      const std::string key =
          "var" + std::to_string(rng.uniform_int(0, 40));
      const int action = static_cast<int>(rng.uniform_int(0, 9));
      if (action < 6) {  // insert/overwrite, mixed payload kinds
        Value v;
        switch (rng.uniform_int(0, 2)) {
          case 0:
            v = Value(rng.uniform_int(-1000, 1000));
            break;
          case 1:
            v = Value(std::string(
                static_cast<std::size_t>(rng.uniform_int(0, 64)), 's'));
            break;
          default:
            v = Value(ValueList{Value(rng.uniform_int(0, 9)),
                                Value("elem")});
        }
        live.set(key, v);
        model[key] = v;
      } else if (action < 8) {  // erase
        const bool erased = live.erase(key);
        EXPECT_EQ(erased, model.erase(key) > 0)
            << "trial " << trial << " op " << op;
      } else {  // snapshot: O(1) copy, paired with its reference state
        snapshots.emplace_back(live, model);
      }
    }

    expect_matches_model(live, model,
                         "trial " + std::to_string(trial) + " final");
    // Persistence: old snapshots are untouched by everything that ran
    // after they were taken.
    for (std::size_t s = 0; s < snapshots.size(); ++s) {
      expect_matches_model(snapshots[s].first, snapshots[s].second,
                           "trial " + std::to_string(trial) + " snapshot " +
                               std::to_string(s));
    }
  }
}

// erase() must keep the tree balanced enough that bytes/count aggregates
// stay exact; checked by draining a map in random order against the model.
TEST(PersistentValueMap, PropertyDrainInRandomOrder) {
  util::Rng rng(7);
  PersistentValueMap m;
  Model model;
  for (int i = 0; i < 200; ++i) {
    std::string key = "k";
    key += std::to_string(i);
    Value v(std::string(static_cast<std::size_t>(i % 17), 'p'));
    m.set(key, v);
    model[key] = v;
  }
  while (!model.empty()) {
    auto it = model.begin();
    std::advance(it, rng.uniform_int(0, static_cast<int>(model.size()) - 1));
    ASSERT_TRUE(m.erase(it->first));
    model.erase(it);
    if (model.size() % 37 == 0) {
      expect_matches_model(m, model, "drain at size " +
                                         std::to_string(model.size()));
    }
  }
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.approx_bytes(), 0u);
}

}  // namespace
}  // namespace ocsp::csp
