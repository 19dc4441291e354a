#include <gtest/gtest.h>

#include "hwatch/flow_table.hpp"

namespace hwatch::core {
namespace {

net::FlowKey key(std::uint16_t sport = 1000) {
  return net::FlowKey{1, 2, sport, 80};
}

TEST(FlowTableTest, UpsertCreatesOnce) {
  FlowTable t;
  FlowEntry& a = t.upsert(key(), FlowRole::kSender);
  a.marked = 7;
  FlowEntry& b = t.upsert(key(), FlowRole::kReceiver);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.marked, 7u);
  // Role set at creation is preserved.
  EXPECT_EQ(b.role, FlowRole::kSender);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.created(), 1u);
}

TEST(FlowTableTest, FindMissReturnsNull) {
  FlowTable t;
  EXPECT_EQ(t.find(key()), nullptr);
  t.upsert(key(), FlowRole::kSender);
  EXPECT_NE(t.find(key()), nullptr);
  EXPECT_EQ(t.find(key(1001)), nullptr);
  EXPECT_EQ(t.find(key().reversed()), nullptr);  // direction matters
}

TEST(FlowTableTest, EraseClearsEntry) {
  FlowTable t;
  t.upsert(key(), FlowRole::kSender);
  EXPECT_TRUE(t.erase(key()));
  EXPECT_FALSE(t.erase(key()));
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.created(), 1u);  // lifetime counter survives erase
}

TEST(FlowTableTest, ManyFlowsDistinct) {
  FlowTable t;
  for (std::uint16_t p = 1; p <= 1000; ++p) {
    t.upsert(key(p), FlowRole::kReceiver).unmarked = p;
  }
  EXPECT_EQ(t.size(), 1000u);
  EXPECT_EQ(t.find(key(500))->unmarked, 500u);
}

TEST(FlowEntryTest, ApplyDueGrantsReleasesOnlyMature) {
  FlowEntry e;
  e.allowance_bytes = 1000;
  e.pending_grants.push_back({sim::microseconds(50), 500});
  e.pending_grants.push_back({sim::microseconds(100), 700});
  e.apply_due_grants(sim::microseconds(50));
  EXPECT_EQ(e.allowance_bytes.value(), 1500u);
  ASSERT_EQ(e.pending_grants.size(), 1u);
  e.apply_due_grants(sim::microseconds(200));
  EXPECT_EQ(e.allowance_bytes.value(), 2200u);
  EXPECT_TRUE(e.pending_grants.empty());
}

TEST(FlowEntryTest, ApplyDueGrantsFromUnsetAllowance) {
  FlowEntry e;
  e.pending_grants.push_back({0, 400});
  e.apply_due_grants(1);
  EXPECT_EQ(e.allowance_bytes.value(), 400u);
}

}  // namespace
}  // namespace hwatch::core
