// Bounded FIFO job queue: back-pressure, ordering, shutdown.
#include "serve/queue.h"

#include <gtest/gtest.h>

#include <thread>

namespace hlsav::serve {
namespace {

Job make_job(std::uint64_t id) {
  Job j;
  j.id = id;
  return j;
}

TEST(JobQueue, FullQueueRejectsWithTypedUnavailable) {
  JobQueue q(2);
  EXPECT_TRUE(q.push(make_job(1)).ok());
  EXPECT_TRUE(q.push(make_job(2)).ok());
  Status st = q.push(make_job(3));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_NE(st.message().find("queue full (cap 2)"), std::string::npos) << st.message();
}

TEST(JobQueue, PopsInSubmissionOrder) {
  JobQueue q(2);
  // A forced push (boot re-adoption) past the cap keeps its place too.
  ASSERT_TRUE(q.push(make_job(4)).ok());
  ASSERT_TRUE(q.push(make_job(2)).ok());
  ASSERT_TRUE(q.push(make_job(9), /*force=*/true).ok());
  std::vector<std::uint64_t> order;
  for (int i = 0; i < 2; ++i) order.push_back(q.pop()->id);
  ASSERT_TRUE(q.push(make_job(1)).ok());
  for (int i = 0; i < 2; ++i) order.push_back(q.pop()->id);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 2, 9, 1}));
}

TEST(JobQueue, CloseDrainsPendingAndWakesBlockedPop) {
  JobQueue q(4);
  ASSERT_TRUE(q.push(make_job(7)).ok());
  ASSERT_TRUE(q.push(make_job(8)).ok());
  std::deque<Job> drained = q.close();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].id, 7u);  // submission order for the abort replies
  EXPECT_EQ(drained[1].id, 8u);
  EXPECT_FALSE(q.pop().has_value());
  Status st = q.push(make_job(9));
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shutting down"), std::string::npos);
}

TEST(JobQueue, PopBlocksUntilPushArrives) {
  JobQueue q(4);
  std::optional<Job> got;
  std::thread consumer([&] { got = q.pop(); });
  ASSERT_TRUE(q.push(make_job(42)).ok());
  consumer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 42u);
}

}  // namespace
}  // namespace hlsav::serve
