#include "dcc/sim/schedule.h"

#include <gtest/gtest.h>

#include "dcc/sim/runner.h"

namespace dcc::sim {
namespace {

sinr::Network LineNetwork(int n, double pitch) {
  std::vector<Vec2> pts;
  for (int i = 0; i < n; ++i) pts.push_back({i * pitch, 0.0});
  return sinr::Network::WithSequentialIds(std::move(pts),
                                          sinr::Params::Default());
}

TEST(SsfScheduleTest, TransmitsPerMembership) {
  SsfSchedule sched(sel::Ssf::Construct(64, 3));
  for (std::int64_t i = 0; i < sched.size(); i += 5) {
    for (NodeId v = 1; v <= 64; v += 7) {
      EXPECT_EQ(sched.Transmits(i, v, kNoCluster),
                sched.ssf().Member(i, v));
    }
  }
}

TEST(WcssScheduleTest, KeysOnCluster) {
  WcssSchedule sched(sel::Wcss::WithLength(256, 3, 2, 500, 11));
  bool differs = false;
  for (std::int64_t i = 0; i < sched.size() && !differs; ++i) {
    if (sched.Transmits(i, 5, 1) != sched.Transmits(i, 5, 2)) differs = true;
  }
  EXPECT_TRUE(differs);  // cluster identity must matter
}

TEST(ExecuteScheduleTest, RunsExactlySizeRounds) {
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 3, 40, 3));
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  ExecuteSchedule(
      ex, sched, parts,
      [&](std::size_t, std::int64_t) {
        Message m;
        return std::optional<Message>(m);
      },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  EXPECT_EQ(ex.rounds(), sched.size());
}

TEST(ExecuteScheduleTest, OnlyScheduledParticipantsTransmit) {
  const auto net = LineNetwork(4, 10.0);  // far apart: no receptions
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 64, 5));
  std::vector<Participant> parts;
  for (std::size_t i = 0; i < net.size(); ++i) {
    parts.push_back({i, net.id(i), kNoCluster});
  }
  std::vector<std::vector<char>> sent(net.size());
  for (auto& s : sent) s.assign(static_cast<std::size_t>(sched.size()), 0);
  ExecuteSchedule(
      ex, sched, parts,
      [&](std::size_t p, std::int64_t t) {
        sent[parts[p].index][static_cast<std::size_t>(t)] = 1;
        Message m;
        return std::optional<Message>(m);
      },
      [](std::size_t, std::size_t, const Message&, std::int64_t) {});
  for (std::size_t i = 0; i < net.size(); ++i) {
    for (std::int64_t t = 0; t < sched.size(); ++t) {
      EXPECT_EQ(static_cast<bool>(sent[i][static_cast<std::size_t>(t)]),
                sched.Transmits(t, net.id(i), kNoCluster));
    }
  }
}

TEST(ExecuteScheduleTest, SilentOptOutRespected) {
  const auto net = LineNetwork(2, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 50, 5));
  std::vector<Participant> parts{{0, net.id(0), kNoCluster},
                                 {1, net.id(1), kNoCluster}};
  int heard = 0;
  ExecuteSchedule(
      ex, sched, parts,
      [&](std::size_t, std::int64_t) { return std::optional<Message>(); },
      [&](std::size_t, std::size_t, const Message&, std::int64_t) {
        ++heard;
      });
  EXPECT_EQ(heard, 0);
}

TEST(ExecuteScheduleTest, HearReportsListenerPosition) {
  // Only node 2 transmits (when scheduled); nodes 1 and 3 sit within reach.
  // Participants are listed out of index order, so a position is not an
  // index: node 1 is at position 1, node 3 is not a participant.
  const auto net = LineNetwork(4, 0.5);
  Exec ex(net);
  SsfSchedule sched(sel::Ssf::Construct(64, 3));
  std::vector<Participant> parts{{2, net.id(2), kNoCluster},
                                 {1, net.id(1), kNoCluster}};
  std::vector<std::size_t> pos_at(net.size(), 0);
  std::vector<int> heard(net.size(), 0);
  ExecuteSchedule(
      ex, sched, parts,
      [&](std::size_t p, std::int64_t) {
        Message m;
        m.src = parts[p].id;
        return p == 0 ? std::optional<Message>(m) : std::nullopt;
      },
      [&](std::size_t listener, std::size_t p, const Message& m,
          std::int64_t) {
        EXPECT_EQ(m.src, net.id(2));
        pos_at[listener] = p;
        ++heard[listener];
      });
  ASSERT_GT(heard[1], 0);
  ASSERT_GT(heard[3], 0);
  EXPECT_EQ(pos_at[1], 1u);
  EXPECT_EQ(pos_at[3], kNotParticipant);
}

TEST(ExecuteScheduleTest, DuplicateParticipantRejected) {
  const auto net = LineNetwork(2, 0.5);
  Exec ex(net);
  WssSchedule sched(sel::Wss::WithLength(64, 2, 10, 5));
  std::vector<Participant> parts{{0, net.id(0), kNoCluster},
                                 {0, net.id(0), kNoCluster}};
  EXPECT_THROW(ExecuteSchedule(
                   ex, sched, parts,
                   [](std::size_t, std::int64_t) {
                     return std::optional<Message>();
                   },
                   [](std::size_t, std::size_t, const Message&, std::int64_t) {}),
               InvalidArgument);
}

}  // namespace
}  // namespace dcc::sim
