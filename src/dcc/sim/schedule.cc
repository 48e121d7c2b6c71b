#include "dcc/sim/schedule.h"

namespace dcc::sim {

void ExecuteSchedule(
    Exec& ex, const Schedule& sched, const std::vector<Participant>& parts,
    const std::function<std::optional<Message>(std::size_t, std::int64_t)>&
        make_msg,
    const std::function<void(std::size_t, std::size_t, const Message&,
                             std::int64_t)>& hear) {
  std::vector<std::size_t> candidates(parts.size());
  // Node index -> position in parts (kNotParticipant for everyone else).
  std::vector<std::size_t> pos(ex.net().size(), kNotParticipant);
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const std::size_t idx = parts[p].index;
    DCC_REQUIRE(idx < pos.size(), "ExecuteSchedule: participant out of range");
    DCC_REQUIRE(pos[idx] == kNotParticipant,
                "ExecuteSchedule: duplicate participant index");
    pos[idx] = p;
    candidates[p] = idx;
  }

  for (std::int64_t t = 0; t < sched.size(); ++t) {
    ex.RunRound(
        candidates,
        [&](std::size_t idx) -> std::optional<Message> {
          const std::size_t p = pos[idx];
          const Participant& part = parts[p];
          if (!sched.Transmits(t, part.id, part.cluster)) return std::nullopt;
          return make_msg(p, t);
        },
        [&](std::size_t listener, const Message& m) {
          hear(listener, pos[listener], m, t);
        });
  }
}

}  // namespace dcc::sim
