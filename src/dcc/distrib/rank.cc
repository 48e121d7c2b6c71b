#include "dcc/distrib/rank.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dcc/common/types.h"
#include "dcc/common/wire.h"
#include "dcc/distrib/protocol.h"
#include "dcc/obs/trace.h"
#include "dcc/scenario/scenario.h"
#include "dcc/sinr/engine.h"

namespace dcc::distrib {

namespace {

// Whitespace-split (the spec line is ScenarioSpec::ToString() output, which
// joins flags with single spaces; extra whitespace is tolerated).
std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    std::size_t end = pos;
    while (end < line.size() && line[end] != ' ') ++end;
    if (end > pos) out.push_back(line.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

// The rank's whole mutable state: the network replica and the grid engine
// over it.
struct Replica {
  std::uint32_t rank = 0;
  double far_start = 0.0;
  std::optional<sinr::Network> net;
  std::optional<sinr::Engine> engine;

  // Round scratch, reused across rounds.
  std::vector<std::size_t> tx;
  std::vector<int> tx_tile;
  std::vector<std::uint32_t> tx_count;
  std::vector<int> occupied_tx;
  std::vector<int> listener_tiles;
  std::vector<std::size_t> listeners;
  std::vector<std::uint32_t> ordinals;
  std::vector<std::pair<std::uint32_t, sinr::Reception>> pending;
};

void HandleHello(Replica& rep, const HelloMsg& m, int fd) {
  if (m.version != kProtocolVersion) {
    throw wire::WireError("rank: protocol version " +
                          std::to_string(m.version) + " (expected " +
                          std::to_string(kProtocolVersion) + ")");
  }
  rep.rank = m.rank;
  rep.far_start = m.far_start;
  if (m.trace) {
    // Record rank events directly in the coordinator's clock domain: the
    // hello carries the coordinator's raw steady clock stamped just before
    // the send, so (theirs - ours) corrects every local timestamp. Pure
    // observation — nothing on the round path reads the tracer.
    obs::Tracer::Global().Enable();
    obs::Tracer::Global().SetClockOffset(m.trace_clock_ns - obs::NowRawNs());
  }
  const auto spec = scenario::ScenarioSpec::FromArgs(SplitLine(m.spec_line));
  rep.net.emplace(scenario::BuildScenarioNetwork(spec, m.seed));

  sinr::Engine::Options opts;
  opts.mode = sinr::Engine::Mode::kGrid;
  opts.cell = m.cell;
  if (m.has_coverage) opts.coverage = m.coverage;
  opts.threads = 1;
  rep.engine.emplace(*rep.net, opts);

  const SpatialGrid* grid = rep.engine->grid();
  if (rep.net->size() != m.n || grid == nullptr ||
      static_cast<std::uint64_t>(grid->tile_count()) != m.tile_count ||
      rep.engine->far_start() != m.far_start) {
    throw wire::WireError(
        "rank: replica shape mismatch (n=" + std::to_string(rep.net->size()) +
        " tiles=" +
        std::to_string(grid != nullptr ? grid->tile_count() : 0) +
        ", coordinator expects n=" + std::to_string(m.n) +
        " tiles=" + std::to_string(m.tile_count) + ")");
  }

  HelloAckMsg ack;
  ack.rank = m.rank;
  ack.n = rep.net->size();
  ack.tile_count = m.tile_count;
  wire::WriteFrame(fd, Encode(ack));
}

void HandlePositions(Replica& rep, const PositionsMsg& m) {
  if (!rep.net || m.positions.size() != rep.net->size()) {
    throw wire::WireError("rank: positions frame for " +
                          std::to_string(m.positions.size()) +
                          " nodes (replica has " +
                          std::to_string(rep.net ? rep.net->size() : 0) + ")");
  }
  rep.net->SetPositions(m.positions);
  const SpatialGrid& grid = *rep.engine->grid();
  for (std::size_t i = 0; i < m.live.size(); ++i) {
    const bool in_index = grid.Contains(i);
    if (m.live[i] && !in_index) {
      rep.engine->IndexInsert(i);
    } else if (!m.live[i] && in_index) {
      rep.engine->IndexErase(i);
    }
  }
  rep.engine->SyncIndex();
}

// The shipped halo must match what this rank derives from its own replica:
// same near tile set, same CSR members, bit-identical positions, same
// far-field counts. A mismatch means the two address spaces disagree about
// the network — the round must fail loudly, because proceeding would skew
// reception bits silently.
void VerifyHalo(const Replica& rep, const RoundMsg& m) {
  const SpatialGrid& grid = *rep.engine->grid();
  const std::vector<int> near = NearTxTiles(
      grid, rep.listener_tiles, rep.occupied_tx, rep.far_start);
  if (near.size() != m.near.size()) {
    throw wire::WireError("rank: halo disagreement: " +
                          std::to_string(m.near.size()) +
                          " shipped near tiles, derived " +
                          std::to_string(near.size()));
  }
  std::size_t csr_cursor = 0;  // members arrive grouped per tile
  for (std::size_t i = 0; i < near.size(); ++i) {
    const TxSlice& slice = m.near[i];
    if (static_cast<int>(slice.tile) != near[i]) {
      throw wire::WireError("rank: halo disagreement at near tile " +
                            std::to_string(slice.tile) + " (derived " +
                            std::to_string(near[i]) + ")");
    }
    // Local CSR slice of this tile: manifest order filtered by tile — the
    // exact order the engine's counting sort produces.
    std::size_t j = 0;
    for (std::size_t t = 0; t < rep.tx.size() && j <= slice.members.size();
         ++t) {
      if (rep.tx_tile[t] != static_cast<int>(slice.tile)) continue;
      const Vec2 p = rep.net->position(rep.tx[t]);
      if (j >= slice.members.size() ||
          slice.members[j] != static_cast<std::uint64_t>(rep.tx[t]) ||
          !(slice.pos[j] == p)) {
        throw wire::WireError(
            "rank: halo slice for tile " + std::to_string(slice.tile) +
            " diverges from the replica at member " + std::to_string(j));
      }
      ++j;
    }
    if (j != slice.members.size()) {
      throw wire::WireError("rank: halo slice for tile " +
                            std::to_string(slice.tile) + " has " +
                            std::to_string(slice.members.size()) +
                            " members, replica has " + std::to_string(j));
    }
    csr_cursor += j;
  }
  (void)csr_cursor;
  // Far summaries: every remaining occupied tile, with matching counts.
  std::size_t ni = 0;
  std::size_t fi = 0;
  for (const int b : rep.occupied_tx) {
    if (ni < near.size() && near[ni] == b) {
      ++ni;
      continue;
    }
    if (fi >= m.far.size() || static_cast<int>(m.far[fi].first) != b ||
        m.far[fi].second != rep.tx_count[static_cast<std::size_t>(b)]) {
      throw wire::WireError("rank: far-field summary diverges at tile " +
                            std::to_string(b));
    }
    ++fi;
  }
  if (fi != m.far.size()) {
    throw wire::WireError("rank: " + std::to_string(m.far.size() - fi) +
                          " unexpected far-field summaries");
  }
}

void HandleRound(Replica& rep, const RoundMsg& m, int fd) {
  DCC_TRACE_SPAN("rank.round");
  if (!rep.engine) {
    throw wire::WireError("rank: round frame before hello");
  }
  const SpatialGrid& grid = *rep.engine->grid();
  const auto tiles = static_cast<std::size_t>(grid.tile_count());

  rep.tx.resize(m.tx.size());
  rep.tx_tile.resize(m.tx.size());
  rep.tx_count.assign(tiles, 0);
  rep.occupied_tx.clear();
  for (std::size_t i = 0; i < m.tx.size(); ++i) {
    const auto v = static_cast<std::size_t>(m.tx[i]);
    if (!grid.Contains(v)) {
      throw wire::WireError("rank: transmitter " + std::to_string(v) +
                            " is not in the index");
    }
    rep.tx[i] = v;
    const int t = grid.TileOfPoint(v);
    rep.tx_tile[i] = t;
    ++rep.tx_count[static_cast<std::size_t>(t)];
  }
  for (std::size_t t = 0; t < tiles; ++t) {
    if (rep.tx_count[t] > 0) rep.occupied_tx.push_back(static_cast<int>(t));
  }

  // Owned listeners: a sparse ordinal-indexed view. Slots this rank does
  // not own stay zero and are never read (StepOrdinalsInto touches exactly
  // the named ordinals).
  rep.listeners.assign(static_cast<std::size_t>(m.n_listen_total), 0);
  rep.ordinals.clear();
  rep.listener_tiles.clear();
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < m.owned.size(); ++i) {
    const auto [ord, u64] = m.owned[i];
    const auto u = static_cast<std::size_t>(u64);
    if (ord >= m.n_listen_total || (i > 0 && ord <= prev)) {
      throw wire::WireError("rank: owned ordinals malformed at entry " +
                            std::to_string(i));
    }
    if (!grid.Contains(u)) {
      throw wire::WireError("rank: listener " + std::to_string(u) +
                            " is not in the index");
    }
    prev = ord;
    rep.listeners[ord] = u;
    rep.ordinals.push_back(ord);
    rep.listener_tiles.push_back(grid.TileOfPoint(u));
  }
  std::sort(rep.listener_tiles.begin(), rep.listener_tiles.end());
  rep.listener_tiles.erase(
      std::unique(rep.listener_tiles.begin(), rep.listener_tiles.end()),
      rep.listener_tiles.end());

  VerifyHalo(rep, m);

  rep.engine->StepOrdinalsInto(rep.tx, rep.listeners, rep.ordinals,
                               rep.pending);

  RoundReplyMsg reply;
  reply.round = m.round;
  reply.receptions.reserve(rep.pending.size());
  for (const auto& [ordinal, rec] : rep.pending) {
    reply.receptions.push_back(
        ReplyEntry{ordinal, static_cast<std::uint64_t>(rec.listener),
                   static_cast<std::uint64_t>(rec.sender), rec.sinr});
  }
  wire::WriteFrame(fd, Encode(reply));
}

}  // namespace

int RunRank(int fd) {
  Replica rep;
  std::string payload;
  try {
    while (wire::ReadFrame(fd, &payload)) {
      switch (PeekTag(payload)) {
        case MsgTag::kHello:
          HandleHello(rep, DecodeHello(payload), fd);
          break;
        case MsgTag::kPositions:
          HandlePositions(rep, DecodePositions(payload));
          break;
        case MsgTag::kRound:
          HandleRound(rep, DecodeRound(payload), fd);
          break;
        case MsgTag::kShutdown:
          if (obs::Tracer::enabled()) {
            // Answer the shutdown with this rank's trace buffers; the
            // coordinator stitches them into its own drain.
            wire::WriteFrame(
                fd, EncodeTraceDump(obs::Tracer::Global().EncodeShip()));
          }
          return 0;
        default:
          throw wire::WireError(
              "rank: unexpected message tag " +
              std::to_string(static_cast<int>(PeekTag(payload))));
      }
    }
    // EOF without shutdown: the coordinator vanished.
    return 1;
  } catch (const std::exception& e) {
    try {
      wire::WriteFrame(fd, EncodeError(std::string("rank ") +
                                       std::to_string(rep.rank) + ": " +
                                       e.what()));
    } catch (...) {
      // The stream is gone too; exiting nonzero is all that's left.
    }
    return 1;
  }
}

}  // namespace dcc::distrib
