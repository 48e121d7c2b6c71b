#include "dcc/distrib/session.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "dcc/common/types.h"
#include "dcc/common/wire.h"
#include "dcc/obs/trace.h"

namespace dcc::distrib {

namespace {

// dcc_rank is expected next to the running executable (CMake puts every
// target in one build directory); $DCC_RANK_EXE overrides for tests.
std::string DefaultRankExe() {
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return "dcc_rank";
  buf[len] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "dcc_rank";
  return path.substr(0, slash + 1) + "dcc_rank";
}

}  // namespace

Session::Session(const scenario::ScenarioSpec& spec, std::uint64_t seed,
                 Options opts)
    : spec_(spec), seed_(seed), opts_(std::move(opts)) {
  DCC_REQUIRE(opts_.ranks >= 1 && opts_.ranks <= 512,
              "distrib: rank count must be in [1, 512]");
}

Session::~Session() {
  for (Rank& r : ranks_) {
    if (r.fd < 0) continue;
    try {
      wire::WriteFrame(r.fd, EncodeShutdown());
      if (trace_) {
        // A traced rank answers the shutdown with one kTraceDump carrying
        // its event buffers; stitch them into the coordinator tracer so a
        // single drain emits all clock domains. Best effort — a rank that
        // died mid-run simply contributes no events.
        std::string payload;
        if (wire::ReadFrame(r.fd, &payload) &&
            PeekTag(payload) == MsgTag::kTraceDump) {
          const std::int64_t pid = 1 + (&r - ranks_.data());
          obs::Tracer::Global().InjectShip(pid, DecodeTraceDump(payload));
        }
      }
    } catch (...) {
      // Best effort: a dead rank can't take a shutdown frame.
    }
    ::close(r.fd);
    r.fd = -1;
  }
  for (Rank& r : ranks_) {
    if (r.pid < 0) continue;
    // Grace period for the clean exit, then SIGKILL. Bounded either way —
    // a Session destructor must never hang the run.
    bool reaped = false;
    for (int i = 0; i < 500 && !reaped; ++i) {
      int status = 0;
      const pid_t got = ::waitpid(r.pid, &status, WNOHANG);
      if (got == r.pid || (got < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::usleep(10 * 1000);
    }
    if (!reaped) {
      ::kill(r.pid, SIGKILL);
      int status = 0;
      ::waitpid(r.pid, &status, 0);
    }
    r.pid = -1;
  }
}

void Session::SpawnRank(int k, const std::string& exe) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    throw DistribError(std::string("distrib: socketpair failed: ") +
                       std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    throw DistribError(std::string("distrib: fork failed: ") +
                       std::strerror(errno));
  }
  if (pid == 0) {
    // Child: keep only its end across the exec (everything else in the
    // parent is CLOEXEC, including earlier ranks' sockets).
    ::fcntl(sv[1], F_SETFD, 0);
    const std::string fd_arg = "--fd=" + std::to_string(sv[1]);
    ::execl(exe.c_str(), "dcc_rank", fd_arg.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);  // exec failed; the parent sees EOF at the Hello ack
  }
  ::close(sv[1]);
  ranks_[static_cast<std::size_t>(k)] = Rank{sv[0], pid, true};
}

void Session::SendTo(int k, const std::string& payload) {
  try {
    wire::WriteFrame(ranks_[static_cast<std::size_t>(k)].fd, payload);
  } catch (const wire::WireError& e) {
    throw DistribError("distrib: rank " + std::to_string(k) +
                       " unreachable: " + e.what());
  }
}

std::string Session::ReadFrom(int k) {
  std::string payload;
  bool got = false;
  try {
    got = wire::ReadFrame(ranks_[static_cast<std::size_t>(k)].fd, &payload);
  } catch (const wire::WireError& e) {
    throw DistribError("distrib: rank " + std::to_string(k) +
                       " stream error: " + e.what());
  }
  if (!got) {
    throw DistribError("distrib: rank " + std::to_string(k) +
                       " died (EOF on its frame stream)");
  }
  if (PeekTag(payload) == MsgTag::kError) {
    throw DistribError("distrib: rank " + std::to_string(k) +
                       " failed: " + DecodeError(payload));
  }
  return payload;
}

void Session::SendPositions(const sinr::Engine& engine) {
  const sinr::Network& net = engine.net();
  const SpatialGrid& grid = *engine.grid();
  PositionsMsg m;
  m.positions = net.positions();
  m.live.resize(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    m.live[i] = grid.Contains(i) ? 1 : 0;
  }
  const std::string payload = Encode(m);
  for (int k = 0; k < opts_.ranks; ++k) SendTo(k, payload);
  last_pos_gen_ = net.generation();
  last_index_gen_ = grid.generation();
}

void Session::EnsureStarted(const sinr::Engine& engine) {
  if (started_) return;
  DCC_REQUIRE(engine.mode() == sinr::Engine::Mode::kGrid &&
                  engine.grid() != nullptr,
              "distrib: rank execution requires the grid engine");
  std::string exe = opts_.rank_exe;
  if (exe.empty()) {
    const char* env = std::getenv("DCC_RANK_EXE");
    exe = (env != nullptr && *env != '\0') ? env : DefaultRankExe();
  }

  ranks_.resize(static_cast<std::size_t>(opts_.ranks));
  for (int k = 0; k < opts_.ranks; ++k) SpawnRank(k, exe);

  // The replica recipe: only the network-determining coordinates survive
  // (topology, SINR, shadowing, id seed). Execution-shape fields — sweep,
  // dynamics, faults, threads, ranks, engine options — are cleared so a
  // rank neither recurses nor runs anything on its own.
  scenario::ScenarioSpec replica = spec_;
  replica.seeds = {seed_};
  replica.sweep_key.clear();
  replica.sweep_values.clear();
  replica.dynamics = scenario::ParamMap{};
  replica.max_rounds = 0;
  replica.faults = 0;
  replica.threads = 0;
  replica.ranks = 0;
  replica.nonce.reset();
  replica.engine = sinr::Engine::Options{};

  const sinr::Network& net = engine.net();
  const SpatialGrid& grid = *engine.grid();
  HelloMsg hello;
  hello.ranks = static_cast<std::uint32_t>(opts_.ranks);
  hello.seed = seed_;
  hello.spec_line = replica.ToString();
  hello.cell = grid.cell();
  if (engine.options().coverage) {
    hello.has_coverage = true;
    hello.coverage = *engine.options().coverage;
  }
  hello.far_start = engine.far_start();
  hello.n = net.size();
  hello.tile_count = static_cast<std::uint64_t>(grid.tile_count());
  trace_ = obs::Tracer::enabled();
  hello.trace = trace_;
  for (int k = 0; k < opts_.ranks; ++k) {
    hello.rank = static_cast<std::uint32_t>(k);
    // Stamped immediately before each send so the rank's clock offset
    // reflects this hello's flight, not the whole handshake loop.
    hello.trace_clock_ns = trace_ ? obs::NowRawNs() : 0;
    SendTo(k, Encode(hello));
  }
  for (int k = 0; k < opts_.ranks; ++k) {
    const HelloAckMsg ack = DecodeHelloAck(ReadFrom(k));
    if (ack.rank != static_cast<std::uint32_t>(k) || ack.n != hello.n ||
        ack.tile_count != hello.tile_count) {
      throw DistribError("distrib: rank " + std::to_string(k) +
                         " replica mismatch (n=" + std::to_string(ack.n) +
                         " tiles=" + std::to_string(ack.tile_count) +
                         ", expected n=" + std::to_string(hello.n) +
                         " tiles=" + std::to_string(hello.tile_count) + ")");
    }
  }

  stats_.ranks = opts_.ranks;
  stats_.rank_load.assign(static_cast<std::size_t>(opts_.ranks), 0);
  // Always sync once: a dynamic scenario may have moved nodes between the
  // network build and the first round.
  SendPositions(engine);
  started_ = true;
}

bool Session::StepRound(const sinr::Engine& engine,
                        std::span<const std::size_t> transmitters,
                        std::span<const std::size_t> listeners,
                        std::vector<sinr::Reception>& out) {
  DCC_TRACE_SPAN("distrib.round");
  EnsureStarted(engine);
  const sinr::Network& net = engine.net();
  const SpatialGrid& grid = *engine.grid();
  if (net.generation() != last_pos_gen_ ||
      grid.generation() != last_index_gen_) {
    SendPositions(engine);
  }

  const int R = opts_.ranks;
  const auto tiles = static_cast<std::size_t>(grid.tile_count());
  ++round_;

  // The same balanced cut the in-process engine would make over this
  // round's listeners-per-tile histogram; contiguity means every listener
  // tile lands on exactly one rank, preserving the fallback grouping.
  tile_weights_.assign(tiles, 0);
  for (const std::size_t u : listeners) {
    ++tile_weights_[static_cast<std::size_t>(grid.TileOfPoint(u))];
  }
  plan_.Reset(grid.tile_count(), R, parallel::ShardPolicy::kBalanced,
              tile_weights_);

  // This round's transmitter tiling (counts + occupied tiles, ascending) —
  // the coordinator's half of the halo derivation.
  tx_count_.assign(tiles, 0);
  tx_tile_.resize(transmitters.size());
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    const int t = grid.TileOfPoint(transmitters[i]);
    tx_tile_[i] = t;
    ++tx_count_[static_cast<std::size_t>(t)];
  }
  occupied_tx_.clear();
  for (std::size_t t = 0; t < tiles; ++t) {
    if (tx_count_[t] > 0) occupied_tx_.push_back(static_cast<int>(t));
  }
  // Same engagement rule as Engine::BuildTileState: the pyramid's NearTiles
  // yields the identical near set either way, so the gate is purely the
  // descent-vs-walk cost crossover.
  const bool use_pyramid =
      occupied_tx_.size() >= engine.options().pyramid_min_occupied;
  if (use_pyramid) {
    pyramid_.Reset(grid);
    pyramid_.Rebuild(occupied_tx_, [&](int b) {
      return tx_count_[static_cast<std::size_t>(b)];
    });
  }

  // Owned ordinals per rank (ascending: ordinals are visited in order).
  std::vector<std::vector<std::pair<std::uint32_t, std::uint64_t>>> owned(
      static_cast<std::size_t>(R));
  for (std::size_t ord = 0; ord < listeners.size(); ++ord) {
    const int k = plan_.ShardOfTile(grid.TileOfPoint(listeners[ord]));
    owned[static_cast<std::size_t>(k)].emplace_back(
        static_cast<std::uint32_t>(ord),
        static_cast<std::uint64_t>(listeners[ord]));
  }

  RoundMsg m;
  m.round = round_;
  m.n_listen_total = listeners.size();
  m.tx.resize(transmitters.size());
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    m.tx[i] = static_cast<std::uint64_t>(transmitters[i]);
  }

  std::vector<int> listener_tiles;
  {
    DCC_TRACE_SPAN("distrib.ship");
    for (int k = 0; k < R; ++k) {
      m.owned = owned[static_cast<std::size_t>(k)];
      // Listener-occupied tiles of this rank's contiguous range.
      listener_tiles.clear();
      for (int t = plan_.begin(k); t < plan_.end(k); ++t) {
        if (tile_weights_[static_cast<std::size_t>(t)] > 0) {
          listener_tiles.push_back(t);
        }
      }
      const std::vector<int> near =
          use_pyramid ? pyramid_.NearTiles(grid, listener_tiles, occupied_tx_,
                                           engine.far_start())
                      : NearTxTiles(grid, listener_tiles, occupied_tx_,
                                    engine.far_start());
      m.near.clear();
      m.near.reserve(near.size());
      for (const int b : near) {
        TxSlice slice;
        slice.tile = static_cast<std::uint32_t>(b);
        for (std::size_t i = 0; i < transmitters.size(); ++i) {
          if (tx_tile_[i] != b) continue;
          slice.members.push_back(static_cast<std::uint64_t>(transmitters[i]));
          slice.pos.push_back(net.position(transmitters[i]));
        }
        m.near.push_back(std::move(slice));
      }
      m.far.clear();
      std::size_t ni = 0;
      for (const int b : occupied_tx_) {
        if (ni < near.size() && near[ni] == b) {
          ++ni;
          continue;
        }
        m.far.emplace_back(static_cast<std::uint32_t>(b),
                           tx_count_[static_cast<std::size_t>(b)]);
      }
      const std::string payload = Encode(m);
      stats_.halo_tiles += static_cast<std::int64_t>(m.near.size());
      stats_.halo_bytes += static_cast<std::int64_t>(payload.size());
      SendTo(k, payload);
    }
  }

  // Gather in rank order; one ordinal sort restores the serial emission
  // order exactly as the in-process shard merge does.
  merge_.clear();
  {
    DCC_TRACE_SPAN("distrib.gather");
    for (int k = 0; k < R; ++k) {
      const std::string payload = ReadFrom(k);
      stats_.reply_bytes += static_cast<std::int64_t>(payload.size());
      const RoundReplyMsg reply = DecodeRoundReply(payload);
      if (reply.round != round_) {
        throw DistribError("distrib: rank " + std::to_string(k) +
                           " answered round " + std::to_string(reply.round) +
                           " during round " + std::to_string(round_));
      }
      stats_.rank_load[static_cast<std::size_t>(k)] +=
          static_cast<std::int64_t>(owned[static_cast<std::size_t>(k)].size());
      for (const ReplyEntry& e : reply.receptions) {
        if (e.ordinal >= listeners.size() ||
            listeners[e.ordinal] != static_cast<std::size_t>(e.listener)) {
          throw DistribError("distrib: rank " + std::to_string(k) +
                             " reported a reception for a listener it does "
                             "not own (ordinal " +
                             std::to_string(e.ordinal) + ")");
        }
        merge_.emplace_back(
            e.ordinal,
            sinr::Reception{static_cast<std::size_t>(e.listener),
                            static_cast<std::size_t>(e.sender), e.sinr});
      }
    }
  }
  std::sort(merge_.begin(), merge_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 1; i < merge_.size(); ++i) {
    if (merge_[i].first == merge_[i - 1].first) {
      throw DistribError("distrib: duplicate reception for listener ordinal " +
                         std::to_string(merge_[i].first));
    }
  }
  for (const auto& [ordinal, rec] : merge_) out.push_back(rec);
  ++stats_.rounds;
  return true;
}

void Session::KillRank(int k) {
  Rank& r = ranks_.at(static_cast<std::size_t>(k));
  if (r.pid < 0) return;
  ::kill(r.pid, SIGKILL);
  int status = 0;
  ::waitpid(r.pid, &status, 0);
  r.pid = -1;  // reaped; the open socket now reads EOF
}

}  // namespace dcc::distrib
