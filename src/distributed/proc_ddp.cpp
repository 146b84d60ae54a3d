#include "src/distributed/proc_ddp.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/fault.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/distributed/epoch.hpp"
#include "src/distributed/transport.hpp"
#include "src/kg/streaming_store.hpp"
#include "src/models/checkpoint.hpp"
#include "src/profiling/counters.hpp"
#include "src/runtime/task_pool.hpp"

namespace sptx::distributed {

namespace {

// ---- deadlines (ms) --------------------------------------------------------
constexpr int kHandshakeMs = 15'000;  // spawn → hello → setup round trip
constexpr int kStepWaitMs = 120'000;  // worker waiting for the batch step
constexpr int kIdleWaitMs = 60'000;   // worker waiting for the next epoch
constexpr int kShutdownGraceMs = 2'000;  // child exit grace before SIGKILL

// ---- health registry -------------------------------------------------------
// Process-global mirror of the supervisor's worker table, surfaced through
// Engine::health_json()'s "ddp" block. Written by the supervisor only;
// read from any thread.
struct StatsReg {
  Mutex mu;
  bool active SPTX_GUARDED_BY(mu) = false;
  std::string mode SPTX_GUARDED_BY(mu);
  int runs SPTX_GUARDED_BY(mu) = 0;
  int workers SPTX_GUARDED_BY(mu) = 0;
  int live SPTX_GUARDED_BY(mu) = 0;
  int lost SPTX_GUARDED_BY(mu) = 0;
  int respawned SPTX_GUARDED_BY(mu) = 0;
  int spawned SPTX_GUARDED_BY(mu) = 0;
  std::vector<std::chrono::steady_clock::time_point> last_rx
      SPTX_GUARDED_BY(mu);
  std::vector<char> rank_live SPTX_GUARDED_BY(mu);
};

StatsReg& stats_reg() {
  static StatsReg reg;
  return reg;
}

/// Tiny scope guard (run `fn` on destruction) — keeps the worker's
/// heartbeat thread joinable on every exit path without a dependency.
template <class Fn>
class Finally {
 public:
  explicit Finally(Fn fn) : fn_(std::move(fn)) {}
  ~Finally() { fn_(); }
  Finally(const Finally&) = delete;
  Finally& operator=(const Finally&) = delete;

 private:
  Fn fn_;
};

// ---- wire messages ---------------------------------------------------------

std::string encode_hello(int rank) {
  WireWriter w;
  w.i32(rank);
  w.i64(static_cast<std::int64_t>(::getpid()));
  return w.take();
}

struct SetupMsg {
  models::ModelSpec spec;
  index_t num_entities = 0;
  index_t num_relations = 0;
  std::string data_path;
  int epochs = 0;
  index_t batch_size = 0;
  index_t shard_size = 0;
  float lr = 0.0f;
  std::uint64_t run_seed = 0;
  bool plan_cache = true;
  int heartbeat_ms = 1000;
  int rank = 0;
  int start_epoch = 0;
  std::string resume_ckpt;  // empty = fresh init from the spec seed
};

std::string encode_setup(const SetupMsg& s) {
  WireWriter w;
  w.str(s.spec.family);
  w.str(s.spec.framework);
  w.i64(s.spec.config.dim);
  w.i64(s.spec.config.rel_dim);
  w.f32(s.spec.config.margin);
  w.i32(static_cast<std::int32_t>(s.spec.config.dissimilarity));
  w.i32(static_cast<std::int32_t>(s.spec.config.loss));
  w.u32(s.spec.config.normalize_entities ? 1 : 0);
  w.u64(s.spec.seed);
  w.i64(s.num_entities);
  w.i64(s.num_relations);
  w.str(s.data_path);
  w.i32(s.epochs);
  w.i64(s.batch_size);
  w.i64(s.shard_size);
  w.f32(s.lr);
  w.u64(s.run_seed);
  w.u32(s.plan_cache ? 1 : 0);
  w.i32(s.heartbeat_ms);
  w.i32(s.rank);
  w.i32(s.start_epoch);
  w.str(s.resume_ckpt);
  return w.take();
}

SetupMsg decode_setup(std::string_view payload) {
  WireReader r(payload);
  SetupMsg s;
  s.spec.family = r.str();
  s.spec.framework = r.str();
  s.spec.config.dim = r.i64();
  s.spec.config.rel_dim = r.i64();
  s.spec.config.margin = r.f32();
  s.spec.config.dissimilarity = static_cast<models::Dissimilarity>(r.i32());
  s.spec.config.loss = static_cast<models::LossType>(r.i32());
  s.spec.config.normalize_entities = r.u32() != 0;
  s.spec.seed = r.u64();
  s.num_entities = r.i64();
  s.num_relations = r.i64();
  s.data_path = r.str();
  s.epochs = r.i32();
  s.batch_size = r.i64();
  s.shard_size = r.i64();
  s.lr = r.f32();
  s.run_seed = r.u64();
  s.plan_cache = r.u32() != 0;
  s.heartbeat_ms = r.i32();
  s.rank = r.i32();
  s.start_epoch = r.i32();
  s.resume_ckpt = r.str();
  return s;
}

std::string encode_epoch_begin(int epoch, const std::vector<int>& ranks) {
  WireWriter w;
  w.i32(epoch);
  w.u32(static_cast<std::uint32_t>(ranks.size()));
  for (int r : ranks) w.i32(r);
  return w.take();
}

void decode_epoch_begin(std::string_view payload, int& epoch,
                        std::vector<int>& ranks) {
  WireReader r(payload);
  epoch = r.i32();
  const std::uint32_t n = r.u32();
  ranks.clear();
  for (std::uint32_t i = 0; i < n; ++i) ranks.push_back(r.i32());
}

/// ShardGrad payload: (epoch, batch, shard, loss) + every ParamGrad. All
/// fields are 4-byte multiples so the float blocks stay aligned.
std::string encode_shard_grad(int epoch, std::int64_t batch, std::int64_t s,
                              float loss, const ShardGrads& sg) {
  WireWriter w;
  w.i32(epoch);
  w.i64(batch);
  w.i64(s);
  w.f32(loss);
  w.u32(static_cast<std::uint32_t>(sg.size()));
  for (const ParamGrad& pg : sg) {
    w.u32((pg.present ? 1u : 0u) | (pg.dense ? 2u : 0u));
    if (!pg.present) continue;
    if (pg.dense) {
      w.i64(pg.values.rows());
      w.i64(pg.values.cols());
      for (index_t k = 0; k < pg.values.rows(); ++k)
        w.bytes(pg.values.row(k),
                static_cast<std::size_t>(pg.values.cols()) * sizeof(float));
    } else {
      w.i64(static_cast<std::int64_t>(pg.rows.size()));
      w.i64(pg.values.cols());
      w.bytes(pg.rows.data(), pg.rows.size() * sizeof(index_t));
      for (index_t k = 0; k < pg.values.rows(); ++k)
        w.bytes(pg.values.row(k),
                static_cast<std::size_t>(pg.values.cols()) * sizeof(float));
    }
  }
  return w.take();
}

void decode_shard_grad(std::string_view payload, int& epoch,
                       std::int64_t& batch, std::int64_t& s, float& loss,
                       ShardGrads& sg) {
  WireReader r(payload);
  epoch = r.i32();
  batch = r.i64();
  s = r.i64();
  loss = r.f32();
  const std::uint32_t num_params = r.u32();
  sg.assign(num_params, ParamGrad{});
  for (std::uint32_t i = 0; i < num_params; ++i) {
    ParamGrad& pg = sg[i];
    const std::uint32_t flags = r.u32();
    pg.present = (flags & 1u) != 0;
    pg.dense = (flags & 2u) != 0;
    if (!pg.present) continue;
    const index_t nrows = r.i64();
    const index_t cols = r.i64();
    if (!pg.dense) {
      pg.rows.resize(static_cast<std::size_t>(nrows));
      const std::string_view raw =
          r.raw(static_cast<std::size_t>(nrows) * sizeof(index_t));
      std::memcpy(pg.rows.data(), raw.data(), raw.size());
    }
    pg.values = Matrix(nrows, cols);
    for (index_t k = 0; k < nrows; ++k) {
      const std::string_view raw =
          r.raw(static_cast<std::size_t>(cols) * sizeof(float));
      std::memcpy(pg.values.row(k), raw.data(), raw.size());
    }
  }
}

// ---- step frames -----------------------------------------------------------

/// Step payload: the reduced gradient restricted to the batch support. The
/// bytes are the master's gradient rows verbatim, so every process applies
/// bit-identical axpy updates.
std::string encode_step(int epoch, std::int64_t batch, Replica& rep,
                        const sparse::RowSupport& touched) {
  WireWriter w;
  w.i32(epoch);
  w.i64(batch);
  w.u32(static_cast<std::uint32_t>(rep.params.size()));
  for (std::size_t i = 0; i < rep.params.size(); ++i) {
    const Matrix& g0 = rep.params[i].grad();
    const sparse::ParamRows param_rows(&touched, rep.spaces[i], g0.rows());
    if (param_rows.all()) {  // dense parameter: full matrix
      w.u32(0);
      w.i64(g0.rows());
      w.i64(g0.cols());
      for (index_t k = 0; k < g0.rows(); ++k)
        w.bytes(g0.row(k),
                static_cast<std::size_t>(g0.cols()) * sizeof(float));
    } else {
      const std::vector<index_t> rows = param_rows.rows();
      w.u32(1);
      w.i64(static_cast<std::int64_t>(rows.size()));
      w.i64(g0.cols());
      w.bytes(rows.data(), rows.size() * sizeof(index_t));
      for (index_t row : rows)
        w.bytes(g0.row(row),
                static_cast<std::size_t>(g0.cols()) * sizeof(float));
    }
  }
  return w.take();
}

/// Decode a step frame into `rep`'s gradient buffers, which are all zero
/// between batches (harvest clears what each shard wrote). Every row must
/// lie in the batch support `touched`, where apply_step clears it again.
void decode_step(std::string_view payload, Replica& rep, int expect_epoch,
                 std::int64_t expect_batch,
                 const sparse::RowSupport& touched) {
  WireReader r(payload);
  const int epoch = r.i32();
  const std::int64_t batch = r.i64();
  SPTX_CHECK_CODE(epoch == expect_epoch && batch == expect_batch,
                  ErrorCode::kTransportError,
                  "step frame for (epoch " << epoch << ", batch " << batch
                      << ") but worker is at (" << expect_epoch << ", "
                      << expect_batch << ") — desynchronized");
  const std::uint32_t num_params = r.u32();
  SPTX_CHECK_CODE(num_params == rep.params.size(),
                  ErrorCode::kTransportError, "step frame parameter count "
                      << num_params << " != " << rep.params.size());
  std::vector<index_t> rows;
  for (std::uint32_t i = 0; i < num_params; ++i) {
    const std::uint32_t kind = r.u32();
    const index_t nrows = r.i64();
    const index_t cols = r.i64();
    Matrix& g = rep.params[i].grad();
    const sparse::ParamRows param_rows(&touched, rep.spaces[i], g.rows());
    SPTX_CHECK_CODE(cols == g.cols() && (kind == 0) == param_rows.all() &&
                        (kind != 0 || nrows == g.rows()),
                    ErrorCode::kTransportError,
                    "step frame parameter " << i
                        << " does not match the batch support");
    const std::size_t row_bytes =
        static_cast<std::size_t>(cols) * sizeof(float);
    if (kind == 0) {
      for (index_t k = 0; k < nrows; ++k)
        std::memcpy(g.row(k), r.raw(row_bytes).data(), row_bytes);
      continue;
    }
    rows.resize(static_cast<std::size_t>(nrows));
    const std::string_view raw_rows =
        r.raw(static_cast<std::size_t>(nrows) * sizeof(index_t));
    std::memcpy(rows.data(), raw_rows.data(), raw_rows.size());
    for (index_t row : rows) {
      SPTX_CHECK_CODE(row >= 0 && row < g.rows() && param_rows.covers(row),
                      ErrorCode::kTransportError,
                      "step frame row " << row << " of parameter " << i
                                        << " is outside the batch support");
      std::memcpy(g.row(row), r.raw(row_bytes).data(), row_bytes);
    }
  }
}

// ---- worker process --------------------------------------------------------

/// Run one epoch on the worker side. Returns false when a kShutdown frame
/// arrived instead of the expected step (clean early exit).
bool worker_run_epoch(Conn& conn, Mutex& send_mu, Replica& rep,
                      const kg::TripletSource& data, const SetupMsg& setup,
                      int epoch, const std::vector<int>& live_ranks) {
  bool mine = false;
  for (int rk : live_ranks) mine |= (rk == setup.rank);
  SPTX_CHECK_CODE(mine, ErrorCode::kTransportError,
                  "epoch plan does not include this worker (rank "
                      << setup.rank << ")");

  EpochPlan plan(data, setup.batch_size, setup.shard_size, setup.run_seed);
  while (plan.next()) {
    const Batch& batch = plan.batch();
    for (index_t s = 0; s < batch.num_shards; ++s) {
      const int owner = live_ranks[static_cast<std::size_t>(s) %
                                   live_ranks.size()];
      if (owner != setup.rank) continue;
      // Injected worker-process death: `ddp_proc_kill:die@<epoch>[:<rank>]`
      // — a real _Exit(137), indistinguishable from SIGKILL/OOM to the
      // supervisor. Worker-side only: supervisor re-runs never die here.
      if (fault::should_fail("ddp_proc_kill", epoch, setup.rank))
        std::_Exit(137);
      ShardGrads sg;
      const float loss = compute_shard(rep, batch, s, sg);
      const std::string payload =
          encode_shard_grad(epoch, batch.ordinal, s, loss, sg);
      MutexLock lock(send_mu);
      conn.send(FrameType::kShardGrad, payload, setup.heartbeat_ms * 4);
    }

    // Barrier: the reduced gradient for this batch.
    Frame frame;
    SPTX_CHECK_CODE(conn.recv(frame, kStepWaitMs), ErrorCode::kTransportError,
                    "no step frame within deadline (supervisor wedged?)");
    if (frame.type == FrameType::kShutdown) return false;
    SPTX_CHECK_CODE(frame.type == FrameType::kStep,
                    ErrorCode::kTransportError,
                    "unexpected frame type " << static_cast<int>(frame.type)
                                             << " while awaiting step");
    decode_step(frame.payload, rep, epoch, batch.ordinal, batch.touched);
    apply_step(std::span<Replica>(&rep, 1), batch.touched, setup.lr);
  }
  return true;
}

int worker_body(const WorkerEndpoint& endpoint) {
  fault::init_from_config();
  std::unique_ptr<Conn> conn = connect_uds(endpoint.socket_path, 10'000);
  conn->send(FrameType::kHello, encode_hello(endpoint.rank), 10'000);
  std::unique_ptr<ShmRing> ring;
  if (endpoint.shm_fd >= 0 && endpoint.shm_bytes > 0) {
    ring = ShmRing::attach(endpoint.shm_fd,
                           static_cast<std::size_t>(endpoint.shm_bytes));
    if (ring) conn->set_send_ring(ring.get());
  }

  Frame frame;
  SPTX_CHECK_CODE(conn->recv(frame, 30'000), ErrorCode::kTransportError,
                  "no setup frame from supervisor");
  SPTX_CHECK_CODE(frame.type == FrameType::kSetup,
                  ErrorCode::kTransportError, "expected setup frame");
  const SetupMsg setup = decode_setup(frame.payload);

  // Heartbeats start before the (potentially slow) model/data setup so the
  // supervisor's liveness deadline covers it. Socket writes from the two
  // threads serialize on send_mu; the beacon stops — and the thread joins —
  // on every exit path via the Finally + runtime::Thread destructors. The
  // beacon waits on hb_cv, so stopping wakes it at once instead of after
  // the rest of its interval.
  Mutex send_mu;
  Mutex hb_mu;
  CondVar hb_cv;
  bool hb_stop = false;  // guarded by hb_mu
  std::atomic<bool> hb_dead{false};
  runtime::Thread heartbeat([&conn, &send_mu, &hb_mu, &hb_cv, &hb_stop,
                             &hb_dead, &setup] {
    const auto interval =
        std::chrono::milliseconds(std::max(1, setup.heartbeat_ms / 3));
    for (;;) {
      {
        MutexLock lock(hb_mu);
        const auto deadline = std::chrono::steady_clock::now() + interval;
        while (!hb_stop) {
          if (hb_cv.wait_until(hb_mu, deadline) == std::cv_status::timeout)
            break;
        }
        if (hb_stop) return;
      }
      // Injected beacon suppression: `heartbeat_stall:fail@N` (stall from
      // the N-th beacon on) or `heartbeat_stall:die@<rank>` (stall one
      // rank permanently). The worker keeps computing — only its liveness
      // signal goes dark, so the supervisor's deadline is what trips.
      if (fault::should_fail("heartbeat_stall", setup.rank)) continue;
      try {
        MutexLock lock(send_mu);
        conn->send(FrameType::kHeartbeat, {}, setup.heartbeat_ms);
      } catch (...) {
        hb_dead.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  const Finally stop_heartbeat([&hb_mu, &hb_cv, &hb_stop] {
    {
      MutexLock lock(hb_mu);
      hb_stop = true;
    }
    hb_cv.notify_all();
  });

  const kg::StreamingTripletStore store =
      kg::StreamingTripletStore::open(setup.data_path);
  const kg::TripletSource data(store);
  Replica rep;
  rep.init(models::make_model(setup.spec, setup.num_entities,
                              setup.num_relations),
           setup.plan_cache);
  if (!setup.resume_ckpt.empty())
    models::load_train_checkpoint(*rep.model, setup.resume_ckpt);

  std::vector<int> live_ranks;
  for (;;) {
    if (hb_dead.load(std::memory_order_relaxed)) return 3;
    Frame next;
    if (!conn->recv(next, kIdleWaitMs)) return 2;  // supervisor wedged
    if (next.type == FrameType::kShutdown) return 0;
    SPTX_CHECK_CODE(next.type == FrameType::kEpochBegin,
                    ErrorCode::kTransportError,
                    "unexpected frame type " << static_cast<int>(next.type)
                                             << " between epochs");
    int epoch = 0;
    decode_epoch_begin(next.payload, epoch, live_ranks);
    if (!worker_run_epoch(*conn, send_mu, rep, data, setup, epoch,
                          live_ranks))
      return 0;  // shutdown mid-epoch (supervisor abort path)
  }
}

// ---- supervisor ------------------------------------------------------------

std::atomic<int> g_run_seq{0};

struct WorkerProc {
  int rank = -1;
  pid_t pid = -1;
  std::unique_ptr<Conn> conn;
  std::unique_ptr<ShmRing> ring;
  std::chrono::steady_clock::time_point last_rx{};
  bool live = false;
  bool pending_respawn = false;
  int consecutive_respawns = 0;
};

class Supervisor {
 public:
  Supervisor(const models::ModelSpec& spec, const kg::TripletSource& data,
             const DdpConfig& resolved)
      : spec_(spec),
        data_(data),
        res_(resolved),
        run_dir_(make_run_dir()),
        listener_(run_dir_ + "/sup.sock") {
    // Replicas must start from the weights the threaded path's factory
    // draws: train_ddp hands each factory call an Rng seeded with the RUN
    // seed (config.seed), so make_model here — and in every worker — must
    // see that seed, not whatever the spec carried.
    spec_.seed = res_.seed;
  }

  ~Supervisor() {
    // Every exit path — normal return, strict abort, any exception — reaps
    // the children and removes the run dir (the Listener member unlinks
    // the socket). Never throws.
    try {
      shutdown_workers();
    } catch (...) {
    }
    std::error_code ec;
    std::filesystem::remove_all(run_dir_, ec);
    MutexLock lock(stats_reg().mu);
    stats_reg().active = false;
  }

  DdpResult run();

 private:
  static std::string make_run_dir() {
    const int seq = g_run_seq.fetch_add(1);
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("sptx-ddp-" + std::to_string(::getpid()) + "-" +
          std::to_string(seq)))
            .string();
    std::filesystem::create_directories(dir);
    return dir;
  }

  std::string data_path() const { return run_dir_ + "/data.sptx"; }
  std::string sync_ckpt_path() const { return run_dir_ + "/sync.ckpt"; }
  /// The master's state at `next_epoch`, for workers that join there.
  void write_sync_checkpoint(int next_epoch) {
    models::TrainCheckpointState st;
    st.next_epoch = next_epoch;
    st.epoch_loss = result_.epoch_loss;
    models::save_train_checkpoint(*master_.model, st, sync_ckpt_path());
  }

  void spawn(WorkerProc& w);
  bool handshake_one(int start_epoch, const std::string& resume);
  void lose(WorkerProc& w, const std::string& why);
  [[noreturn]] void abort_run(int epoch, const std::string& why);
  void shutdown_workers();
  void respawn_dead(int next_epoch);
  std::vector<int> live_ranks() const;
  void collect_shards(int epoch, const Batch& batch,
                      const std::vector<int>& owners, ShardResults& shards);
  void touch(WorkerProc& w);
  void publish_stats();

  models::ModelSpec spec_;  // seed overridden to the run seed (see ctor)
  const kg::TripletSource& data_;
  DdpConfig res_;
  std::string run_dir_;
  Listener listener_;
  Replica master_;
  std::vector<WorkerProc> workers_;
  DdpResult result_;
  int retries_left_ = 0;
  index_t shard_size_ = 0;
  /// Set by lose() under strict policy once the budget is gone; run()
  /// checks it at consistent points and calls abort_run there.
  bool abort_pending_ = false;
  std::string abort_reason_;
};

std::vector<int> Supervisor::live_ranks() const {
  std::vector<int> ranks;
  for (const WorkerProc& w : workers_)
    if (w.live) ranks.push_back(w.rank);
  return ranks;
}

void Supervisor::publish_stats() {
  StatsReg& reg = stats_reg();
  MutexLock lock(reg.mu);
  reg.live = 0;
  for (const WorkerProc& w : workers_) {
    if (w.live) ++reg.live;
    reg.rank_live[static_cast<std::size_t>(w.rank)] = w.live ? 1 : 0;
    reg.last_rx[static_cast<std::size_t>(w.rank)] = w.last_rx;
  }
  reg.lost = result_.workers_lost;
  reg.respawned = result_.workers_respawned;
}

void Supervisor::touch(WorkerProc& w) {
  w.last_rx = std::chrono::steady_clock::now();
}

void Supervisor::spawn(WorkerProc& w) {
  if (res_.shm_bytes > 0)
    w.ring = ShmRing::create(static_cast<std::size_t>(res_.shm_bytes));
  const pid_t pid = ::fork();
  SPTX_CHECK_CODE(pid >= 0, ErrorCode::kWorkerLost,
                  "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    // Child. Drop the supervisor-side fds we inherited (the listener and
    // the other live workers' connections) so lifetime is owned by exactly
    // one process; the ring fd is the one inheritance we keep.
    ::close(listener_.fd());
    for (WorkerProc& other : workers_)
      if (other.conn) other.conn->close();
    WorkerEndpoint endpoint;
    endpoint.socket_path = listener_.path();
    endpoint.rank = w.rank;
    endpoint.shm_fd = w.ring ? w.ring->fd() : -1;
    endpoint.shm_bytes = w.ring ? res_.shm_bytes : 0;
    if (res_.worker_exec.empty()) {
      // Fork-only mode (tests): run the worker loop in the child and
      // _Exit so no parent-inherited destructors/atexit handlers run.
      int rc = 1;
      try {
        rc = ddp_worker_main(endpoint);
      } catch (...) {
      }
      std::_Exit(rc);
    }
    // Fork+exec mode (CLI): become `<exe> ddp-worker ...`. The fault spec
    // travels via the environment (SPTX_FAULT_SPEC/SEED), the ring via
    // the inherited fd.
    const std::string shm_fd_s = std::to_string(endpoint.shm_fd);
    const std::string shm_bytes_s = std::to_string(endpoint.shm_bytes);
    const std::string rank_s = std::to_string(endpoint.rank);
    const char* argv[] = {res_.worker_exec.c_str(),
                          "ddp-worker",
                          "--connect",
                          endpoint.socket_path.c_str(),
                          "--rank",
                          rank_s.c_str(),
                          "--shm-fd",
                          shm_fd_s.c_str(),
                          "--shm-bytes",
                          shm_bytes_s.c_str(),
                          nullptr};
    ::execv(res_.worker_exec.c_str(), const_cast<char* const*>(argv));
    std::_Exit(127);  // exec failed; the supervisor sees a lost worker
  }
  w.pid = pid;
  touch(w);
  profiling::count_event(profiling::Counter::kDdpProcSpawns);
  {
    MutexLock lock(stats_reg().mu);
    ++stats_reg().spawned;
  }
}

bool Supervisor::handshake_one(int start_epoch, const std::string& resume) {
  std::unique_ptr<Conn> conn = listener_.accept(kHandshakeMs);
  if (!conn) return false;
  Frame hello;
  if (!conn->recv(hello, kHandshakeMs) ||
      hello.type != FrameType::kHello)
    return false;
  WireReader r(hello.payload);
  const int rank = r.i32();
  SPTX_CHECK_CODE(rank >= 0 &&
                      rank < static_cast<int>(workers_.size()) &&
                      !workers_[static_cast<std::size_t>(rank)].live,
                  ErrorCode::kTransportError,
                  "hello from unexpected rank " << rank);
  WorkerProc& w = workers_[static_cast<std::size_t>(rank)];
  w.conn = std::move(conn);
  if (w.ring) w.conn->set_recv_ring(w.ring.get());

  SetupMsg setup;
  setup.spec = spec_;
  setup.num_entities = data_.num_entities();
  setup.num_relations = data_.num_relations();
  setup.data_path = data_path();
  setup.epochs = res_.epochs;
  setup.batch_size = res_.batch_size;
  setup.shard_size = shard_size_;
  setup.lr = res_.lr;
  setup.run_seed = res_.seed;
  setup.plan_cache = res_.plan_cache;
  setup.heartbeat_ms = res_.heartbeat_ms;
  setup.rank = rank;
  setup.start_epoch = start_epoch;
  setup.resume_ckpt = resume;
  w.conn->send(FrameType::kSetup, encode_setup(setup), kHandshakeMs);
  w.live = true;
  touch(w);
  return true;
}

void Supervisor::lose(WorkerProc& w, const std::string& why) {
  if (!w.live) return;
  w.live = false;
  if (w.conn) w.conn->close();
  if (w.pid > 0) {
    // SIGKILL is idempotent on an already-dead pid; the blocking reap is
    // bounded because after SIGKILL the child cannot linger.
    ::kill(w.pid, SIGKILL);
    int status = 0;
    pid_t rc;
    do {
      rc = ::waitpid(w.pid, &status, 0);
    } while (rc < 0 && errno == EINTR);
    w.pid = -1;
  }
  ++result_.worker_failures;
  ++result_.workers_lost;
  profiling::count_event(profiling::Counter::kDdpProcWorkersLost);
  if (retries_left_ > 0) {
    --retries_left_;
    w.pending_respawn = true;
  } else if (res_.policy != "degrade" && !abort_pending_) {
    // Strict policy with an exhausted budget: record the abort and let the
    // caller reach a consistent point (abort_run flushes `.abort` there).
    // lose() itself never throws so every caller's invariants hold.
    abort_pending_ = true;
    abort_reason_ = "worker " + std::to_string(w.rank) +
                    " lost with the respawn budget exhausted: " + why;
  }
  // degrade: the rank stays dead; training continues on the survivors.
  publish_stats();
}

void Supervisor::abort_run(int epoch, const std::string& why) {
  const std::string flushed = flush_abort(res_, *master_.model);
  shutdown_workers();
  throw_error(ErrorCode::kWorkerLost,
              "multi-process ddp aborting at epoch " + std::to_string(epoch) +
                  flushed + "; cause: " + why);
}

void Supervisor::shutdown_workers() {
  // Best-effort shutdown frames, then a bounded grace period, then SIGKILL
  // — the supervisor never hangs on a wedged child and never leaks one.
  for (WorkerProc& w : workers_) {
    if (!w.live || !w.conn) continue;
    try {
      w.conn->send(FrameType::kShutdown, {}, 200);
    } catch (...) {
    }
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kShutdownGraceMs);
  for (WorkerProc& w : workers_) {
    while (w.pid > 0) {
      int status = 0;
      const pid_t rc = ::waitpid(w.pid, &status, WNOHANG);
      if (rc == w.pid || (rc < 0 && errno == ECHILD)) {
        w.pid = -1;
        break;
      }
      if (rc < 0 && errno != EINTR) {
        w.pid = -1;
        break;
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(w.pid, SIGKILL);
        pid_t reaped;
        do {
          reaped = ::waitpid(w.pid, &status, 0);
        } while (reaped < 0 && errno == EINTR);
        w.pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    w.live = false;
    if (w.conn) w.conn->close();
  }
}

void Supervisor::respawn_dead(int next_epoch) {
  bool sync_written = false;
  for (WorkerProc& w : workers_) {
    if (!w.pending_respawn) continue;
    w.pending_respawn = false;
    // Exponential backoff: a rank that keeps dying waits longer each time
    // (capped), so a crash-looping worker cannot melt the supervisor.
    const int shift = std::min(w.consecutive_respawns, 5);
    const int delay = std::min(res_.respawn_backoff_ms << shift, 2000);
    if (delay > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    if (!sync_written) {
      // Checkpoint-based recovery: the respawned process loads the state
      // the survivors are at and joins at the next epoch boundary.
      write_sync_checkpoint(next_epoch);
      sync_written = true;
    }
    ++w.consecutive_respawns;
    spawn(w);
    if (handshake_one(next_epoch, sync_ckpt_path())) {
      ++result_.workers_respawned;
      profiling::count_event(profiling::Counter::kDdpProcRespawns);
      {
        MutexLock lock(stats_reg().mu);
        ++stats_reg().respawned;
      }
    } else {
      // The respawn itself failed (never connected). Reap it and charge
      // the budget again — or abort/degrade exactly like a mid-epoch loss.
      w.live = true;  // arm lose() for the not-yet-connected process
      lose(w, "respawned worker never completed the handshake");
    }
    publish_stats();
  }
}

void Supervisor::collect_shards(int epoch, const Batch& batch,
                                const std::vector<int>& owners,
                                ShardResults& shards) {
  const auto outstanding = [&]() {
    index_t n = 0;
    for (index_t s = 0; s < batch.num_shards; ++s) {
      const int owner = owners[static_cast<std::size_t>(s)];
      if (owner < 0) continue;  // supervisor-owned
      const WorkerProc& w = workers_[static_cast<std::size_t>(owner)];
      if (w.live && shards.grads[static_cast<std::size_t>(s)].empty()) ++n;
    }
    return n;
  };

  while (outstanding() > 0 && !abort_pending_) {
    std::vector<pollfd> fds;
    std::vector<int> fd_rank;
    for (const WorkerProc& w : workers_) {
      if (!w.live || !w.conn) continue;
      fds.push_back(pollfd{w.conn->fd(), POLLIN, 0});
      fd_rank.push_back(w.rank);
    }
    if (fds.empty()) break;  // everyone died; locals below cover the batch
    const int slice = std::max(1, std::min(100, res_.heartbeat_ms / 4));
    int rc;
    do {
      rc = ::poll(fds.data(), fds.size(), slice);
    } while (rc < 0 && errno == EINTR);

    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < fds.size(); ++i) {
      WorkerProc& w = workers_[static_cast<std::size_t>(fd_rank[i])];
      if (!w.live) continue;
      if (rc > 0 && (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        // Readable: drain exactly one frame (round-robin fairness).
        Frame frame;
        try {
          if (!w.conn->recv(frame, res_.heartbeat_ms)) continue;
        } catch (const Error& e) {
          lose(w, e.what());
          continue;
        }
        touch(w);
        switch (frame.type) {
          case FrameType::kHeartbeat:
            profiling::count_event(profiling::Counter::kDdpProcHeartbeats);
            break;
          case FrameType::kShardGrad: {
            int f_epoch = 0;
            std::int64_t f_batch = 0, f_shard = 0;
            float f_loss = 0.0f;
            ShardGrads sg;
            decode_shard_grad(frame.payload, f_epoch, f_batch, f_shard,
                              f_loss, sg);
            if (f_epoch != epoch || f_batch != batch.ordinal || f_shard < 0 ||
                f_shard >= batch.num_shards) {
              lose(w, "shard frame out of sequence");
              break;
            }
            shards.grads[static_cast<std::size_t>(f_shard)] = std::move(sg);
            shards.loss[static_cast<std::size_t>(f_shard)] = f_loss;
            // The worker's own kDdpShards count stays in its process; count
            // the accepted frame here so shards_executed covers every shard.
            profiling::count_event(profiling::Counter::kDdpShards);
            break;
          }
          case FrameType::kWorkerError:
            lose(w, "worker reported: " + frame.payload);
            break;
          default:
            lose(w, "unexpected frame type " +
                        std::to_string(static_cast<int>(frame.type)));
            break;
        }
      } else {
        // Nothing buffered from this worker: its silence is real, so the
        // liveness deadline applies (and a fast exit is caught sooner via
        // the pid).
        int status = 0;
        const pid_t reaped = w.pid > 0 ? ::waitpid(w.pid, &status, WNOHANG)
                                       : 0;
        if (reaped == w.pid && w.pid > 0) {
          w.pid = -1;
          lose(w, "worker process exited");
          continue;
        }
        const auto age = std::chrono::duration_cast<std::chrono::milliseconds>(
                             now - w.last_rx)
                             .count();
        if (age > res_.heartbeat_ms)
          lose(w, "heartbeat deadline exceeded (" + std::to_string(age) +
                      "ms > " + std::to_string(res_.heartbeat_ms) + "ms)");
      }
    }
  }
}

DdpResult Supervisor::run() {
  shard_size_ = checked_shard_size(res_, data_);
  const int p = res_.workers;
  retries_left_ = res_.max_worker_retries;

  const index_t m = data_.size();
  const index_t n_ent = data_.num_entities();
  const index_t n_rel = data_.num_relations();
  master_.init(models::make_model(spec_, n_ent, n_rel), res_.plan_cache);

  RunLog log(res_, shard_size_, result_);
  // Workers resume from a sync checkpoint of the master written below.
  const int start_epoch = log.resume(std::span<Replica>(&master_, 1));

  {
    StatsReg& reg = stats_reg();
    MutexLock lock(reg.mu);
    reg.active = true;
    reg.mode = "procs";
    ++reg.runs;
    reg.workers = p;
    reg.live = reg.lost = reg.respawned = reg.spawned = 0;
    reg.last_rx.assign(static_cast<std::size_t>(p),
                       std::chrono::steady_clock::now());
    reg.rank_live.assign(static_cast<std::size_t>(p), 0);
  }

  const profiling::CounterWindow frames_window(
      profiling::Counter::kDdpTransportFrames);
  const profiling::CounterWindow bytes_window(
      profiling::Counter::kDdpTransportBytes);
  const profiling::CounterWindow retries_window(
      profiling::Counter::kDdpTransportRetries);

  if (start_epoch < res_.epochs) {
    // Materialise the dataset for the workers: one self-describing
    // streaming file in the run dir, mmap'd by every worker (the kernel
    // shares the page cache, so N workers cost one resident copy).
    kg::StreamingTripletStore::write_file(data_path(), data_.slice(0, m),
                                          n_ent, n_rel);
    std::string initial_resume;
    if (start_epoch > 0) {
      write_sync_checkpoint(start_epoch);
      initial_resume = sync_ckpt_path();
    }
    workers_.resize(static_cast<std::size_t>(p));
    for (int rank = 0; rank < p; ++rank) {
      workers_[static_cast<std::size_t>(rank)].rank = rank;
      spawn(workers_[static_cast<std::size_t>(rank)]);
    }
    for (int i = 0; i < p; ++i) {
      if (!handshake_one(start_epoch, initial_resume)) {
        // Some worker never connected; charge every silent rank.
        for (WorkerProc& w : workers_) {
          if (w.live || w.pid <= 0) continue;
          w.live = true;  // arm lose() for the unconnected process
          lose(w, "worker never completed the startup handshake");
        }
        break;
      }
    }
    publish_stats();
    if (abort_pending_) abort_run(start_epoch, abort_reason_);
  }

  for (int epoch = start_epoch; epoch < res_.epochs; ++epoch) {
    log.begin_epoch();
    const std::vector<int> epoch_ranks = live_ranks();
    for (int rank : epoch_ranks) {
      WorkerProc& w = workers_[static_cast<std::size_t>(rank)];
      try {
        w.conn->send(FrameType::kEpochBegin,
                     encode_epoch_begin(epoch, epoch_ranks),
                     res_.heartbeat_ms);
      } catch (const Error& e) {
        lose(w, e.what());
      }
    }
    if (abort_pending_) abort_run(epoch, abort_reason_);

    EpochPlan plan(data_, res_.batch_size, shard_size_, res_.seed);
    while (plan.next()) {
      const Batch& batch = plan.batch();
      ShardResults shards(batch.num_shards);
      // Ownership was fixed when the epoch began: shard s belongs to
      // epoch_ranks[s % |epoch_ranks|] (-1 = supervisor). A rank that dies
      // mid-epoch keeps its slots — the supervisor covers them — so the
      // surviving workers' view of the assignment never changes.
      std::vector<int> owners(static_cast<std::size_t>(batch.num_shards), -1);
      if (!epoch_ranks.empty())
        for (index_t s = 0; s < batch.num_shards; ++s)
          owners[static_cast<std::size_t>(s)] =
              epoch_ranks[static_cast<std::size_t>(s) % epoch_ranks.size()];

      collect_shards(epoch, batch, owners, shards);
      // Master parameters are consistent here (they only move in the step
      // phase below) — the strict-abort flush point.
      if (abort_pending_) abort_run(epoch, abort_reason_);
      // Cover everything that didn't arrive — dead ranks' shards (their
      // already-received frames are kept: process isolation means a
      // worker's death cannot corrupt what it already shipped) and, with
      // no live worker, entire batches (supervisor-owned, not reassigned).
      const index_t covered = run_missing_shards(master_, batch, shards);
      if (!epoch_ranks.empty()) result_.shards_reassigned += covered;

      // Broadcast the reduced gradient, then step the master with the same
      // bytes. Serialization happens before the local step zeroes g0.
      log.add_batch(reduce_shards(shards, master_));
      const std::string step_payload =
          encode_step(epoch, batch.ordinal, master_, batch.touched);
      for (int rank : epoch_ranks) {
        WorkerProc& w = workers_[static_cast<std::size_t>(rank)];
        if (!w.live) continue;
        try {
          w.conn->send(FrameType::kStep, step_payload, res_.heartbeat_ms * 4);
        } catch (const Error& e) {
          lose(w, e.what());
        }
      }
      if (abort_pending_) abort_run(epoch, abort_reason_);
      apply_step(std::span<Replica>(&master_, 1), batch.touched, res_.lr);
    }
    log.end_epoch(epoch, *master_.model);

    // Ranks that survived the epoch reset their crash-loop backoff; dead
    // ranks with budget respawn from the just-consistent state.
    for (WorkerProc& w : workers_)
      if (w.live) w.consecutive_respawns = 0;
    if (epoch + 1 < res_.epochs) respawn_dead(epoch + 1);
    if (abort_pending_) abort_run(epoch, abort_reason_);
  }

  shutdown_workers();
  publish_stats();

  result_.transport_frames = frames_window.elapsed();
  result_.transport_bytes = bytes_window.elapsed();
  result_.transport_retries = retries_window.elapsed();
  log.finish(std::span<Replica>(&master_, 1));
  return std::move(result_);
}

}  // namespace

DdpResult train_ddp_procs(const models::ModelSpec& spec,
                          const kg::TripletSource& data,
                          const DdpConfig& config, const RuntimeConfig& rc) {
  const DdpConfig resolved = resolve(config, rc);
  fault::init_from_config();
  Supervisor supervisor(spec, data, resolved);
  return supervisor.run();
}

DdpResult train_ddp_procs(const models::ModelSpec& spec,
                          const kg::TripletSource& data,
                          const DdpConfig& config) {
  const auto snapshot = config::current();  // held across the whole run
  return train_ddp_procs(spec, data, config, *snapshot);
}

int ddp_worker_main(const WorkerEndpoint& endpoint) {
  try {
    return worker_body(endpoint);
  } catch (const std::exception&) {
    // Best effort was already made to report over the socket; the exit
    // code is the supervisor-visible signal either way.
    return 3;
  } catch (...) {
    return 3;
  }
}

std::string ddp_health_json() {
  StatsReg& reg = stats_reg();
  std::ostringstream os;
  MutexLock lock(reg.mu);
  const auto now = std::chrono::steady_clock::now();
  os << "{\"active\": " << (reg.active ? "true" : "false") << ", \"mode\": \""
     << (reg.mode.empty() ? "threads" : reg.mode) << "\", \"runs\": "
     << reg.runs << ", \"workers\": " << reg.workers
     << ", \"live\": " << reg.live << ", \"lost\": " << reg.lost
     << ", \"respawned\": " << reg.respawned
     << ", \"spawned\": " << reg.spawned << ", \"heartbeat_age_ms\": [";
  for (std::size_t i = 0; i < reg.last_rx.size(); ++i) {
    if (i > 0) os << ", ";
    if (reg.rank_live[i] == 0) {
      os << -1;
    } else {
      os << std::chrono::duration_cast<std::chrono::milliseconds>(
                now - reg.last_rx[i])
                .count();
    }
  }
  os << "], \"transport\": {\"frames\": "
     << profiling::counter_value(profiling::Counter::kDdpTransportFrames)
     << ", \"bytes\": "
     << profiling::counter_value(profiling::Counter::kDdpTransportBytes)
     << ", \"retries\": "
     << profiling::counter_value(profiling::Counter::kDdpTransportRetries)
     << ", \"heartbeats\": "
     << profiling::counter_value(profiling::Counter::kDdpProcHeartbeats)
     << "}}";
  return os.str();
}

}  // namespace sptx::distributed
