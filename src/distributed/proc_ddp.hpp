// Multi-process elastic DDP: a supervisor that fork/execs N worker
// processes and drives them through the framed UDS/shm transport
// (transport.hpp), with process-level fault tolerance.
//
// Protocol (all frames CRC-checked, every wait deadline-bounded):
//
//   worker                          supervisor
//   ───────                         ──────────
//   connect, kHello{rank,pid}  →
//                              ←    kSetup{model spec, data path, train
//                                          config, start epoch, resume ckpt}
//   (heartbeat thread starts; beacons every heartbeat_ms/3)
//                              ←    kEpochBegin{epoch, live ranks}
//   kShardGrad{...} per owned  →    collects; re-runs missing shards of
//   shard                           lost workers locally; reduces in
//                                   shard-index order; steps the master
//                              ←    kStep{reduced gradient rows}
//   (apply step, post_step; next batch)
//                              ←    kShutdown
//
// Bit-identity: the supervisor, every worker and the threaded executor in
// ddp.cpp run one schedule, epoch.hpp — the shard decomposition, the
// negative streams (every process re-derives them from Rng(seed+1) per
// epoch), the loss weights, the shard step, the shard-index-ordered
// reduction and the row step are written once there — so `mode=procs`
// produces bit-identical checkpoints to `mode=threads` for any worker
// count, including runs where workers are SIGKILLed and respawned. This
// file adds only supervision and the wire encoding of shards and steps.
//
// Elasticity: a worker that exits, EOFs, or misses the heartbeat deadline
// is declared lost (kWorkerLost); its outstanding shards re-run on the
// supervisor (received shard frames are kept — process isolation means no
// gradient scrubbing), the epoch completes bit-identically, and at the
// epoch boundary the rank respawns with exponential backoff from a
// just-written train checkpoint, within the max_worker_retries budget.
// Budget exhausted: policy "strict" flushes `<checkpoint_path>.abort` and
// throws; "degrade" continues on the survivors, down to the supervisor
// alone. Every exit path reaps children and unlinks the socket (RAII).
//
// Fault sites (deterministically replayable, see common/fault.hpp):
//   ddp_proc_kill    die@<epoch>[:<rank>] — worker _Exit(137)s before its
//                    first owned shard of the matching epoch
//   transport_drop   eio@P — outgoing frame dropped and retried (counted);
//                    a burst past the retry budget fails typed
//   heartbeat_stall  fail@N or die@<rank> — the worker's beacon is
//                    suppressed so the supervisor's deadline fires
#pragma once

#include <string>

#include "src/distributed/ddp.hpp"
#include "src/models/snapshot.hpp"

namespace sptx::distributed {

/// Supervisor entry: train `spec` over `data` with config.workers worker
/// processes. Returns the same DdpResult as the threaded path (plus the
/// procs-only fields). The factory-closure API of train_ddp cannot cross
/// an exec boundary, so this path takes the declarative ModelSpec instead
/// — Engine::train_ddp dispatches here when the resolved mode is "procs".
DdpResult train_ddp_procs(const models::ModelSpec& spec,
                          const kg::TripletSource& data,
                          const DdpConfig& config, const RuntimeConfig& rc);

/// Process-wide-config convenience overload.
DdpResult train_ddp_procs(const models::ModelSpec& spec,
                          const kg::TripletSource& data,
                          const DdpConfig& config);

/// What `sptx ddp-worker` runs: connect to the supervisor, receive the
/// setup frame, train assigned shards until kShutdown. Returns the process
/// exit code (0 clean, non-zero on transport/worker error). `shm_fd` < 0
/// means no ring was inherited.
struct WorkerEndpoint {
  std::string socket_path;
  int rank = 0;
  int shm_fd = -1;
  std::int64_t shm_bytes = 0;
};
int ddp_worker_main(const WorkerEndpoint& endpoint);

/// The `"ddp"` block of Engine::health_json(): live/lost/respawned worker
/// counts, per-rank heartbeat ages, transport frame/byte/retry totals.
/// Reflects the current (or most recent) procs-mode run in this process.
std::string ddp_health_json();

}  // namespace sptx::distributed
