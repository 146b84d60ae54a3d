// sptx::Engine — the unified public facade over the library's lifecycle.
//
// Before this header, a caller juggled five surfaces: the model factories,
// TrainConfig/DdpConfig/EvalConfig free functions, the checkpoint pair, and
// ~15 SPTX_* environment variables read ad hoc deep inside the library. The
// Engine collapses that into one object with one configuration story:
//
//   sptx::Engine engine;                            // snapshots SPTX_* env
//   engine.create_model({.family = "TransE"}, n, r);
//   engine.train(dataset.train, train_config);
//   engine.evaluate(dataset);
//   engine.save("model.sptxc");
//   auto session = engine.open_session();           // frozen snapshot
//   session->top_tails(head, rel, 10);              // from any thread
//
// Configuration: the Engine captures a RuntimeConfig snapshot exactly once
// at construction (environment + Options overrides). Every wrapped call
// resolves its config-struct against that snapshot — nothing inside an
// Engine-driven run reads the environment again. By default the snapshot is
// also installed process-wide so the kernel-dispatch knobs
// (SPTX_NO_SIMD, SPTX_FUSED) consulted below the config-passing layers see
// the same values.
//
// Compatibility: train()/train_ddp()/evaluate() here are thin wrappers over
// the legacy free functions — same loop, same RNG stream, bit-identical
// results (asserted by tests/test_engine.cpp). The free functions remain
// supported; they resolve against the process-wide snapshot instead.
//
// Serving: open_session() freezes the current model (models/snapshot.hpp)
// and returns a thread-safe serve::InferenceSession over the frozen
// replica. Sessions are independent of the engine afterwards — keep
// training, save, or destroy the engine; open sessions are unaffected.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/runtime_config.hpp"
#include "src/common/thread_annotations.hpp"
#include "src/distributed/ddp.hpp"
#include "src/eval/link_prediction.hpp"
#include "src/kg/dataset.hpp"
#include "src/models/model.hpp"
#include "src/models/snapshot.hpp"
#include "src/serve/session.hpp"
#include "src/train/trainer.hpp"

namespace sptx {

using models::ModelSpec;

class Engine {
 public:
  struct Options {
    /// (knob, value) overrides applied on top of the environment snapshot,
    /// e.g. {{"SPTX_NO_SIMD", "1"}, {"SPTX_FUSED", "off"}}.
    /// Validated against the registry — a typo throws at construction.
    std::vector<std::pair<std::string, std::string>> config_overrides;
    /// Install this engine's snapshot as the process-wide config
    /// (config::install) so kernel-dispatch sites see the same values.
    /// With several engines alive, the last constructed wins there; their
    /// train/eval/serve calls still use their own snapshots.
    bool install_process_config = true;
  };

  /// Snapshot the environment, apply no overrides.
  Engine() : Engine(Options{}) {}
  explicit Engine(const Options& options);

  /// The frozen-at-construction configuration snapshot.
  const RuntimeConfig& config() const { return config_; }
  /// Effective configuration as JSON (logging / reproducibility).
  std::string config_json() const { return config_.to_json(); }

  // ---- model lifecycle ----------------------------------------------------
  /// Build a fresh model for a vocabulary; the engine keeps the spec so
  /// checkpoints and snapshots can rebuild the architecture.
  models::KgeModel& create_model(const ModelSpec& spec, index_t num_entities,
                                 index_t num_relations);

  /// create_model + checkpoint restore in one step.
  models::KgeModel& load_model(const ModelSpec& spec, index_t num_entities,
                               index_t num_relations,
                               const std::string& checkpoint_path);

  bool has_model() const { return model_ != nullptr; }
  models::KgeModel& model();
  const ModelSpec& spec() const;

  /// Checkpoint the current model (models::save_checkpoint format).
  void save(const std::string& path);

  // ---- training / evaluation ---------------------------------------------
  /// Train the engine's model. Bit-identical to train::train with the same
  /// snapshot; the callback fires per epoch.
  train::TrainResult train(const TripletStore& data,
                           const train::TrainConfig& config = {},
                           const std::function<void(int, float)>& on_epoch = {});

  /// Sharded data-parallel training from the engine's spec (replicas are
  /// constructed per worker exactly as distributed::train_ddp would).
  /// The trained replica becomes the engine's model; DdpResult::model is
  /// moved from accordingly.
  distributed::DdpResult train_ddp(const kg::TripletSource& data,
                                   const distributed::DdpConfig& config = {});

  /// Filtered link prediction on `dataset.test` (eval::evaluate with the
  /// engine's model).
  eval::RankingMetrics evaluate(const kg::Dataset& dataset,
                                const eval::EvalConfig& config = {});

  // ---- serving ------------------------------------------------------------
  /// Freeze the current model and open a thread-safe inference session
  /// over the frozen replica. `options` is resolved against the engine
  /// snapshot (SPTX_SERVE_* / SPTX_ANN_* knobs); the session's clustered
  /// ANN index (serve/ann_index.hpp) is built here, once, per those knobs.
  std::shared_ptr<serve::InferenceSession> open_session(
      const serve::SessionOptions& options = {}) SPTX_EXCLUDES(sessions_mu_);

  /// The frozen replica alone (no session) — for callers composing their
  /// own serving layer.
  std::shared_ptr<const models::KgeModel> freeze();

  /// Zero-downtime snapshot publication: freeze the engine's CURRENT model
  /// weights, build the new serving snapshot (ANN index included) off the
  /// serving threads, then atomically hot-swap it into every live session
  /// this engine opened. In-flight requests drain on the version they
  /// started with; no request is dropped or answered from torn state. The
  /// vocabulary must match what the sessions are serving (hot-swap
  /// publishes refreshed weights, not a re-sized graph). Returns the new
  /// snapshot version. `options` resolves the ANN knobs exactly as
  /// open_session does; sessions opened later also start from the newest
  /// weights (they freeze on open).
  std::uint64_t publish(const serve::SessionOptions& options = {})
      SPTX_EXCLUDES(sessions_mu_);

  /// Version stamped by the most recent publish() (0 = never published).
  std::uint64_t published_version() const SPTX_EXCLUDES(sessions_mu_) {
    MutexLock lock(sessions_mu_);
    return published_version_;
  }

  // ---- health -------------------------------------------------------------
  /// One-call operational health surface as JSON: model state, the fault-
  /// injection harness (active + spec), and aggregate serving traffic over
  /// every live session this engine opened (queries, scored triplets, and
  /// the graceful-degradation counters — queue-full and deadline
  /// rejections). `status` is "ok", or "degraded" once load has been shed
  /// or a fault spec is installed. The `sptx health` CLI prints this.
  std::string health_json() const SPTX_EXCLUDES(sessions_mu_);

 private:
  RuntimeConfig config_;
  ModelSpec spec_;
  std::unique_ptr<models::KgeModel> model_;
  index_t num_entities_ = 0;
  index_t num_relations_ = 0;
  /// Guards the session registry and the publish counters. The serving
  /// surface — open_session(), publish(), published_version(),
  /// health_json() — is safe to call concurrently (a health-probe thread
  /// racing a publisher racing request threads opening sessions); the
  /// model-mutation surface (create/load/train*) stays single-threaded by
  /// contract. The historical unguarded vector let open_session()'s
  /// prune-and-push race publish()/health_json() iteration — flagged by
  /// the thread-safety annotation pass.
  mutable Mutex sessions_mu_;
  /// Sessions opened by this engine, for the health surface and for
  /// publish() fan-out. Weak — the engine never extends a session's
  /// lifetime; dead entries are pruned on the next open_session().
  mutable std::vector<std::weak_ptr<serve::InferenceSession>> sessions_
      SPTX_GUARDED_BY(sessions_mu_);
  std::uint64_t published_version_ SPTX_GUARDED_BY(sessions_mu_) = 0;
  std::int64_t publishes_ SPTX_GUARDED_BY(sessions_mu_) = 0;
};

}  // namespace sptx
