// Engine + InferenceSession: the train → freeze → serve lifecycle through
// the unified sptx::Engine facade — and the recommended starting point for
// new integrations (quickstart.cpp shows the lower-level free functions).
//
//   build/engine_serving
//
// Covers: runtime-config snapshotting with programmatic overrides, model
// creation from a ModelSpec, training, checkpointing, opening a frozen
// thread-safe serving session, and answering top-k / score / rank queries
// from multiple threads against one shared session.
#include <cstdio>
#include <thread>
#include <vector>

#include "src/api/engine.hpp"
#include "src/kg/synthetic.hpp"

int main() {
  using namespace sptx;

  // 1. An Engine snapshots every SPTX_* knob once at construction;
  //    overrides are validated against the registry (a typo throws).
  Engine::Options options;
  options.config_overrides = {{"SPTX_SERVE_MICROBATCH", "on"}};
  Engine engine(options);
  std::printf("runtime config:\n%s\n", engine.config_json().c_str());

  // 2. Data + model. The spec carries everything needed to rebuild the
  //    architecture later (checkpoint restore, frozen replicas).
  Rng rng(42);
  kg::Dataset dataset =
      kg::generate({"serving-demo", 500, 8, 6000}, rng, 0.05, 0.05);
  ModelSpec spec;
  spec.family = "TransE";
  spec.config.dim = 64;
  spec.config.normalize_entities = false;
  spec.seed = 7;
  engine.create_model(spec, dataset.num_entities(), dataset.num_relations());

  // 3. Train through the facade — same loop, same results as train::train.
  train::TrainConfig tconfig;
  tconfig.epochs = 60;
  tconfig.batch_size = 2048;
  tconfig.lr = 1.0f;
  tconfig.use_adagrad = true;
  tconfig.resample_negatives = true;
  engine.train(dataset.train, tconfig);
  std::printf("trained %s; filtered MRR %.3f\n",
              engine.model().name().c_str(),
              engine.evaluate(dataset, {.max_queries = 100}).mrr);

  // 4. Freeze and serve. The session owns an immutable replica — training
  //    the engine further (or destroying it) never perturbs open sessions —
  //    and every method is safe from any number of threads.
  serve::SessionOptions sopts;
  sopts.filter = &dataset.train;  // filtered predictions, eval-style
  auto session = engine.open_session(sopts);

  const Triplet probe = dataset.test[0];
  std::printf("query (%lld, %lld, ?):\n",
              static_cast<long long>(probe.head),
              static_cast<long long>(probe.relation));
  for (const auto& p : session->top_tails(probe.head, probe.relation, 5))
    std::printf("  tail %3lld  score %.4f\n",
                static_cast<long long>(p.entity), p.score);
  std::printf("true tail %lld ranks %.1f (filtered)\n",
              static_cast<long long>(probe.tail), session->rank(probe));

  // 5. Concurrent serving: four threads hammer the one session; the
  //    micro-batch queue coalesces whatever traffic overlaps.
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Rng qrng(static_cast<std::uint64_t>(100 + w));
      for (int i = 0; i < 200; ++i) {
        Triplet q;
        q.head = static_cast<std::int64_t>(
            qrng.next_below(static_cast<std::uint64_t>(dataset.num_entities())));
        q.relation = static_cast<std::int64_t>(qrng.next_below(
            static_cast<std::uint64_t>(dataset.num_relations())));
        q.tail = static_cast<std::int64_t>(
            qrng.next_below(static_cast<std::uint64_t>(dataset.num_entities())));
        session->score_one(q);
      }
    });
  }
  for (auto& t : workers) t.join();
  const auto stats = session->stats();
  std::printf("served %lld queries (%lld triplets, %lld scoring calls, "
              "%lld coalesced)\n",
              static_cast<long long>(stats.queries),
              static_cast<long long>(stats.triplets_scored),
              static_cast<long long>(stats.batcher.batches_executed),
              static_cast<long long>(stats.batcher.coalesced_requests));
  return 0;
}
