#include "proto/workload.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "ir/plan.hpp"

namespace pasnet::proto {

Workload::Workload(SecureNetwork& net, WorkloadOptions opts) : net_(net), opts_(opts) {
  if (opts_.batch < 1) {
    throw std::invalid_argument("Workload: batch must be >= 1");
  }
  if (opts_.worker_pairs < 1) {
    throw std::invalid_argument("Workload: worker_pairs must be >= 1");
  }
  program_ = opts_.kind == WorkloadKind::classify ? &net_.classify_program() : &net_.program();
  plan_ = ir::derive_plan(*program_, net_.ring());
}

offline::TripleStore Workload::preprocess(std::size_t queries, int threads,
                                          offline::GenerationReport* report) const {
  offline::OfflineGenerator gen(threads);
  gen.set_tracer(tracer_);  // the offline phase shares the workload timeline
  return gen.generate(
      plan_, queries, [](std::size_t q) { return SecureNetwork::query_dealer_seed(q); },
      report);
}

void Workload::use_store(offline::TripleStore* store, offline::ExhaustionPolicy policy) {
  if (store != nullptr && store->plan_fingerprint() != plan_.fingerprint()) {
    throw std::invalid_argument(
        "Workload::use_store: store fingerprint does not match this workload's plan "
        "(different model, or a logits store offered to a classify workload / vice versa)");
  }
  store_ = store;
  policy_ = policy;
}

WorkloadResult Workload::run(const std::vector<nn::Tensor>& inputs) {
  const std::size_t n = inputs.size();
  WorkloadResult out;
  stats_ = InferenceStats{};
  chunk_stats_.clear();
  if (n == 0) return out;
  const std::size_t base = next_query_;
  next_query_ += n;
  const auto lanes_per_chunk = static_cast<std::size_t>(opts_.batch);
  const std::size_t num_chunks = (n + lanes_per_chunk - 1) / lanes_per_chunk;

  // Store-backed serving claims one bundle per query up front: claims are
  // ordered, so the q-th query of this call maps to the store's next
  // unclaimed index — on a fresh store that is exactly the canonical
  // stream position the dealer path would use.
  const bool tracing = tracer_ != nullptr && tracer_->enabled();
  std::vector<std::pair<std::size_t, offline::QueryBundle*>> claims;
  if (store_ != nullptr) {
    claims.reserve(n);
    for (std::size_t q = 0; q < n; ++q) claims.push_back(store_->claim_next());
    if (tracing) tracer_->add(obs::Counter::store_claims, n);
  }
  const auto stream_position = [&](std::size_t q) {
    return store_ != nullptr ? claims[q].first : base + q;
  };

  if (opts_.kind == WorkloadKind::logits) {
    out.logits.resize(n);
  } else {
    out.labels.resize(n);
  }
  chunk_stats_.resize(num_chunks);

  const auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = c * lanes_per_chunk;
    const std::size_t hi = std::min(n, lo + lanes_per_chunk);
    const std::size_t lanes = hi - lo;
    // One fresh context per chunk, seeded with lane 0's canonical context
    // seed; every lane draws correlated randomness from its OWN stream
    // (its query's canonical dealer seed), which is what pins each lane's
    // output to the independent single-query run of the same position.
    crypto::TwoPartyContext cctx(net_.ring(),
                                 SecureNetwork::query_context_seed(stream_position(lo)),
                                 net_.round_delay());
    // Per-chunk tracer: the chunk's counters become its ChunkStats::trace
    // witness, then merge into the workload tracer (concurrent chunk
    // workers each own their tracer, so there is no cross-chunk tearing).
    obs::Tracer chunk_tracer(tracing);
    if (tracing) cctx.set_tracer(&chunk_tracer);
    const std::uint64_t chunk_begin = tracing ? obs::Tracer::now_us() : 0;
    std::vector<std::unique_ptr<crypto::TripleDealer>> lane_dealers;
    std::vector<std::unique_ptr<crypto::TripleSource>> owned_sources;
    std::vector<crypto::TripleSource*> lane_sources(lanes);
    std::vector<std::unique_ptr<crypto::Prng>> owned_prngs;
    std::vector<std::pair<crypto::Prng*, crypto::Prng*>> lane_prngs(lanes);
    lane_dealers.reserve(lanes);
    owned_sources.reserve(lanes);
    owned_prngs.reserve(2 * lanes);
    for (std::size_t j = 0; j < lanes; ++j) {
      const std::size_t idx = stream_position(lo + j);
      lane_dealers.push_back(std::make_unique<crypto::TripleDealer>(
          net_.ring(), SecureNetwork::query_dealer_seed(idx)));
      if (store_ != nullptr) {
        owned_sources.push_back(std::make_unique<offline::StoreTripleSource>(
            claims[lo + j].second, *lane_dealers.back(), policy_));
      } else {
        owned_sources.push_back(
            std::make_unique<crypto::DealerTripleSource>(*lane_dealers.back(), net_.ring()));
      }
      lane_sources[j] = owned_sources.back().get();
      // Per-lane share-randomness streams, seeded exactly like the fresh
      // per-query context an independent run of position idx constructs —
      // this is what pins each lane's share splits (and truncation noise)
      // to that run's.
      const std::uint64_t cseed = SecureNetwork::query_context_seed(idx);
      owned_prngs.push_back(std::make_unique<crypto::Prng>(crypto::splitmix64(cseed ^ 1)));
      lane_prngs[j].first = owned_prngs.back().get();
      owned_prngs.push_back(std::make_unique<crypto::Prng>(crypto::splitmix64(cseed ^ 2)));
      lane_prngs[j].second = owned_prngs.back().get();
    }

    cctx.reset_stats();
    ir::BatchExecOptions bopts;
    bopts.cfg = net_.config();
    bopts.lane_sources = lane_sources;
    bopts.lane_prngs = lane_prngs;
    const std::vector<nn::Tensor> chunk_inputs(inputs.begin() + static_cast<long>(lo),
                                               inputs.begin() + static_cast<long>(hi));
    ir::BatchExecResult br =
        ir::execute_batch(program(), net_.params(), cctx, chunk_inputs, bopts);
    for (std::size_t j = 0; j < lanes; ++j) {
      if (opts_.kind == WorkloadKind::logits) {
        out.logits[lo + j] = std::move(br.logits[j]);
      } else {
        out.labels[lo + j] = std::move(br.labels[j]);
      }
    }

    ChunkStats& cs = chunk_stats_[c];
    cs.first_query = stream_position(lo);
    cs.queries = lanes;
    const auto& chan = cctx.stats();
    cs.totals.comm_bytes = chan.total_bytes();
    // Each lane has its own triples and so opens its own E = W - B.
    cs.totals.weight_open_bytes = lanes * net_.weight_open_bytes();
    cs.totals.messages = chan.messages;
    cs.totals.rounds = chan.rounds;
    for (const crypto::TripleSource* src : lane_sources) {
      const crypto::TripleCounters& tc = src->counters();
      cs.totals.elem_triples += tc.elem_triples;
      cs.totals.square_pairs += tc.square_pairs;
      cs.totals.matmul_triple_elems += tc.matmul_triple_elems;
      cs.totals.bilinear_triple_elems += tc.bilinear_triple_elems;
      cs.totals.bit_triples += tc.bit_triples;
    }
    if (tracing) {
      chunk_tracer.complete_span("proto", "chunk", chunk_begin,
                                 static_cast<std::int64_t>(lanes));
      chunk_tracer.sample(obs::Sample::chunk_us, obs::Tracer::now_us() - chunk_begin);
      cs.trace = chunk_tracer.snapshot();
      tracer_->merge_from(chunk_tracer);
    }
  };

  const int workers = std::max(
      1, std::min(opts_.worker_pairs, static_cast<int>(num_chunks)));
  std::atomic<std::size_t> next{0};
  std::mutex err_mutex;
  std::exception_ptr first_error;
  const auto drain = [&] {
    for (;;) {
      const std::size_t c = next.fetch_add(1);
      if (c >= num_chunks) break;
      try {
        run_chunk(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(num_chunks);  // drain the queue so other workers stop
        break;
      }
    }
  };
  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back(drain);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  for (const ChunkStats& cs : chunk_stats_) stats_.merge(cs.totals);
  return out;
}

}  // namespace pasnet::proto
