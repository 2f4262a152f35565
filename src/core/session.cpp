#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "core/mram_layout.hpp"
#include "util/check.hpp"
#include "util/trace.hpp"

namespace pimnw::core {

bool hit_better(const ScoreHit& x, const ScoreHit& y) {
  if (x.score != y.score) return x.score > y.score;
  if (x.a != y.a) return x.a < y.a;
  return x.b < y.b;
}

void ScoreReducer::offer(std::uint32_t a, std::uint32_t b,
                         std::int32_t score) {
  ++offered_;
  if (filter_.min_score.has_value() && score < *filter_.min_score) return;
  const ScoreHit hit{a, b, score};
  if (filter_.top_k == 0) {
    heap_.push_back(hit);
    return;
  }
  if (heap_.size() < filter_.top_k) {
    heap_.push_back(hit);
    std::push_heap(heap_.begin(), heap_.end(), hit_better);
    return;
  }
  // heap_.front() is the worst kept hit (the max under hit_better-as-less);
  // the total order makes the kept set independent of arrival order.
  if (!hit_better(hit, heap_.front())) return;
  std::pop_heap(heap_.begin(), heap_.end(), hit_better);
  heap_.back() = hit;
  std::push_heap(heap_.begin(), heap_.end(), hit_better);
}

std::vector<ScoreHit> ScoreReducer::take_sorted() {
  std::vector<ScoreHit> hits = std::move(heap_);
  heap_.clear();
  std::sort(hits.begin(), hits.end(), hit_better);
  return hits;
}

std::vector<TriTile> build_triangular_tiles(
    std::span<const std::uint32_t> lengths, std::uint32_t tile_span,
    std::uint64_t band_width) {
  PIMNW_CHECK_MSG(tile_span >= 1, "tile_span must be >= 1");
  const std::uint32_t k = static_cast<std::uint32_t>(lengths.size());
  std::vector<TriTile> tiles;
  for (std::uint32_t row = 0; row < k; row += tile_span) {
    for (std::uint32_t col = row; col < k; col += tile_span) {
      TriTile tile;
      tile.row_first = row;
      tile.row_last = std::min(k, row + tile_span);
      tile.col_first = col;
      tile.col_last = std::min(k, col + tile_span);
      tile.for_each_pair([&](std::uint32_t i, std::uint32_t j) {
        ++tile.pairs;
        tile.workload += pair_workload(lengths[i], lengths[j], band_width);
      });
      if (tile.pairs > 0) tiles.push_back(tile);
    }
  }
  return tiles;
}

/// The streaming sink: one lock per decoded plan, not per pair.
struct DbSession::ReducerSink : SessionSink {
  explicit ReducerSink(ScoreFilter filter) : reducer(filter) {}

  void consume(const DpuPlan& plan,
               std::span<const PairOutput> outputs) override {
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t p = 0; p < outputs.size(); ++p) {
      if (!outputs[p].ok) continue;  // band missed (m, n): no score
      reducer.offer(plan.meta[p].seq_a, plan.meta[p].seq_b,
                    outputs[p].score);
    }
  }

  std::mutex mutex;
  ScoreReducer reducer;
};

DbSession::DbSession(std::span<const std::string> db,
                     PimAlignerConfig config)
    : config_(std::move(config)), db_(db.begin(), db.end()) {
  PIMNW_CHECK_MSG(!db_.empty(), "a session needs a non-empty database");
  config_.align.traceback = false;  // sessions are score-only
  config_.verify = false;
  lengths_.reserve(db_.size());
  for (const std::string& s : db_) {
    lengths_.push_back(static_cast<std::uint32_t>(s.size()));
  }

  // Worst-case per-pool scratch for any pair of this database: evaluate the
  // kernel at the longest length on both sides (pair_scratch_bytes is
  // monotone in each argument by contract, so no index pair — including a
  // self-pair — can need more). 0 for score-only NW.
  const PimKernel& kernel = kernel_for(config_);
  const std::uint32_t longest =
      *std::max_element(lengths_.begin(), lengths_.end());
  scratch_stride_ = kernel.pair_scratch_bytes(longest, longest, config_.align);

  // Pack once, broadcast once; both charged to the session's timeline.
  PIMNW_TRACE_SPAN(std::string("encode session db"));
  std::vector<std::string_view> views(db_.begin(), db_.end());
  const SeqPool pool = SeqPool::build(views);
  db_image_ = build_session_db_image(pool, kBroadcastPoolOffset);
  double prep_seconds = 0.0;
  for (const std::string& s : db_) {
    prep_seconds +=
        static_cast<double>(s.size()) * host_cost_.per_base_seconds;
  }
  engine_ = std::make_unique<ExecEngine>(config_, host_cost_);
  engine_->charge_prep(prep_seconds);
  engine_->set_broadcast(db_image_, kBroadcastPoolOffset);
}

DbSession::~DbSession() = default;

std::uint64_t DbSession::workload_of(std::uint32_t i, std::uint32_t j) const {
  return pair_workload(lengths_[i], lengths_[j],
                       static_cast<std::uint64_t>(config_.align.band_width));
}

RunReport DbSession::run_rounds(
    std::size_t n_batches,
    const std::function<Assignment(std::size_t)>& assign,
    const std::function<void(const WorkItem&, DpuPlan&)>& emit,
    SessionSink* sink, std::vector<PairOutput>* out) {
  const std::uint32_t nr_seqs = static_cast<std::uint32_t>(db_.size());
  auto build = [this, &assign, &emit, sink,
                nr_seqs](std::size_t batch_index) -> PreparedBatch {
    Assignment assignment = assign(batch_index);
    PIMNW_CHECK_MSG(assignment.bins.size() ==
                        static_cast<std::size_t>(upmem::kDpusPerRank),
                    "a session round must cover one bin per DPU");
    PreparedBatch prepared;
    prepared.plans.resize(upmem::kDpusPerRank);
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      const auto& bin = assignment.bins[static_cast<std::size_t>(d)];
      if (bin.empty()) continue;
      DpuPlan& plan = prepared.plans[static_cast<std::size_t>(d)];
      plan.sink = sink;
      for (const WorkItem& item : bin) {
        emit(item, plan);
      }
      finalize_session_plan(plan, kernel_for(config_), config_.align,
                            config_.pool, kBroadcastPoolOffset, nr_seqs,
                            scratch_stride_);
    }
    prepared.imbalance = assignment.imbalance();
    for (std::uint64_t load : assignment.bin_load) {
      prepared.total_workload += load;
    }
    return prepared;
  };

  engine_->run(n_batches, build, out);
  // Drop the per-round scratch (round images + result regions); only the
  // resident database chunks stay materialised across rounds.
  last_released_ = engine_->release_scratch(kBroadcastPoolOffset);
  return engine_->finish();
}

RunReport DbSession::align_pairs(std::span<const IndexPair> pairs,
                                 std::vector<PairOutput>* out) {
  if (out != nullptr) out->assign(pairs.size(), PairOutput{});
  if (pairs.empty()) return engine_->finish();
  for (const IndexPair& pair : pairs) {
    PIMNW_CHECK_MSG(pair.a < db_.size() && pair.b < db_.size(),
                    "session pair (" << pair.a << ", " << pair.b
                                     << ") outside the database");
  }

  const std::size_t round_pairs =
      rank_batch_pairs(config_.batch_pairs, config_.pool);
  const std::size_t n_batches =
      (pairs.size() + round_pairs - 1) / round_pairs;

  // Workload-model-driven LPT across the 64 DPUs, as the pairwise path does.
  auto assign = [this, pairs, round_pairs](std::size_t batch_index) {
    const std::size_t first = batch_index * round_pairs;
    const std::size_t last = std::min(pairs.size(), first + round_pairs);
    std::vector<WorkItem> items;
    items.reserve(last - first);
    for (std::size_t p = first; p < last; ++p) {
      items.push_back({static_cast<std::uint32_t>(p),
                       workload_of(pairs[p].a, pairs[p].b)});
    }
    return lpt_assign(std::move(items), upmem::kDpusPerRank);
  };
  auto emit = [pairs](const WorkItem& item, DpuPlan& plan) {
    const IndexPair& pair = pairs[item.id];
    plan.batch.pairs.push_back({pair.a, pair.b, item.id});
  };
  return run_rounds(n_batches, assign, emit, nullptr, out);
}

DbSession::AllVsAllResult DbSession::align_all_vs_all(
    const ScoreFilter& filter) {
  AllVsAllResult result;
  const std::size_t k = db_.size();
  result.pairs_swept = static_cast<std::uint64_t>(k) * (k - 1) / 2;
  if (result.pairs_swept == 0) {
    result.report = engine_->finish();
    return result;
  }

  // Tile span: aim for T·(T+1)/2 tiles ≈ 32 per bin so the global LPT has
  // enough granularity to balance tile workloads (T = tile rows).
  const std::size_t bins = static_cast<std::size_t>(config_.nr_ranks) *
                           static_cast<std::size_t>(upmem::kDpusPerRank);
  const std::uint32_t target_rows = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(64.0 * static_cast<double>(bins))));
  const std::uint32_t tile_span = std::max<std::uint32_t>(
      1, (static_cast<std::uint32_t>(k) + target_rows - 1) / target_rows);
  const std::vector<TriTile> tiles = build_triangular_tiles(
      lengths_, tile_span,
      static_cast<std::uint64_t>(config_.align.band_width));

  // One global LPT of tiles into nr_ranks × 64 bins; round b then executes
  // bins [b·64, (b+1)·64) — one workload-balanced launch per rank.
  std::vector<WorkItem> items;
  items.reserve(tiles.size());
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    items.push_back({static_cast<std::uint32_t>(t), tiles[t].workload});
  }
  const Assignment global =
      lpt_assign(std::move(items), static_cast<int>(bins));

  ReducerSink sink(filter);
  auto assign = [&global](std::size_t batch_index) {
    Assignment assignment;
    assignment.bins.resize(upmem::kDpusPerRank);
    assignment.bin_load.assign(upmem::kDpusPerRank, 0);
    for (int d = 0; d < upmem::kDpusPerRank; ++d) {
      const std::size_t g =
          batch_index * static_cast<std::size_t>(upmem::kDpusPerRank) +
          static_cast<std::size_t>(d);
      assignment.bins[static_cast<std::size_t>(d)] = global.bins[g];
      assignment.bin_load[static_cast<std::size_t>(d)] = global.bin_load[g];
    }
    return assignment;
  };
  // A WorkItem is a *tile* here; emit expands it into its pairs. Results
  // flow through the sink, never into a flat output vector, so the global
  // ids only need to be unique per DPU plan (the result-slot index).
  auto emit = [&tiles](const WorkItem& item, DpuPlan& plan) {
    tiles[item.id].for_each_pair([&plan](std::uint32_t i, std::uint32_t j) {
      plan.batch.pairs.push_back(
          {i, j, static_cast<std::uint32_t>(plan.batch.pairs.size())});
    });
  };
  result.report = run_rounds(static_cast<std::size_t>(config_.nr_ranks),
                             assign, emit, &sink, nullptr);
  result.hits = sink.reducer.take_sorted();
  return result;
}

RunReport DbSession::finish() { return engine_->finish(); }

const StatsCollector& DbSession::stats() const { return engine_->stats(); }

std::uint64_t DbSession::max_bank_footprint() const {
  return engine_->max_bank_footprint();
}

}  // namespace pimnw::core
