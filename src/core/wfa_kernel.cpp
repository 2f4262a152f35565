#include "core/wfa_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "align/wfa.hpp"
#include "core/dpu_cost.hpp"
#include "core/kernel_io.hpp"
#include "core/mram_layout.hpp"
#include "dna/packed_sequence.hpp"
#include "util/check.hpp"

namespace pimnw::core {
namespace {

using align::Score;
using upmem::DpuContext;

/// Furthest-reaching pattern offset per diagonal — the exact representation
/// of align/wfa.cpp, including the sentinel (chosen so +1 cannot wrap).
using Offset = std::int32_t;
constexpr Offset kNone = std::numeric_limits<Offset>::min() / 2;

/// Wavefront row slots within a pair's MRAM scratch: M, I, D in that order.
constexpr int kRowM = 0;
constexpr int kRowI = 1;
constexpr int kRowD = 2;

/// One fully-resident packed sequence buffer per pool side.
constexpr std::uint64_t kWfaSeqBytes = kWfaMaxSeqBases / 4;  // 2048
static_assert(kWfaSeqBytes <= upmem::kDmaMaxBytes);
/// Wavefront cells computed per WRAM chunk.
constexpr std::int32_t kChunk = 128;
/// Source window buffer: diagonals [c0-1, c1+1] of one source row.
constexpr std::uint32_t kSrcCells = static_cast<std::uint32_t>(kChunk) + 2;
/// 8-byte-aligned MRAM read staging for one source window.
constexpr std::uint32_t kStageCells = static_cast<std::uint32_t>(kChunk) + 8;
/// Output chunk buffer: kChunk cells + one pad cell for align8 writes.
constexpr std::uint32_t kOutCells = static_cast<std::uint32_t>(kChunk) + 2;

/// Row/slot geometry shared by the planner (WfaKernel::pair_scratch_bytes)
/// and the program — they must agree byte for byte or a pair could overrun
/// the stride the layout reserved.
std::uint64_t wfa_row_bytes(std::uint64_t maxw) { return align8(maxw * 4); }

std::uint64_t wfa_slot_bytes(std::uint64_t maxw) {
  // Three rows (M, I, D), each an 8-byte {lo, hi} header plus the offsets.
  return 3 * (8 + wfa_row_bytes(maxw));
}

std::uint64_t wfa_max_width(std::uint64_t cap, std::uint64_t len_a,
                            std::uint64_t len_b) {
  // Bounds widen by at most one diagonal per side per step and are clamped
  // to [-n, m], so a wavefront at cost s <= cap spans at most
  // min(2s+1, m+n+1) diagonals.
  return std::min(2 * cap + 1, len_a + len_b + 1);
}

std::uint64_t wfa_cost_cap_impl(std::uint64_t len_a, std::uint64_t len_b,
                                const align::Scoring& scoring,
                                std::uint64_t max_cost) {
  const std::uint64_t worst = wfa_worst_cost(len_a, len_b, scoring);
  return max_cost != 0 ? std::min(max_cost, worst) : worst;
}

/// The per-pool WRAM working set, independent of pair lengths (streaming
/// keeps it constant); pair_admissible checks P of these fit the scratchpad.
std::uint64_t wfa_pool_wram_bytes() {
  return 2 * kWfaSeqBytes                       // resident packed sequences
         + 4 * std::uint64_t{kSrcCells} * 4     // four source windows
         + std::uint64_t{kStageCells} * 4       // aligned read staging
         + 3 * std::uint64_t{kOutCells} * 4     // three output chunks
         + 8 + 8                                // header + probe staging
         + std::uint64_t{kRunChunk} * 4;        // staged CIGAR runs
}

/// A packed sequence held fully WRAM-resident for the pair.
struct ResidentSeq {
  DpuContext* ctx = nullptr;
  std::uint64_t wram_addr = 0;
  std::int64_t length = 0;

  void load(DpuContext& c, upmem::PoolCost& pool, std::uint64_t data_off,
            std::int64_t len) {
    ctx = &c;
    length = len;
    const std::uint64_t bytes = align8(dna::PackedSequence::bytes_for(
        static_cast<std::size_t>(len)));
    pool.set_phase(upmem::Phase::kSetup);
    dma_read_chunked(c, pool, data_off, wram_addr, bytes);
  }

  std::uint8_t base(std::int64_t index) const {
    const std::uint8_t byte =
        *ctx->wram.raw(wram_addr + static_cast<std::uint64_t>(index / 4), 1);
    return static_cast<std::uint8_t>((byte >> (2 * (index % 4))) & 0x3);
  }
};

/// Per-pool WRAM working set, allocated once per launch and reused across
/// the pairs the pool aligns.
struct WfaPoolBuffers {
  ResidentSeq seq_a;
  ResidentSeq seq_b;
  std::uint64_t src_addr[4] = {};
  std::span<Offset> src[4];
  std::uint64_t stage_addr = 0;
  std::span<Offset> stage;
  std::uint64_t out_addr[3] = {};
  std::span<Offset> out[3];
  std::uint64_t head_addr = 0;
  std::span<std::int32_t> head;
  std::uint64_t probe_addr = 0;
  std::span<Offset> probe;
  RunBuffer runs;

  void allocate(DpuContext& ctx) {
    seq_a.wram_addr = ctx.wram.alloc(kWfaSeqBytes);
    seq_b.wram_addr = ctx.wram.alloc(kWfaSeqBytes);
    for (int r = 0; r < 4; ++r) {
      src_addr[r] = ctx.wram.alloc(std::uint64_t{kSrcCells} * 4);
      src[r] = ctx.wram.view<Offset>(src_addr[r], kSrcCells);
    }
    stage_addr = ctx.wram.alloc(std::uint64_t{kStageCells} * 4);
    stage = ctx.wram.view<Offset>(stage_addr, kStageCells);
    for (int r = 0; r < 3; ++r) {
      out_addr[r] = ctx.wram.alloc(std::uint64_t{kOutCells} * 4);
      out[r] = ctx.wram.view<Offset>(out_addr[r], kOutCells);
    }
    head_addr = ctx.wram.alloc(8);
    head = ctx.wram.view<std::int32_t>(head_addr, 2);
    probe_addr = ctx.wram.alloc(8);
    probe = ctx.wram.view<Offset>(probe_addr, 2);
    runs.allocate(ctx);
  }
};

/// State of one WFA alignment in progress (per pool). The recurrence,
/// tie-breaking and backtrace are transcribed from align/wfa.cpp; only the
/// storage differs (MRAM slots + WRAM chunks instead of host vectors), and
/// every divergence-relevant value is bit-identical.
class WfaPairAligner {
 public:
  WfaPairAligner(DpuContext& ctx, upmem::PoolCost& pool,
                 WfaPoolBuffers& buffers, const Batch& batch,
                 const WfaKernelCost& cost, int tasklets, int pool_index,
                 std::uint64_t wfa_max_cost)
      : ctx_(ctx),
        pool_(pool),
        buf_(buffers),
        batch_(batch),
        cost_(cost),
        tasklets_(tasklets),
        pool_index_(pool_index),
        wfa_max_cost_(wfa_max_cost) {}

  void align(const PairEntry& pair, PairWriter& out);

 private:
  // --- MRAM slot addressing ---

  std::uint64_t slot_index(std::uint64_t s) const {
    return traceback_on_ ? s : s % depth_;
  }
  std::uint64_t row_base(std::uint64_t s, int which) const {
    return batch_.header.bt_scratch_off +
           static_cast<std::uint64_t>(pool_index_) *
               batch_.header.bt_scratch_stride +
           slot_index(s) * slot_bytes_ +
           static_cast<std::uint64_t>(which) * (8 + row_bytes_);
  }

  void write_header(std::uint64_t s, int which, std::int32_t lo,
                    std::int32_t hi) {
    pool_.set_phase(upmem::Phase::kBtDma);
    buf_.head[0] = lo;
    buf_.head[1] = hi;
    ctx_.mram_write(buf_.head_addr, row_base(s, which), 8);
    pool_.dma(8);
  }

  void read_header(std::uint64_t s, int which, std::int32_t* lo,
                   std::int32_t* hi, upmem::Phase phase) {
    pool_.set_phase(phase);
    ctx_.mram_read(row_base(s, which), buf_.head_addr, 8);
    pool_.dma(8);
    *lo = buf_.head[0];
    *hi = buf_.head[1];
  }

  /// Load diagonals [wlo, whi] of row (s, which) into `dest` (dest[0] holds
  /// diagonal wlo); out-of-bounds diagonals become kNone, exactly like the
  /// host Wavefront::at. The MRAM read is staged 8-byte aligned.
  void load_window(std::uint64_t s, int which, std::int32_t slo,
                   std::int32_t shi, std::int32_t wlo, std::int32_t whi,
                   std::span<Offset> dest) {
    std::fill(dest.begin(),
              dest.begin() + static_cast<std::size_t>(whi - wlo + 1), kNone);
    if (shi < slo) return;  // empty row (including s < back sources)
    const std::int32_t a0 = std::max(wlo, slo);
    const std::int32_t a1 = std::min(whi, shi);
    if (a1 < a0) return;
    const std::int32_t r0 = (a0 - slo) & ~1;  // even cell index -> 8-aligned
    const std::uint64_t cells = static_cast<std::uint64_t>(a1 - slo - r0 + 1);
    const std::uint64_t bytes = align8(cells * 4);
    pool_.set_phase(upmem::Phase::kBtDma);
    ctx_.mram_read(row_base(s, which) + 8 + static_cast<std::uint64_t>(r0) * 4,
                   buf_.stage_addr, bytes);
    pool_.dma(bytes);
    std::memcpy(dest.data() + (a0 - wlo), buf_.stage.data() + (a0 - slo - r0),
                static_cast<std::size_t>(a1 - a0 + 1) * sizeof(Offset));
  }

  /// Wavefront::at for the backtrace: one 8-byte header read plus (when the
  /// diagonal is in range) one 8-byte cell-pair read.
  Offset probe(std::uint64_t s, int which, std::int32_t k) {
    std::int32_t lo = 0;
    std::int32_t hi = -1;
    read_header(s, which, &lo, &hi, upmem::Phase::kTraceback);
    if (k < lo || k > hi) return kNone;
    const std::int32_t r = (k - lo) & ~1;
    ctx_.mram_read(row_base(s, which) + 8 + static_cast<std::uint64_t>(r) * 4,
                   buf_.probe_addr, 8);
    pool_.dma(8);
    return buf_.probe[static_cast<std::size_t>((k - lo) & 1)];
  }

  /// Greedy match extension along diagonal k from pattern offset i — the
  /// WRAM-resident-sequence version of the host's extend().
  Offset extend(std::int32_t k, Offset i) {
    std::int64_t ii = i;
    std::int64_t jj = ii - k;
    while (ii < m_ && jj < n_ && buf_.seq_a.base(ii) == buf_.seq_b.base(jj)) {
      ++ii;
      ++jj;
      ++step_ext_bases_;
    }
    return static_cast<Offset>(ii);
  }

  std::optional<std::uint64_t> forward();
  dna::Cigar backtrace(std::uint64_t cost);

  DpuContext& ctx_;
  upmem::PoolCost& pool_;
  WfaPoolBuffers& buf_;
  const Batch& batch_;
  const WfaKernelCost& cost_;
  int tasklets_;
  int pool_index_;
  std::uint64_t wfa_max_cost_;

  // Pair geometry, set by align().
  std::int64_t m_ = 0;
  std::int64_t n_ = 0;
  std::int32_t k_final_ = 0;
  bool traceback_on_ = false;
  std::uint64_t ux_ = 0;    // mismatch penalty x
  std::uint64_t uopen_ = 0;  // gap of length 1
  std::uint64_t uext_ = 0;   // each additional gap base
  std::uint64_t depth_ = 0;  // score-only slot ring size
  std::uint64_t cap_ = 0;    // per-pair cost budget (slots 0..cap_)
  std::uint64_t row_bytes_ = 0;
  std::uint64_t slot_bytes_ = 0;

  // Per-step work accumulator for the extend loop.
  std::uint64_t step_ext_bases_ = 0;
};

std::optional<std::uint64_t> WfaPairAligner::forward() {
  // Cost 0: one M cell on diagonal 0, I and D empty — then the cost loop.
  {
    pool_.set_phase(upmem::Phase::kCompute);
    pool_.serial(cost_.step_master_instr);
    step_ext_bases_ = 0;
    const Offset off = extend(0, 0);
    pool_.balanced_step(
        cost_.cell_instr + cost_.extend_base_instr * step_ext_bases_,
        tasklets_);
    pool_.balanced_step(
        cost_.barrier_instr * static_cast<std::uint64_t>(tasklets_),
        tasklets_);
    write_header(0, kRowM, 0, 0);
    buf_.out[kRowM][0] = off;
    buf_.out[kRowM][1] = kNone;
    pool_.set_phase(upmem::Phase::kBtDma);
    ctx_.mram_write(buf_.out_addr[kRowM], row_base(0, kRowM) + 8, 8);
    pool_.dma(8);
    write_header(0, kRowI, 0, -1);
    write_header(0, kRowD, 0, -1);
    if (k_final_ == 0 && off >= m_) return 0;
  }

  for (std::uint64_t s = 1;; ++s) {
    if (wfa_max_cost_ != 0 && s > wfa_max_cost_) return std::nullopt;
    PIMNW_CHECK_MSG(s <= cap_, "WFA step " << s
                                           << " overran its planned slot "
                                              "budget "
                                           << cap_);

    // Source rows: M at s-x (mismatch), M at s-open (gap open), I and D at
    // s-ext (gap extension). Sources below cost 0 are empty.
    const std::uint64_t backs[4] = {ux_, uopen_, uext_, uext_};
    const int kinds[4] = {kRowM, kRowM, kRowI, kRowD};
    std::int32_t slo[4];
    std::int32_t shi[4];
    for (int r = 0; r < 4; ++r) {
      if (s < backs[r]) {
        slo[r] = 0;
        shi[r] = -1;
        continue;
      }
      read_header(s - backs[r], kinds[r], &slo[r], &shi[r],
                  upmem::Phase::kBtDma);
    }

    std::int32_t lo = std::numeric_limits<std::int32_t>::max();
    std::int32_t hi = std::numeric_limits<std::int32_t>::min();
    auto widen = [&](int r, std::int32_t dlo, std::int32_t dhi) {
      if (shi[r] < slo[r]) return;
      lo = std::min(lo, slo[r] + dlo);
      hi = std::max(hi, shi[r] + dhi);
    };
    widen(0, 0, 0);
    widen(1, -1, 1);
    widen(2, -1, -1);
    widen(3, 1, 1);

    pool_.set_phase(upmem::Phase::kCompute);
    pool_.serial(cost_.step_master_instr);

    if (hi < lo) {
      write_header(s, kRowM, 0, -1);
      write_header(s, kRowI, 0, -1);
      write_header(s, kRowD, 0, -1);
      continue;
    }
    lo = std::max(lo, static_cast<std::int32_t>(-n_));
    hi = std::min(hi, static_cast<std::int32_t>(m_));
    // The clamp can leave hi < lo; the host stores the clamped bounds on an
    // empty row and at() still answers kNone, so mirror that exactly.
    write_header(s, kRowM, lo, hi);
    write_header(s, kRowI, lo, hi);
    write_header(s, kRowD, lo, hi);

    std::uint64_t step_cells = 0;
    step_ext_bases_ = 0;
    bool found = false;
    for (std::int32_t c0 = lo; c0 <= hi && !found; c0 += kChunk) {
      const std::int32_t c1 = std::min(hi, c0 + kChunk - 1);
      for (int r = 0; r < 4; ++r) {
        load_window(s >= backs[r] ? s - backs[r] : 0, kinds[r], slo[r],
                    shi[r], c0 - 1, c1 + 1, buf_.src[r]);
      }
      const std::size_t span_cells = static_cast<std::size_t>(c1 - c0 + 1);
      for (int r = 0; r < 3; ++r) {
        std::fill(buf_.out[r].begin(), buf_.out[r].end(), kNone);
      }
      auto srcv = [&](int r, std::int32_t k) {
        return buf_.src[r][static_cast<std::size_t>(k - (c0 - 1))];
      };
      for (std::int32_t k = c0; k <= c1; ++k) {
        const Offset ins = std::max(srcv(1, k + 1), srcv(2, k + 1));
        const Offset del_src = std::max(srcv(1, k - 1), srcv(3, k - 1));
        const Offset del =
            del_src == kNone ? kNone : static_cast<Offset>(del_src + 1);
        const Offset mis_src = srcv(0, k);
        const Offset mis =
            mis_src == kNone ? kNone : static_cast<Offset>(mis_src + 1);
        buf_.out[kRowI][static_cast<std::size_t>(k - c0)] = ins;
        buf_.out[kRowD][static_cast<std::size_t>(k - c0)] = del;
        ++step_cells;
        Offset best = std::max({ins, del, mis});
        if (best == kNone) continue;  // M stays kNone
        const std::int64_t i = best;
        const std::int64_t j = i - k;
        if (i > m_ || j > n_ || j < 0) continue;
        best = extend(k, best);
        buf_.out[kRowM][static_cast<std::size_t>(k - c0)] = best;
        if (k == k_final_ && best >= m_) {
          found = true;
          break;
        }
      }
      // Stream the chunk out — on the early exit too: the cells past the
      // final diagonal are kNone, exactly the host's resize fill, and the
      // backtrace never reads beyond k_final on the final wavefront.
      const std::uint64_t bytes = align8(span_cells * 4);
      const std::uint64_t cell_off = static_cast<std::uint64_t>(c0 - lo) * 4;
      pool_.set_phase(upmem::Phase::kBtDma);
      for (int r = 0; r < 3; ++r) {
        ctx_.mram_write(buf_.out_addr[r], row_base(s, r) + 8 + cell_off,
                        bytes);
        pool_.dma(bytes);
      }
    }
    pool_.set_phase(upmem::Phase::kCompute);
    pool_.balanced_step(cost_.cell_instr * step_cells +
                            cost_.extend_base_instr * step_ext_bases_,
                        tasklets_);
    pool_.balanced_step(
        cost_.barrier_instr * static_cast<std::uint64_t>(tasklets_),
        tasklets_);
    if (found) return s;
  }
}

dna::Cigar WfaPairAligner::backtrace(std::uint64_t cost) {
  dna::Cigar cigar;  // built back-to-front, reversed at the end
  enum class State { kM, kI, kD };
  State state = State::kM;
  std::uint64_t s = cost;
  std::int32_t k = k_final_;
  Offset offset = static_cast<Offset>(m_);

  while (true) {
    if (state == State::kM) {
      const Offset mis_src = s >= ux_ ? probe(s - ux_, kRowM, k) : kNone;
      const Offset mis =
          mis_src == kNone ? kNone : static_cast<Offset>(mis_src + 1);
      const Offset ins = probe(s, kRowI, k);
      const Offset del = probe(s, kRowD, k);
      const Offset src = std::max({mis, ins, del});
      if (s == 0 || src == kNone) {
        PIMNW_CHECK_MSG(s == 0 && k == 0,
                        "WFA backtrace lost the path at cost " << s);
        cigar.push(dna::CigarOp::kMatch, static_cast<std::uint32_t>(offset));
        break;
      }
      cigar.push(dna::CigarOp::kMatch,
                 static_cast<std::uint32_t>(offset - src));
      if (src == mis) {
        cigar.push(dna::CigarOp::kMismatch);
        offset = static_cast<Offset>(src - 1);
        s -= ux_;
      } else if (src == ins) {
        state = State::kI;
        offset = src;
      } else {
        state = State::kD;
        offset = src;
      }
    } else if (state == State::kI) {
      cigar.push(dna::CigarOp::kDelete);
      const Offset open =
          s >= uopen_ ? probe(s - uopen_, kRowM, k + 1) : kNone;
      const Offset ext = s >= uext_ ? probe(s - uext_, kRowI, k + 1) : kNone;
      PIMNW_CHECK_MSG(open == offset || ext == offset,
                      "WFA backtrace lost an insertion run");
      ++k;
      if (open == offset) {
        state = State::kM;
        s -= uopen_;
      } else {
        s -= uext_;
      }
    } else {
      cigar.push(dna::CigarOp::kInsert);
      const Offset target = static_cast<Offset>(offset - 1);
      const Offset open =
          s >= uopen_ ? probe(s - uopen_, kRowM, k - 1) : kNone;
      const Offset ext = s >= uext_ ? probe(s - uext_, kRowD, k - 1) : kNone;
      PIMNW_CHECK_MSG(open == target || ext == target,
                      "WFA backtrace lost a deletion run");
      --k;
      offset = target;
      if (open == target) {
        state = State::kM;
        s -= uopen_;
      } else {
        s -= uext_;
      }
    }
  }
  cigar.reverse();
  return cigar;
}

void WfaPairAligner::align(const PairEntry& pair, PairWriter& out) {
  pool_.set_phase(upmem::Phase::kSetup);
  pool_.serial(cost_.pair_setup_instr);

  const SeqEntry sa = batch_.seq_entry(ctx_, pool_, pair.seq_a);
  const SeqEntry sb = batch_.seq_entry(ctx_, pool_, pair.seq_b);
  m_ = sa.length;
  n_ = sb.length;
  k_final_ = static_cast<std::int32_t>(m_ - n_);
  traceback_on_ = batch_.traceback();

  // Either side empty: the closed-form single-gap alignment (the host
  // wrapper's trivial case) — no wavefront machinery touched.
  if (m_ == 0 || n_ == 0) {
    if (traceback_on_) {
      dna::Cigar cigar;
      if (m_ > 0) {
        cigar.push(dna::CigarOp::kInsert, static_cast<std::uint32_t>(m_));
      }
      if (n_ > 0) {
        cigar.push(dna::CigarOp::kDelete, static_cast<std::uint32_t>(n_));
      }
      out.put_cigar(cigar, cost_.traceback_op_instr);
    }
    out.write(static_cast<Score>(
        -batch_.scoring.gap_cost(static_cast<std::uint64_t>(m_ + n_))));
    return;
  }

  // Pair geometry from the batch scoring + the host-side cost cap; the slot
  // arithmetic is the planner's, so the stride the layout reserved always
  // covers it (checked, not assumed).
  const WfaPenalties pen = wfa_penalties(batch_.scoring);
  ux_ = static_cast<std::uint64_t>(pen.x);
  uopen_ = static_cast<std::uint64_t>(pen.open);
  uext_ = static_cast<std::uint64_t>(pen.ext);
  depth_ = pen.depth;
  cap_ = wfa_cost_cap_impl(static_cast<std::uint64_t>(m_),
                           static_cast<std::uint64_t>(n_), batch_.scoring,
                           wfa_max_cost_);
  const std::uint64_t maxw = wfa_max_width(
      cap_, static_cast<std::uint64_t>(m_), static_cast<std::uint64_t>(n_));
  row_bytes_ = wfa_row_bytes(maxw);
  slot_bytes_ = wfa_slot_bytes(maxw);
  const std::uint64_t nslots = traceback_on_ ? cap_ + 1 : depth_;
  PIMNW_CHECK_MSG(nslots * slot_bytes_ <= batch_.header.bt_scratch_stride,
                  "WFA slot area (" << nslots * slot_bytes_
                                    << " B) exceeds the planned scratch "
                                       "stride "
                                    << batch_.header.bt_scratch_stride);

  buf_.seq_a.load(ctx_, pool_, sa.data_off, m_);
  buf_.seq_b.load(ctx_, pool_, sb.data_off, n_);

  const std::optional<std::uint64_t> cost = forward();
  if (!cost) {
    // Cost bound exceeded — the exact condition under which the host
    // reference returns nullopt (kStatusUnreachable, like an NW band miss).
    out.write_unreachable();
    return;
  }

  const std::int64_t numerator =
      static_cast<std::int64_t>(batch_.scoring.match) * (m_ + n_) -
      static_cast<std::int64_t>(*cost);
  if (traceback_on_) out.put_cigar(backtrace(*cost), cost_.traceback_op_instr);
  out.write(static_cast<Score>(numerator / 2));
}

}  // namespace

WfaPenalties wfa_penalties(const align::Scoring& scoring) {
  WfaPenalties pen;
  pen.x = 2 * (static_cast<std::int64_t>(scoring.match) + scoring.mismatch);
  pen.open = 2 * static_cast<std::int64_t>(scoring.gap_open) +
             (2 * static_cast<std::int64_t>(scoring.gap_extend) +
              scoring.match);
  pen.ext = 2 * static_cast<std::int64_t>(scoring.gap_extend) + scoring.match;
  PIMNW_CHECK_MSG(pen.x > 0 && pen.ext > 0,
                  "scoring does not convert to positive WFA penalties");
  pen.depth = static_cast<std::uint64_t>(
      std::max({pen.x, pen.open, pen.ext}) + 1);
  return pen;
}

std::uint64_t wfa_worst_cost(std::uint64_t len_a, std::uint64_t len_b,
                             const align::Scoring& scoring) {
  const WfaPenalties pen = wfa_penalties(scoring);
  const std::uint64_t shorter = std::min(len_a, len_b);
  const std::uint64_t d = len_a > len_b ? len_a - len_b : len_b - len_a;
  return static_cast<std::uint64_t>(pen.x) * shorter +
         static_cast<std::uint64_t>(pen.open) +
         static_cast<std::uint64_t>(pen.ext) * d;
}

std::uint64_t wfa_cost_cap(std::uint64_t len_a, std::uint64_t len_b,
                           const AlignConfig& config) {
  return wfa_cost_cap_impl(len_a, len_b, config.scoring,
                           config.wfa_max_cost);
}

double wfa_estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                          const align::Scoring& scoring,
                          double expected_divergence,
                          std::uint64_t max_cost) {
  // Modeled alignment cost: one error per expected_divergence bases at the
  // converted mismatch penalty x = 2(a+b), clamped to the cost cap when there
  // is one (beyond it the aligner gives up, so no more work accrues). The
  // sweep touches ~s wavefronts of up to min(2s+1, m+n) diagonals — never
  // fewer cells than the one pass the extend loop makes over similar
  // sequences.
  const double span = static_cast<double>(len_a + len_b);
  const double penalty =
      2.0 * static_cast<double>(scoring.match + scoring.mismatch);
  double cost = expected_divergence * span * 0.5 * penalty;
  if (max_cost != 0) cost = std::min(cost, static_cast<double>(max_cost));
  const double width = std::min(2.0 * cost + 1.0, span);
  return std::max(span, cost * width);
}

WfaDpuProgram::WfaDpuProgram(PoolConfig pool_config, KernelVariant variant,
                             std::uint64_t wfa_max_cost)
    : pool_config_(pool_config),
      variant_(variant),
      wfa_max_cost_(wfa_max_cost) {}

void WfaDpuProgram::run(DpuContext& ctx) {
  const Batch batch = Batch::boot(ctx);
  PIMNW_CHECK_MSG((batch.header.flags & kFlagWfa) != 0,
                  "WFA program launched on a non-WFA batch image");

  const WfaKernelCost& cost = wfa_kernel_cost(variant_);
  const int pools = pool_config_.pools;
  const int tasklets = pool_config_.tasklets_per_pool;
  std::vector<WfaPoolBuffers> buffers(static_cast<std::size_t>(pools));
  for (int p = 0; p < pools; ++p) {
    ctx.cost.pool(p).set_phase(upmem::Phase::kSetup);
    ctx.cost.pool(p).serial(cost.launch_setup_instr);
    buffers[static_cast<std::size_t>(p)].allocate(ctx);
  }

  for_each_pair(ctx, batch,
                [&](int p, upmem::PoolCost& pool, const PairEntry& pair,
                    std::uint32_t pair_index) {
                  WfaPoolBuffers& buf = buffers[static_cast<std::size_t>(p)];
                  PairWriter out(ctx, pool, batch, pair, pair_index, buf.runs);
                  WfaPairAligner(ctx, pool, buf, batch, cost, tasklets, p,
                                 wfa_max_cost_)
                      .align(pair, out);
                });
}

const char* WfaKernel::description() const {
  return "exact gap-affine wavefront alignment (WFA): O(s·w) cells, "
         "cost-capped, MRAM-streamed wavefronts, traceback + session capable";
}

std::uint32_t WfaKernel::batch_flags(const AlignConfig& config) const {
  return kFlagWfa | (config.traceback ? kFlagTraceback : 0);
}

std::uint64_t WfaKernel::pair_scratch_bytes(std::uint64_t len_a,
                                            std::uint64_t len_b,
                                            const AlignConfig& config) const {
  // An empty side never enters the wavefront machinery (closed-form gap).
  if (len_a == 0 || len_b == 0) return 0;
  const WfaPenalties pen = wfa_penalties(config.scoring);
  const std::uint64_t cap = wfa_cost_cap(len_a, len_b, config);
  const std::uint64_t maxw = wfa_max_width(cap, len_a, len_b);
  const std::uint64_t nslots = config.traceback ? cap + 1 : pen.depth;
  return nslots * wfa_slot_bytes(maxw);
}

bool WfaKernel::pair_admissible(std::uint64_t len_a, std::uint64_t len_b,
                                const AlignConfig& config,
                                const PoolConfig& pools) const {
  (void)config;
  if (len_a > max_sequence_bases() || len_b > max_sequence_bases()) {
    return false;
  }
  // The per-pool working set is length-independent; what must fit is P of
  // them plus the batch staging area.
  return 128 + static_cast<std::uint64_t>(pools.pools) *
                   wfa_pool_wram_bytes() <=
         upmem::kWramBytes;
}

double WfaKernel::estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                                 const AlignConfig& config,
                                 double expected_divergence) const {
  return wfa_estimate_cells(len_a, len_b, config.scoring, expected_divergence,
                            config.wfa_max_cost);
}

std::unique_ptr<upmem::DpuProgram> WfaKernel::make_program(
    const PimAlignerConfig& config, KernelWorkspace* workspace) const {
  (void)workspace;  // no cross-launch host scratch
  return std::make_unique<WfaDpuProgram>(config.pool, config.variant,
                                         config.align.wfa_max_cost);
}

std::span<const KernelPhase> WfaKernel::phase_table() const {
  static constexpr KernelPhase kPhases[] = {
      {upmem::Phase::kSetup, "setup"},
      {upmem::Phase::kCompute, "wavefront"},
      {upmem::Phase::kBtDma, "wf-dma"},
      {upmem::Phase::kTraceback, "backtrace"},
  };
  return kPhases;
}

align::AlignResult WfaKernel::host_reference(std::string_view a,
                                             std::string_view b,
                                             const AlignConfig& config) const {
  align::WfaOptions options;
  options.max_cost = config.wfa_max_cost;
  if (config.traceback) {
    if (auto result = align::wfa_align(a, b, config.scoring, options)) {
      return *result;
    }
  } else {
    if (auto score = align::wfa_score(a, b, config.scoring, options)) {
      align::AlignResult result;
      result.reached_end = true;
      result.score = *score;
      return result;
    }
  }
  return {};  // cost bound exceeded: reached_end = false
}

const PimKernel& wfa_kernel() {
  static const WfaKernel kKernel;
  return kKernel;
}

}  // namespace pimnw::core
