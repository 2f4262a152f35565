#include "core/dpu_kernel.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "align/adaptive_steering.hpp"
#include "align/banded_adaptive.hpp"
#include "align/bt_code.hpp"
#include "align/scoring.hpp"
#include "align/traceback.hpp"
#include "core/kernel_io.hpp"
#include "core/kernel_simd.hpp"
#include "core/load_balance.hpp"
#include "core/mram_layout.hpp"
#include "dna/packed_sequence.hpp"
#include "util/check.hpp"

namespace pimnw::core {
namespace {

using align::Score;
using align::kNegInf;
using upmem::DpuContext;

/// Extra bases kept in a sequence window beyond the band, so DMA refills
/// happen every few hundred anti-diagonals instead of every one.
constexpr std::int64_t kWinSlackBases = 256;
/// Window starts are rounded down to 32 bases = 8 bytes (DMA alignment).
constexpr std::int64_t kWinAlignBases = 32;
/// lo values are staged in WRAM and flushed in chunks of this many entries.
constexpr std::uint32_t kLoChunk = 128;
/// BT rows fetched per DMA during traceback.
constexpr std::uint32_t kTbCacheRows = 8;
/// lo entries fetched per DMA during traceback.
constexpr std::uint32_t kTbLoCache = 64;

std::uint64_t bt_row_bytes(std::int64_t w) {
  return align8(static_cast<std::uint64_t>(w + 1) / 2);
}

/// One BT row's MRAM write, issued as a chain of maximal transfers like
/// dma_read_chunked (core/kernel_io.hpp). charge_row_writes charges it.
void write_row_chunked(DpuContext& ctx, std::uint64_t wram_addr,
                       std::uint64_t mram_addr, std::uint64_t bytes) {
  while (bytes > 0) {
    const std::uint64_t chunk = std::min<std::uint64_t>(bytes,
                                                        upmem::kDmaMaxBytes);
    ctx.mram_write(wram_addr, mram_addr, chunk);
    wram_addr += chunk;
    mram_addr += chunk;
    bytes -= chunk;
  }
}

/// Charge `rows` of write_row_chunked's transfers of `bytes` each.
void charge_row_writes(upmem::PoolCost& pool, std::uint64_t bytes,
                       std::uint64_t rows) {
  const std::uint64_t full = bytes / upmem::kDmaMaxBytes;
  const std::uint64_t tail = bytes % upmem::kDmaMaxBytes;
  if (full > 0) pool.dma(upmem::kDmaMaxBytes, rows * full);
  if (tail > 0) pool.dma(tail, rows);
}

/// A band array of w slots with one kNegInf sentinel slot on each side: the
/// fast path's neighbour reads one slot past either band edge land on them.
/// Nothing writes outside the w slots, so one store per launch suffices.
std::span<Score> alloc_band(DpuContext& ctx, std::int64_t w) {
  const std::span<Score> slots =
      ctx.wram.alloc_array<Score>(static_cast<std::uint64_t>(w) + 2);
  slots.front() = kNegInf;
  slots.back() = kNegInf;
  return slots.subspan(1, static_cast<std::size_t>(w));
}

/// Sliding 2-bit-packed window over a sequence stored in MRAM.
/// Monotonically advancing; refills itself (and charges the DMA) on demand.
/// Every refill also decodes the loaded bytes into a host-side cache, one
/// code byte per base, that the band runs read their lanes from. A reversed
/// window keeps that cache back to front, so lanes walking down the
/// sequence read it ascending.
class SeqWindow {
 public:
  void init(DpuContext* ctx, upmem::PoolCost* pool, std::uint64_t wram_addr,
            std::int64_t cap_bases, std::uint8_t* cache, bool reversed) {
    ctx_ = ctx;
    pool_ = pool;
    wram_addr_ = wram_addr;
    cap_bases_ = cap_bases;
    cache_ = cache;
    reversed_ = reversed;
  }

  static std::uint64_t wram_bytes(std::int64_t band) {
    return align8(static_cast<std::uint64_t>(band + kWinSlackBases) / 4 + 8);
  }

  /// Most bases one refill loads (the capacity w + kWinSlackBases rounded
  /// up to whole DMA words), and so the size of the decoded cache; it sits
  /// between two simd::kWindowPad pads (KernelScratch::prepare).
  static std::size_t cache_bases(std::int64_t band) {
    return 4 * align8(static_cast<std::uint64_t>(band + kWinSlackBases) / 4);
  }

  void attach(std::uint64_t mram_data_off, std::int64_t length) {
    data_off_ = mram_data_off;
    length_ = length;
    win_start_ = 0;
    win_loaded_ = 0;
  }

  /// Make bases [first, last] available; charges the refill DMA if needed.
  void ensure(std::int64_t first, std::int64_t last) {
    first = std::max<std::int64_t>(first, 0);
    last = std::min<std::int64_t>(last, length_ - 1);
    if (last < first) return;
    PIMNW_DCHECK(first >= win_start_);  // windows only move forward
    if (last < win_start_ + win_loaded_) return;
    // Refill from an aligned start at (or before) `first`.
    const std::int64_t new_start = (first / kWinAlignBases) * kWinAlignBases;
    const std::uint64_t start_byte = static_cast<std::uint64_t>(new_start) / 4;
    const std::uint64_t seq_bytes =
        align8(dna::PackedSequence::bytes_for(
            static_cast<std::uint64_t>(length_)));
    const std::uint64_t want_bytes =
        align8(static_cast<std::uint64_t>(cap_bases_) / 4);
    const std::uint64_t read_bytes =
        std::min(want_bytes, seq_bytes - start_byte);
    PIMNW_CHECK_MSG(read_bytes >= upmem::kDmaMinBytes,
                    "sequence window refill degenerated: bytes=" << read_bytes);
    // Chunked: wide bands can push the window past one DMA's 2048 bytes.
    // Window refills are part of the setup/2-bit-decode phase (§4.1.1).
    pool_->set_phase(upmem::Phase::kSetup);
    std::uint64_t done = 0;
    while (done < read_bytes) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(read_bytes - done, upmem::kDmaMaxBytes);
      ctx_->mram_read(data_off_ + start_byte + done, wram_addr_ + done, chunk);
      pool_->dma(chunk);
      done += chunk;
    }
    win_start_ = new_start;
    win_loaded_ = static_cast<std::int64_t>(read_bytes) * 4;
    PIMNW_CHECK_MSG(last < win_start_ + win_loaded_,
                    "band wider than the sequence window");
    // Host-side decode of the whole refill; charges nothing, the refill DMA
    // above is the modeled cost.
    dna::decode_packed_range(ctx_->wram.raw(wram_addr_, read_bytes), 0,
                             static_cast<std::size_t>(win_loaded_), cache_);
    if (reversed_) std::reverse(cache_, cache_ + win_loaded_);
  }

  /// 2-bit code of base `index` (must be inside the ensured range).
  std::uint8_t base(std::int64_t index) const {
    PIMNW_DCHECK(index >= win_start_ && index < win_start_ + win_loaded_);
    const std::int64_t rel = index - win_start_;
    const std::uint8_t byte =
        *ctx_->wram.raw(wram_addr_ + static_cast<std::uint64_t>(rel / 4), 1);
    return static_cast<std::uint8_t>((byte >> (2 * (rel % 4))) & 0x3);
  }

  /// The whole cache and the bases it holds, for a band run.
  simd::Window decoded_range() const {
    return {cache_, win_start_, win_start_ + win_loaded_};
  }

 private:
  DpuContext* ctx_ = nullptr;
  upmem::PoolCost* pool_ = nullptr;
  std::uint64_t wram_addr_ = 0;
  std::int64_t cap_bases_ = 0;
  std::uint64_t data_off_ = 0;
  std::int64_t length_ = 0;
  std::int64_t win_start_ = 0;
  std::int64_t win_loaded_ = 0;
  std::uint8_t* cache_ = nullptr;  // decoded window, host scratch
  bool reversed_ = false;
};

/// The band's rows inside the matrix on anti-diagonal s: [i_min, i_max]
/// (empty when i_min > i_max).
std::pair<std::int64_t, std::int64_t> band_rows(std::int64_t s,
                                                std::int64_t lo,
                                                std::int64_t m,
                                                std::int64_t n,
                                                std::int64_t w) {
  return {std::max<std::int64_t>(lo, std::max<std::int64_t>(0, s - n)),
          std::min<std::int64_t>(lo + w - 1, std::min<std::int64_t>(m, s))};
}

/// Per-pool WRAM working set, allocated once per launch (the DPU program's
/// static buffers) and reused across the pairs the pool aligns.
struct PoolBuffers {
  // The four band arrays, each with a kNegInf sentinel at both ends
  // (alloc_band).
  std::span<Score> h[2];  // anti-diagonal H arrays, parity-rotated
  std::span<Score> iv;    // I on the previous anti-diagonal (in-place)
  std::span<Score> dv;    // D on the previous anti-diagonal (in-place)
  // What 16-bit band runs sweep in their place: host copies in
  // KernelScratch (H even, H odd, I, D), each between simd::kBandPad slots
  // of kNegInf16. They model nothing; the WRAM arrays above stay allocated.
  std::int16_t* narrow[4] = {};
  SeqWindow win_a;
  SeqWindow win_b;
  // One nibble-packed BT row, staged for its DMA: every row of the scalar
  // reference and the fast path's chunk-straddling rows (a one-row band
  // run). Zeroed at launch; only a band run writes its pad nibble and 8-byte
  // rounding, as zeros.
  std::uint64_t bt_row_addr = 0;
  std::uint64_t lo_buf_addr = 0;    // staged window origins
  std::span<std::uint32_t> lo_buf;
  RunBuffer runs;                   // staged CIGAR runs
  std::uint64_t tb_rows_addr = 0;   // traceback row cache
  std::uint64_t tb_lo_addr = 0;     // traceback lo cache
  std::span<std::uint32_t> tb_lo;

  void allocate(DpuContext& ctx, upmem::PoolCost& pool, std::int64_t w,
                KernelScratch& scratch) {
    h[0] = alloc_band(ctx, w);
    h[1] = alloc_band(ctx, w);
    iv = alloc_band(ctx, w);
    dv = alloc_band(ctx, w);
    for (std::size_t j = 0; j < 4; ++j) {
      narrow[j] = scratch.narrow_bands.data() +
                  j * static_cast<std::size_t>(w + 2 * simd::kBandPad) +
                  simd::kBandPad;
    }
    const std::uint64_t win_bytes = SeqWindow::wram_bytes(w);
    win_a.init(&ctx, &pool, ctx.wram.alloc(win_bytes), w + kWinSlackBases,
               scratch.cache_a.data() + simd::kWindowPad, /*reversed=*/false);
    win_b.init(&ctx, &pool, ctx.wram.alloc(win_bytes), w + kWinSlackBases,
               scratch.cache_b.data() + simd::kWindowPad, /*reversed=*/true);
    bt_row_addr = ctx.wram.alloc(bt_row_bytes(w));
    lo_buf_addr = ctx.wram.alloc(kLoChunk * 4);
    lo_buf = ctx.wram.view<std::uint32_t>(lo_buf_addr, kLoChunk);
    runs.allocate(ctx);
    tb_rows_addr = ctx.wram.alloc(kTbCacheRows * bt_row_bytes(w));
    tb_lo_addr = ctx.wram.alloc(kTbLoCache * 4);
    tb_lo = ctx.wram.view<std::uint32_t>(tb_lo_addr, kTbLoCache);
  }

  /// The eight sentinel slots still hold kNegInf and, after a pair swept
  /// the 16-bit arrays (`swept_narrow`), their pads kNegInf16.
  bool sentinels_intact(bool swept_narrow) const {
    for (const std::span<Score> band : {h[0], h[1], iv, dv}) {
      if (band.data()[-1] != kNegInf || band.data()[band.size()] != kNegInf) {
        return false;
      }
    }
    if (!swept_narrow) return true;
    const std::int64_t w = static_cast<std::int64_t>(h[0].size());
    auto sentinel = [](std::int16_t v) { return v == simd::kNegInf16; };
    for (const std::int16_t* band : narrow) {
      if (!std::all_of(band - simd::kBandPad, band, sentinel) ||
          !std::all_of(band + w, band + w + simd::kBandPad, sentinel)) {
        return false;
      }
    }
    return true;
  }
};

/// Re-anchor a 16-bit band between runs (DESIGN.md §7). The anchor is the
/// real H at the top in-band row of the last anti-diagonal swept; when it
/// lies more than kRebaseSlack from 0, it is taken off every real value
/// (those above kNegInf16) and added to the offset, while values derived
/// from the sentinel keep theirs. Every run so starts from an anchor within
/// kRebaseSlack of 0, as simd::narrow_lanes' bound assumes.
void rebase(simd::BandRun<std::int16_t>& run) {
  const std::int64_t s = run.s - 1;
  if (s < 0) return;
  const auto [i_min, i_max] = band_rows(s, run.lo1, run.m, run.n, run.w);
  if (i_min > i_max) return;  // the band left the matrix: nothing is real
  const std::int16_t anchor = run.h[s & 1][i_min - run.lo1];
  if (anchor >= -simd::kRebaseSlack && anchor <= simd::kRebaseSlack) return;
  for (std::int16_t* band : {run.h[0], run.h[1], run.iv, run.dv}) {
    for (std::int64_t k = 0; k < run.w; ++k) {
      if (band[k] > simd::kNegInf16) {
        band[k] = static_cast<std::int16_t>(band[k] - anchor);
      }
    }
  }
  run.offset += anchor;
}

/// State of one alignment in progress (per pool).
class PairAligner {
 public:
  PairAligner(DpuContext& ctx, upmem::PoolCost& pool, PoolBuffers& buffers,
              const Batch& batch, const KernelCost& cost, int tasklets,
              int pool_index, SimPath sim_path, simd::Isa vector_isa)
      : ctx_(ctx),
        pool_(pool),
        buf_(buffers),
        batch_(batch),
        cost_(cost),
        tasklets_(tasklets),
        pool_index_(pool_index),
        band_runs_(sim_path == SimPath::kAuto),
        narrow_(band_runs_ && simd::narrow_lanes(batch.header.band_width,
                                                 batch.scoring)),
        isa_(vector_isa) {}

  void align(const PairEntry& pair, PairWriter& out);

 private:
  void compute_band(std::int64_t m, std::int64_t n);
  template <typename Lane>
  std::int64_t sweep_runs(std::int64_t m, std::int64_t n);
  std::int64_t sweep_diagonals(std::int64_t m, std::int64_t n);
  void ensure_windows(std::int64_t s, std::int64_t i_min, std::int64_t i_max);
  void flush_lo(std::uint64_t bytes);
  void compute_diag_scalar(std::int64_t s, std::int64_t lo,
                           std::int64_t shift1, std::int64_t shift2,
                           std::int64_t i_min, std::int64_t i_max,
                           std::span<Score> h_cur, std::span<Score> h_prev,
                           std::uint8_t* bt_row);
  dna::Cigar traceback(std::int64_t m, std::int64_t n);

  // BT scratch addresses for this pool and pair.
  std::uint64_t lo_area() const {
    return batch_.header.bt_scratch_off +
           static_cast<std::uint64_t>(pool_index_) *
               batch_.header.bt_scratch_stride;
  }
  std::uint64_t rows_area(std::int64_t diags) const {
    return lo_area() + align8(static_cast<std::uint64_t>(diags) * 4);
  }

  DpuContext& ctx_;
  upmem::PoolCost& pool_;
  PoolBuffers& buf_;
  const Batch& batch_;
  const KernelCost& cost_;
  int tasklets_;
  int pool_index_;
  bool band_runs_;  // every anti-diagonal in simd::band_run, else scalar
  bool narrow_;     // band runs sweep 16-bit lanes (simd::narrow_lanes)
  simd::Isa isa_;   // the band runs' copy of the sweep

  // Band state after compute_band().
  bool traceback_on_ = false;
  std::int64_t final_lo_ = 0;
  Score final_score_ = kNegInf;
  bool reached_ = false;
  std::int64_t offset_ = 0;  // 16-bit band value + offset_ = score

  // Staged lo values.
  std::uint32_t lo_staged_ = 0;   // entries in lo_buf
  std::uint64_t lo_flushed_ = 0;  // entries already in MRAM

  // Traceback caches.
  std::int64_t tb_rows_base_ = -1;  // first anti-diagonal in the row cache
  std::int64_t tb_lo_base_ = -1;    // first anti-diagonal in the lo cache
};

void PairAligner::align(const PairEntry& pair, PairWriter& out) {
  pool_.set_phase(upmem::Phase::kSetup);
  pool_.serial(cost_.pair_setup_instr);

  const SeqEntry sa = batch_.seq_entry(ctx_, pool_, pair.seq_a);
  const SeqEntry sb = batch_.seq_entry(ctx_, pool_, pair.seq_b);
  const std::int64_t m = sa.length;
  const std::int64_t n = sb.length;

  buf_.win_a.attach(sa.data_off, m);
  buf_.win_b.attach(sb.data_off, n);
  traceback_on_ = batch_.traceback();

  compute_band(m, n);
  if (!reached_) {
    out.write_unreachable();
    return;
  }
  if (traceback_on_) out.put_cigar(traceback(m, n), cost_.traceback_op_instr);
  out.write(final_score_);
}

void PairAligner::compute_band(std::int64_t m, std::int64_t n) {
  const std::int64_t w = batch_.header.band_width;
  const std::uint64_t diags = static_cast<std::uint64_t>(m + n + 1);
  const std::uint64_t row_bytes = bt_row_bytes(w);

  std::int64_t lo;
  if (narrow_) {
    // Pads included: a pair never sees another's values past a band edge.
    for (std::int16_t* band : buf_.narrow) {
      std::fill(band - simd::kBandPad, band + w + simd::kBandPad,
                simd::kNegInf16);
    }
    lo = sweep_runs<std::int16_t>(m, n);
  } else {
    std::fill(buf_.h[0].begin(), buf_.h[0].end(), kNegInf);
    std::fill(buf_.h[1].begin(), buf_.h[1].end(), kNegInf);
    std::fill(buf_.iv.begin(), buf_.iv.end(), kNegInf);
    std::fill(buf_.dv.begin(), buf_.dv.end(), kNegInf);
    lo = band_runs_ ? sweep_runs<Score>(m, n) : sweep_diagonals(m, n);
  }
  PIMNW_DCHECK(buf_.sentinels_intact(narrow_));

  // Charge the fixed work of all m+n+1 anti-diagonals at once: w cells split
  // across the pool's tasklets, the pool barrier, the master's bookkeeping
  // and the BT row DMA. The repeat counts leave every counter as charging
  // each anti-diagonal would; window refills and lo flushes, which do not
  // happen on every anti-diagonal, were charged where they happened.
  const std::uint64_t cell_instr =
      cost_.cell_score_instr + (traceback_on_ ? cost_.cell_bt_instr : 0);
  pool_.set_phase(upmem::Phase::kCompute);
  pool_.balanced_step(static_cast<std::uint64_t>(w) * cell_instr, tasklets_,
                      diags);
  pool_.balanced_step(static_cast<std::uint64_t>(cost_.barrier_instr) *
                          static_cast<std::uint64_t>(tasklets_),
                      tasklets_, diags);
  pool_.set_phase(upmem::Phase::kBandShift);
  pool_.serial(cost_.antidiag_master_instr, diags);
  if (traceback_on_) {
    pool_.set_phase(upmem::Phase::kBtDma);
    charge_row_writes(pool_, row_bytes, diags);
  }

  // Flush the tail of the lo staging buffer (padded to 8 bytes).
  if (traceback_on_ && lo_staged_ > 0) flush_lo(align8(lo_staged_ * 4));

  final_lo_ = lo;
  const std::int64_t k_final = m - lo;
  if (k_final < 0 || k_final >= w) {
    reached_ = false;
    return;
  }
  const std::size_t parity = static_cast<std::size_t>((m + n) & 1);
  if (narrow_) {
    const std::int16_t h = buf_.narrow[parity][k_final];
    final_score_ = h > simd::kNegInf16 ? static_cast<Score>(h + offset_)
                                       : kNegInf;
  } else {
    final_score_ = buf_.h[parity][static_cast<std::size_t>(k_final)];
  }
  reached_ = final_score_ > kNegInf / 2;
}

// Slide the sequence windows over the bases anti-diagonal s's cells touch.
void PairAligner::ensure_windows(std::int64_t s, std::int64_t i_min,
                                 std::int64_t i_max) {
  buf_.win_a.ensure(i_min - 1, i_max - 1);
  buf_.win_b.ensure(s - i_max - 1, s - i_min - 1);
}

// Write the staged window origins to MRAM: `bytes` of them, a whole chunk
// or the pair's tail padded to 8 bytes.
void PairAligner::flush_lo(std::uint64_t bytes) {
  pool_.set_phase(upmem::Phase::kBtDma);
  ctx_.mram_write(buf_.lo_buf_addr, lo_area() + lo_flushed_ * 4, bytes);
  pool_.dma(bytes);
  lo_flushed_ += lo_staged_;
  lo_staged_ = 0;
}

// The fast path: every anti-diagonal runs inside the sweep TU
// (simd::band_run), a run per call, over the WRAM band arrays (32-bit
// lanes) or their 16-bit host copies. Between runs this loop does what a run
// leaves out: it flushes a full lo buffer and refills the windows, charging
// both as the scalar reference's loop does; it points the next run at the
// bank rows left in the row's chunk, or at the WRAM staging row, for a run
// of one row, when the row straddles two chunks; and it rebases a 16-bit
// band, whose runs stop after simd::kNarrowRunSteps anti-diagonals so that
// it can. The runs write each BT row in place in the bank, through a cursor
// that checks the DMA shape of all the pair's row writes once. Returns the
// final window origin and leaves the band's offset in offset_.
template <typename Lane>
std::int64_t PairAligner::sweep_runs(std::int64_t m, std::int64_t n) {
  constexpr bool kNarrow = sizeof(Lane) == 2;
  const std::int64_t w = batch_.header.band_width;
  const std::uint64_t row_bytes = bt_row_bytes(w);
  const std::uint64_t rows_off = rows_area(m + n + 1);
  std::optional<upmem::Mram::RowCursor> bank_rows;
  if (traceback_on_) {
    bank_rows.emplace(ctx_.mram.row_cursor(
        rows_off, row_bytes, static_cast<std::uint64_t>(m + n + 1)));
  }
  const align::Scoring& sc = batch_.scoring;
  simd::BandRun<Lane> run{};
  run.m = m;
  run.n = n;
  run.w = w;
  if constexpr (kNarrow) {
    run.h[0] = buf_.narrow[0];
    run.h[1] = buf_.narrow[1];
    run.iv = buf_.narrow[2];
    run.dv = buf_.narrow[3];
    run.max_steps = simd::kNarrowRunSteps;
  } else {
    run.h[0] = buf_.h[0].data();
    run.h[1] = buf_.h[1].data();
    run.iv = buf_.iv.data();
    run.dv = buf_.dv.data();
    run.max_steps = m + n + 1;
  }
  run.traceback = traceback_on_;
  run.bt_bytes = static_cast<std::int64_t>(row_bytes);
  run.lo_buf = buf_.lo_buf.data();
  run.lo_capacity = kLoChunk;
  run.match = sc.match;
  run.mismatch = sc.mismatch;
  run.gap_extend = sc.gap_extend;
  run.open_ext = sc.open_extend();

  while (run.s <= m + n) {
    if (traceback_on_ && lo_staged_ == kLoChunk) flush_lo(kLoChunk * 4);
    const auto [i_min, i_max] = band_rows(run.s, run.lo, m, n, w);
    ensure_windows(run.s, i_min, i_max);
    run.a = buf_.win_a.decoded_range();
    run.b = buf_.win_b.decoded_range();
    bool staged_row = false;
    if (traceback_on_) {
      const std::span<std::uint8_t> rows =
          bank_rows->rows_from(static_cast<std::uint64_t>(run.s));
      staged_row = rows.empty();
      run.bt_rows =
          staged_row ? ctx_.wram.raw(buf_.bt_row_addr, row_bytes) : rows.data();
      run.rows_left =
          staged_row ? 1 : static_cast<std::int64_t>(rows.size() / row_bytes);
      run.lo_staged = lo_staged_;
    }
    if constexpr (kNarrow) rebase(run);
    const std::int64_t s = run.s;
    // The refill and flush above leave s's work to the run.
    PIMNW_CHECK_MSG(simd::band_run(run, isa_) > 0,
                    "band run swept nothing at anti-diagonal " << s);
    lo_staged_ = run.lo_staged;
    if (staged_row) {
      write_row_chunked(ctx_, buf_.bt_row_addr,
                        rows_off + static_cast<std::uint64_t>(s) * row_bytes,
                        row_bytes);
    }
  }
  offset_ = run.offset;
  return run.lo;
}

// The scalar reference's loop, one anti-diagonal at a time, each BT row
// staged in WRAM and written to MRAM. Returns the final window origin.
std::int64_t PairAligner::sweep_diagonals(std::int64_t m, std::int64_t n) {
  const std::int64_t w = batch_.header.band_width;
  const std::uint64_t row_bytes = bt_row_bytes(w);
  const std::uint64_t rows_off = rows_area(m + n + 1);
  std::uint8_t* const wram_row = ctx_.wram.raw(buf_.bt_row_addr, row_bytes);
  std::int64_t lo = 0;
  std::int64_t lo1 = 0;
  std::int64_t lo2 = 0;
  for (std::int64_t s = 0; s <= m + n; ++s) {
    // Stage this anti-diagonal's window origin for the traceback.
    if (traceback_on_) {
      buf_.lo_buf[lo_staged_++] = static_cast<std::uint32_t>(lo);
      if (lo_staged_ == kLoChunk) flush_lo(kLoChunk * 4);
    }

    const auto [i_min, i_max] = band_rows(s, lo, m, n, w);
    ensure_windows(s, i_min, i_max);

    const std::int64_t shift1 = lo - lo1;  // 0 or 1
    const std::int64_t shift2 = lo - lo2;  // 0, 1 or 2

    std::span<Score> h_cur = buf_.h[static_cast<std::size_t>(s & 1)];
    std::span<Score> h_prev = buf_.h[static_cast<std::size_t>((s ^ 1) & 1)];

    compute_diag_scalar(s, lo, shift1, shift2, i_min, i_max, h_cur, h_prev,
                        traceback_on_ ? wram_row : nullptr);

    // The staged row goes to MRAM now. Every row's DMA is charged with the
    // pair's other per-anti-diagonal work after the loop.
    if (traceback_on_) {
      write_row_chunked(ctx_, buf_.bt_row_addr,
                        rows_off + static_cast<std::uint64_t>(s) * row_bytes,
                        row_bytes);
    }

    if (s == m + n) break;

    const Score top_score = (i_min <= i_max)
                                ? h_cur[static_cast<std::size_t>(i_min - lo)]
                                : kNegInf;
    const Score bottom_score =
        (i_min <= i_max) ? h_cur[static_cast<std::size_t>(i_max - lo)]
                         : kNegInf;
    const bool down =
        align::adaptive_move_down(lo, s, m, n, w, top_score, bottom_score);
    lo2 = lo1;
    lo1 = lo;
    lo += down ? 1 : 0;
  }
  return lo;
}

// Reference per-cell loop: walks all w band slots, tests membership per cell,
// and resolves the in-place H/I arrays through one-cell carries. Kept verbatim
// as the ground truth the fast path is equivalence-tested against
// (tests/core/kernel_fastpath_test.cpp).
void PairAligner::compute_diag_scalar(std::int64_t s, std::int64_t lo,
                                      std::int64_t shift1, std::int64_t shift2,
                                      std::int64_t i_min, std::int64_t i_max,
                                      std::span<Score> h_cur,
                                      std::span<Score> h_prev,
                                      std::uint8_t* bt_row) {
  const std::int64_t w = batch_.header.band_width;
  const align::Scoring& sc = batch_.scoring;
  const Score open_ext = sc.open_extend();

  Score i_carry = kNegInf;   // I_prev[k-1] before it was overwritten
  Score h2_carry = kNegInf;  // H_prev2[k-1] before it was overwritten

  for (std::int64_t k = 0; k < w; ++k) {
    const std::int64_t i = lo + k;
    const std::int64_t j = s - i;
    const Score old_h2 = h_cur[static_cast<std::size_t>(k)];
    const Score old_i = buf_.iv[static_cast<std::size_t>(k)];

    Score h = kNegInf;
    Score new_i = kNegInf;
    Score new_d = kNegInf;
    std::uint8_t code = 0;

    if (i >= i_min && i <= i_max) {
      if (i == 0 && j == 0) {
        h = 0;
      } else if (i == 0) {
        h = -sc.gap_cost(static_cast<std::uint64_t>(j));
        new_d = h;
      } else if (j == 0) {
        h = -sc.gap_cost(static_cast<std::uint64_t>(i));
        new_i = h;
      } else {
        // Neighbour reads; in-place arrays are resolved via the carries.
        const std::int64_t k_up = k + shift1 - 1;
        const std::int64_t k_left = k + shift1;
        const Score h_up = (k_up >= 0 && k_up < w)
                               ? h_prev[static_cast<std::size_t>(k_up)]
                               : kNegInf;
        const Score h_left = (k_left >= 0 && k_left < w)
                                 ? h_prev[static_cast<std::size_t>(k_left)]
                                 : kNegInf;
        Score i_up;
        if (shift1 == 0) {
          i_up = (k == 0) ? kNegInf : i_carry;
        } else {
          i_up = old_i;
        }
        Score d_left;
        if (shift1 == 0) {
          d_left = buf_.dv[static_cast<std::size_t>(k)];
        } else {
          d_left = (k + 1 < w) ? buf_.dv[static_cast<std::size_t>(k + 1)]
                               : kNegInf;
        }
        Score h_diag_prev;
        if (shift2 == 0) {
          h_diag_prev = (k == 0) ? kNegInf : h2_carry;
        } else if (shift2 == 1) {
          h_diag_prev = old_h2;
        } else {
          h_diag_prev = (k + 1 < w)
                            ? h_cur[static_cast<std::size_t>(k + 1)]
                            : kNegInf;
        }

        const bool equal =
            buf_.win_a.base(i - 1) == buf_.win_b.base(j - 1);

        const Score i_ext = i_up - sc.gap_extend;
        const Score i_opn = h_up - open_ext;
        const bool i_open = i_opn >= i_ext;
        new_i = i_open ? i_opn : i_ext;

        const Score d_ext = d_left - sc.gap_extend;
        const Score d_opn = h_left - open_ext;
        const bool d_open = d_opn >= d_ext;
        new_d = d_open ? d_opn : d_ext;

        const Score h_diag = h_diag_prev + sc.sub(equal);
        std::uint8_t origin;
        if (h_diag >= new_i && h_diag >= new_d) {
          h = h_diag;
          origin = equal ? align::bt::kOriginDiagMatch
                         : align::bt::kOriginDiagMismatch;
        } else if (new_i >= new_d) {
          h = new_i;
          origin = align::bt::kOriginI;
        } else {
          h = new_d;
          origin = align::bt::kOriginD;
        }
        code = align::bt::make(origin, i_open, d_open);
      }
    }

    if (traceback_on_) {
      align::bt_store(bt_row, static_cast<std::uint64_t>(k), code);
    }
    h_cur[static_cast<std::size_t>(k)] = h;
    buf_.iv[static_cast<std::size_t>(k)] = new_i;
    buf_.dv[static_cast<std::size_t>(k)] = new_d;
    i_carry = old_i;
    h2_carry = old_h2;
  }
}

dna::Cigar PairAligner::traceback(std::int64_t m, std::int64_t n) {
  const std::int64_t w = batch_.header.band_width;
  const std::uint64_t row_bytes = bt_row_bytes(w);
  const std::uint64_t rows_off = rows_area(m + n + 1);

  auto lo_of = [&](std::int64_t s) -> std::int64_t {
    if (tb_lo_base_ < 0 || s < tb_lo_base_ ||
        s >= tb_lo_base_ + static_cast<std::int64_t>(kTbLoCache)) {
      // Fetch the cache block ending at s (the walk moves downward). The
      // start is rounded down to an even entry for DMA alignment, so leave
      // one slot of headroom to keep s inside the kTbLoCache window.
      const std::int64_t base = std::max<std::int64_t>(
          0, s - static_cast<std::int64_t>(kTbLoCache) + 2);
      const std::int64_t aligned_base = base & ~std::int64_t{1};
      const std::uint64_t count = kTbLoCache;
      pool_.set_phase(upmem::Phase::kTraceback);
      ctx_.mram_read(lo_area() + static_cast<std::uint64_t>(aligned_base) * 4,
                     buf_.tb_lo_addr, align8(count * 4));
      pool_.dma(align8(count * 4));
      tb_lo_base_ = aligned_base;
    }
    return buf_.tb_lo[static_cast<std::size_t>(s - tb_lo_base_)];
  };

  auto row_cache = [&](std::int64_t s) -> const std::uint8_t* {
    if (tb_rows_base_ < 0 || s < tb_rows_base_ ||
        s >= tb_rows_base_ + static_cast<std::int64_t>(kTbCacheRows)) {
      const std::int64_t base = std::max<std::int64_t>(
          0, s - static_cast<std::int64_t>(kTbCacheRows) + 1);
      const std::uint64_t bytes = kTbCacheRows * row_bytes;
      pool_.set_phase(upmem::Phase::kTraceback);
      dma_read_chunked(ctx_, pool_,
                       rows_off + static_cast<std::uint64_t>(base) * row_bytes,
                       buf_.tb_rows_addr, bytes);
      tb_rows_base_ = base;
    }
    return ctx_.wram.raw(
        buf_.tb_rows_addr +
            static_cast<std::uint64_t>(s - tb_rows_base_) * row_bytes,
        row_bytes);
  };

  return align::traceback_affine(
      m, n, [&](std::int64_t i, std::int64_t j) -> std::uint8_t {
        const std::int64_t s = i + j;
        const std::int64_t k = i - lo_of(s);
        PIMNW_DCHECK(k >= 0 && k < w);
        return align::bt_load(row_cache(s), static_cast<std::uint64_t>(k));
      });
}

}  // namespace

void KernelScratch::prepare(std::int64_t band_width) {
  // Sized only: the window caches are re-decoded by the refill attach()
  // forces at the start of every pair, and a pair that sweeps the 16-bit
  // band arrays fills them, pads included, first, so stale content of a
  // reused arena is never read.
  const std::size_t bytes =
      SeqWindow::cache_bases(band_width) + 2 * simd::kWindowPad;
  cache_a.resize(bytes);
  cache_b.resize(bytes);
  narrow_bands.resize(
      4 * static_cast<std::size_t>(band_width + 2 * simd::kBandPad));
}

void NwDpuProgram::run(DpuContext& ctx) {
  const Batch batch = Batch::boot(ctx);
  const int pools = pool_config_.pools;
  const int tasklets = pool_config_.tasklets_per_pool;
  KernelScratch local_scratch;
  KernelScratch& scratch = scratch_ != nullptr ? *scratch_ : local_scratch;
  scratch.prepare(batch.header.band_width);
  std::vector<PoolBuffers> buffers(static_cast<std::size_t>(pools));
  for (int p = 0; p < pools; ++p) {
    ctx.cost.pool(p).set_phase(upmem::Phase::kSetup);
    ctx.cost.pool(p).serial(cost_.launch_setup_instr);
    buffers[static_cast<std::size_t>(p)].allocate(
        ctx, ctx.cost.pool(p), batch.header.band_width, scratch);
  }

  for_each_pair(ctx, batch,
                [&](int p, upmem::PoolCost& pool, const PairEntry& pair,
                    std::uint32_t pair_index) {
                  PoolBuffers& buf = buffers[static_cast<std::size_t>(p)];
                  PairWriter out(ctx, pool, batch, pair, pair_index, buf.runs);
                  PairAligner(ctx, pool, buf, batch, cost_, tasklets, p,
                              sim_path_, vector_isa_)
                      .align(pair, out);
                });
}

/// The engine's per-worker arena for the NW kernel: one KernelScratch reused
/// across every launch the worker executes.
struct NwWorkspace final : KernelWorkspace {
  KernelScratch scratch;
};

const char* NwKernel::description() const {
  return "banded adaptive Needleman-Wunsch (paper §4.2): O((m+n)·w) cells, "
         "affine gaps, traceback + session capable";
}

std::uint32_t NwKernel::batch_flags(const AlignConfig& config) const {
  return config.traceback ? kFlagTraceback : 0;
}

std::uint64_t NwKernel::pair_scratch_bytes(std::uint64_t len_a,
                                           std::uint64_t len_b,
                                           const AlignConfig& config) const {
  if (!config.traceback) return 0;
  // One window-origin word plus one nibble-packed BT row per anti-diagonal.
  const std::uint64_t diags = len_a + len_b + 1;
  return align8(align8(diags * 4) + diags * bt_row_bytes(config.band_width));
}

double NwKernel::estimate_cells(std::uint64_t len_a, std::uint64_t len_b,
                                const AlignConfig& config,
                                double expected_divergence) const {
  (void)expected_divergence;  // a band's work does not depend on it
  // The workload model W(m,n) = (m+n)·w the LPT balancer uses (§4.1.2).
  return static_cast<double>(pair_workload(
      len_a, len_b, static_cast<std::uint64_t>(config.band_width)));
}

std::unique_ptr<KernelWorkspace> NwKernel::make_workspace() const {
  return std::make_unique<NwWorkspace>();
}

std::unique_ptr<upmem::DpuProgram> NwKernel::make_program(
    const PimAlignerConfig& config, KernelWorkspace* workspace) const {
  KernelScratch* scratch =
      workspace != nullptr ? &static_cast<NwWorkspace*>(workspace)->scratch
                           : nullptr;
  return std::make_unique<NwDpuProgram>(config.pool, config.variant,
                                        config.sim_path, scratch);
}

std::span<const KernelPhase> NwKernel::phase_table() const {
  static constexpr KernelPhase kPhases[] = {
      {upmem::Phase::kSetup, "setup"},
      {upmem::Phase::kCompute, "compute"},
      {upmem::Phase::kBandShift, "band-shift"},
      {upmem::Phase::kBtDma, "bt-dma"},
      {upmem::Phase::kTraceback, "traceback"},
  };
  return kPhases;
}

align::AlignResult NwKernel::host_reference(std::string_view a,
                                            std::string_view b,
                                            const AlignConfig& config) const {
  align::BandedAdaptiveOptions options;
  options.band_width = config.band_width;
  options.traceback = config.traceback;
  return align::banded_adaptive(a, b, config.scoring, options);
}

const PimKernel& nw_kernel() {
  static const NwKernel kKernel;
  return kKernel;
}

}  // namespace pimnw::core
