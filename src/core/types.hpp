// Pair and result types shared by every aligner front door (ISSUE 4).
//
// These are the single definitions: the PiM host (core/host.hpp), the
// backend layer (core/backend.hpp) and the dispatcher (core/dispatch.hpp)
// all consume and produce them.
#pragma once

#include <cstdint>
#include <string_view>

#include "align/result.hpp"

namespace pimnw::core {

/// One alignment job: two sequences, borrowed from the caller (views must
/// outlive the run they are submitted to).
struct PairInput {
  std::string_view a;
  std::string_view b;
};

/// Why a pair did (or did not) produce an alignment. `kUnreachable` is the
/// default so a never-written output slot reads as "the band missed (m, n)",
/// matching the pre-status meaning of ok == false. The service statuses
/// (deadline/queue-full/shutdown) mark requests that were never dispatched
/// to a backend at all — a service cannot crash or silently drop one bad
/// request, so every admission failure is a per-pair status, not an abort.
enum class PairStatus : std::uint8_t {
  kUnreachable = 0,     // band / cost bound never reached (m, n)
  kOk = 1,              // aligned; score (and CIGAR if requested) are valid
  kOversized = 2,       // single pair's MRAM image exceeds the 64 MB bank
  kDeadlineExceeded = 3,  // service: deadline passed before dispatch
  kQueueFull = 4,       // service: rejected by backpressure at submit
  kShutdown = 5,        // service: stopped before the pair was accepted
  kInvalidInput = 6,    // a base outside A/C/G/T; rejected before dispatch
};

inline const char* pair_status_name(PairStatus status) {
  switch (status) {
    case PairStatus::kUnreachable:
      return "unreachable";
    case PairStatus::kOk:
      return "ok";
    case PairStatus::kOversized:
      return "oversized";
    case PairStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case PairStatus::kQueueFull:
      return "queue_full";
    case PairStatus::kShutdown:
      return "shutdown";
    case PairStatus::kInvalidInput:
      return "invalid_input";
  }
  return "?";
}

/// Unified per-pair result across backends.
struct PairOutput {
  align::Score score = align::kNegInf;
  bool ok = false;  // invariant: ok == (status == PairStatus::kOk)
  PairStatus status = PairStatus::kUnreachable;
  dna::Cigar cigar;
  /// Pool-critical-path DPU cycles this pair cost (from the kernel's cost
  /// accounting) and its DPU-internal DMA traffic — inputs to the
  /// scale-out projection (core/projection.hpp). Zero for host backends.
  std::uint64_t dpu_pool_cycles = 0;
  std::uint32_t dpu_dma_bytes = 0;
  /// DP cells (or WFA wavefront cells) actually computed on the host —
  /// the measured-throughput denominator. Zero for the modeled PiM path,
  /// whose workload lives in the RunReport instead.
  std::uint64_t cells = 0;
};

}  // namespace pimnw::core
