// The host<->MRAM transfer model of the PiM server. The execution engine
// simulates DPUs on per-worker banks (core/engine.hpp) and charges every
// scatter, gather and broadcast through these functions; only the byte count
// decides the modeled duration.
//
// Timing: the orchestrator in src/core composes these durations on an event
// timeline (transfers to a rank serialise with that rank's execution — §2.1:
// the host cannot touch MRAM while the DPUs run — while different ranks
// overlap freely).
#pragma once

#include <cstdint>

#include "upmem/arch.hpp"

namespace pimnw::upmem {

/// Modeled cost of one host<->MRAM transfer.
struct TransferStats {
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

/// Modeled duration of moving `bytes` between host RAM and MRAM over the
/// DDR bus (§4.1.1: ~60 GB/s aggregate).
inline double host_transfer_seconds(std::uint64_t bytes) {
  return static_cast<double>(bytes) / kHostXferBytesPerSec;
}

/// Modeled cost of a transfer totalling `bytes` (per-DPU buffers summed).
inline TransferStats transfer_stats(std::uint64_t bytes) {
  return {bytes, host_transfer_seconds(bytes)};
}

/// Modeled cost of broadcasting a `buffer_bytes` buffer to `nr_dpus` DPUs
/// (the 16S experiment's broadcast, §5.3). On the wire each bank is still
/// written individually, so the modeled bytes are buffer size x nr_dpus.
inline TransferStats broadcast_stats(std::uint64_t buffer_bytes, int nr_dpus) {
  return transfer_stats(buffer_bytes * static_cast<std::uint64_t>(nr_dpus));
}

}  // namespace pimnw::upmem
