// Unified aligner backend layer (ISSUE 4, DESIGN.md §11).
//
// The paper's host (§4.1) is hard-wired to one target, yet its evaluation
// constantly compares against CPU baselines — and the related PiM alignment
// frameworks (arXiv:2208.01243, arXiv:2204.02085) show the value of putting
// several aligner implementations behind one dispatch surface. This header
// defines that surface: AlignerBackend hides *how* a batch of PairInputs is
// aligned (modeled PiM system, measured CPU KSW2-like DP, measured WFA)
// behind submit/wait/drain, and BackendReport keeps modeled and measured
// time in strictly separate fields — they are never summed or compared
// implicitly.
//
// Concurrency model: submit() may start executing immediately on the shared
// work-stealing pool (the host backends post chunk jobs), so several
// backends make progress at once; wait() blocks — helping the pool — until
// one ticket's outputs are ready. PimBackend is the exception: its
// execution engine must run from outside the pool, so its submit() only
// enqueues and the simulation happens inside wait() on the calling thread,
// while the other backends' jobs keep flowing on the workers underneath.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "align/wfa.hpp"
#include "baseline/ksw2_like.hpp"
#include "core/host.hpp"
#include "core/types.hpp"

namespace pimnw {
class ThreadPool;
}

namespace pimnw::core {

enum class BackendKind { kPim, kCpu, kWfa, kPimWfa };
inline constexpr int kBackendKinds = 4;

const char* backend_kind_name(BackendKind kind);
std::optional<BackendKind> parse_backend_kind(std::string_view name);

/// What a backend can and cannot do — the dispatcher refuses routes that
/// violate these instead of silently truncating results.
struct BackendCapabilities {
  bool traceback = true;  // can produce CIGARs
  /// Longest single sequence the backend accepts (0 = unbounded). Cost
  /// routing and calibration pass a backend over for longer pairs.
  std::uint64_t max_pair_length = 0;
  /// True when the backend's primary time axis is modeled (PiM cycle
  /// accounting), not host wall-clock.
  bool modeled_time = false;
};

/// Per-backend run accounting. `measured_seconds` is host wall-clock
/// actually spent computing; `modeled_seconds` is simulator-derived PiM time.
/// Exactly one of them is the backend's primary axis (capabilities().
/// modeled_time says which); the other is still reported, never mixed.
struct BackendReport {
  BackendKind kind = BackendKind::kPim;
  std::uint64_t submissions = 0;
  std::uint64_t total_pairs = 0;
  std::uint64_t aligned = 0;  // pairs that reached (m, n) / converged
  /// Host wall-clock from a ticket's submission to its last pair finishing,
  /// summed over tickets (tickets can overlap in time, so this can exceed
  /// the enclosing dispatch wall-clock).
  double measured_seconds = 0.0;
  /// Modeled PiM makespan summed over submissions (0 for host backends).
  double modeled_seconds = 0.0;
  /// DP / wavefront cells computed on the host (measured backends).
  std::uint64_t total_cells = 0;
  double cells_per_second = 0.0;  // total_cells / measured_seconds
  /// Full PiM orchestration report (PimBackend), merged over submissions
  /// (additive fields summed, ratio fields batch-weighted).
  RunReport pim;
};

/// One aligner implementation behind the common batch interface.
class AlignerBackend {
 public:
  /// Handle of one submitted batch; valid until its wait() returns.
  using Ticket = std::uint64_t;

  virtual ~AlignerBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual BackendCapabilities capabilities() const = 0;

  /// Expected seconds to align one (len_a, len_b) pair here — the
  /// dispatcher's cost-model input, built on the paper's workload model
  /// W(m,n) = (m+n)·w (§4.1.2) divided by a per-backend throughput, and
  /// scaled by cost_scale() (see Dispatcher::calibrate).
  virtual double estimate_seconds(std::size_t len_a,
                                  std::size_t len_b) const = 0;

  /// Enqueue a batch. The span (and the sequences it views) must stay alive
  /// until the ticket's wait() returns. Host backends start executing on
  /// the shared pool immediately.
  virtual Ticket submit(std::span<const PairInput> pairs) = 0;

  /// Block until `ticket` completes (helping the pool while waiting) and
  /// return its outputs, indexed like the submitted span. Each ticket must
  /// be waited exactly once. Rethrows the first exception a pair raised.
  virtual std::vector<PairOutput> wait(Ticket ticket) = 0;

  /// Wait for every outstanding ticket (discarding unclaimed outputs) and
  /// return the accumulated report; resets the accumulation.
  virtual BackendReport drain() = 0;

  /// Multiplier the dispatcher's calibration applies on top of the
  /// backend's analytic estimate (measured / estimated on a probe sample).
  double cost_scale() const { return cost_scale_; }
  void set_cost_scale(double scale) { cost_scale_ = scale; }

 private:
  double cost_scale_ = 1.0;
};

/// Shared submit/wait machinery of the measured (host-executed) backends:
/// submit() posts one pool job per pair so the work interleaves with other
/// backends' jobs (and with the PiM engine's own pool jobs); wait() helps
/// the pool until the ticket's remaining-counter drains. Subclasses provide
/// the per-pair alignment.
class PoolBackend : public AlignerBackend {
 public:
  /// `pool == nullptr` uses the process-wide global_pool().
  explicit PoolBackend(ThreadPool* pool);
  ~PoolBackend() override;

  Ticket submit(std::span<const PairInput> pairs) override;
  std::vector<PairOutput> wait(Ticket ticket) override;
  BackendReport drain() override;

 protected:
  /// Align one pair (called concurrently from pool workers; must be
  /// thread-safe and may throw — the first exception surfaces in wait()).
  virtual PairOutput align_one(const PairInput& pair) const = 0;

 private:
  struct Pending;

  /// Fold a finished ticket into the accumulated report (mutex held).
  void account(const Pending& pending);

  ThreadPool* pool_;
  mutable std::mutex mutex_;
  Ticket next_ticket_ = 1;
  std::map<Ticket, std::unique_ptr<Pending>> pending_;
  BackendReport accum_;
};

/// The paper's system behind the backend interface: modeled timeline,
/// bit-identical outputs to PimAligner::align_pairs (backend_test pins
/// this). Stats/trace plumbing flows through untouched — attach a
/// StatsCollector via PimAlignerConfig::stats as before. The kernel of
/// `aligner` decides the rest: banded NW is kind kPim, the wavefront kernel
/// kPimWfa, so the dispatcher can route "similar pairs to PiM-WFA,
/// divergent pairs to PiM-NW" entirely on the modeled machine; the kernel's
/// length cap and work model set capabilities() and estimate_seconds.
class PimBackend : public AlignerBackend {
 public:
  struct Config {
    PimAlignerConfig aligner;
    /// Expected per-base divergence of the inputs, for kernels whose work
    /// grows with the alignment cost (WFA); banded NW ignores it.
    double expected_divergence = 0.05;
  };

  explicit PimBackend(Config config);
  ~PimBackend() override;

  BackendKind kind() const override { return kind_; }
  BackendCapabilities capabilities() const override;
  double estimate_seconds(std::size_t len_a, std::size_t len_b) const override;
  Ticket submit(std::span<const PairInput> pairs) override;
  std::vector<PairOutput> wait(Ticket ticket) override;
  BackendReport drain() override;

  const PimAlignerConfig& aligner_config() const { return config_.aligner; }

 private:
  Config config_;
  BackendKind kind_;
  PimAligner aligner_;
  std::mutex mutex_;
  Ticket next_ticket_ = 1;
  std::map<Ticket, std::span<const PairInput>> queued_;
  BackendReport accum_;
};

/// The KSW2-like banded CPU baseline behind the backend interface
/// (measured wall-clock; the "minimap2" role of the paper's comparisons).
class CpuBackend : public PoolBackend {
 public:
  struct Config {
    align::Scoring scoring = align::default_scoring();
    baseline::Ksw2Options options;
    /// Throughput assumed by estimate_seconds (banded cells per second,
    /// single pair; the KSW2-like kernel is scalar). Calibratable.
    double cells_per_second = 150e6;
  };

  explicit CpuBackend(Config config, ThreadPool* pool = nullptr);

  BackendKind kind() const override { return BackendKind::kCpu; }
  BackendCapabilities capabilities() const override;
  double estimate_seconds(std::size_t len_a, std::size_t len_b) const override;

 protected:
  PairOutput align_one(const PairInput& pair) const override;

 private:
  Config config_;
};

/// Gap-affine wavefront alignment behind the backend interface: exact like
/// the DP backends but with cost-proportional work — much faster on similar
/// pairs, much slower on divergent ones, which is exactly the asymmetry the
/// cost-model routing policy exploits.
class WfaBackend : public PoolBackend {
 public:
  struct Config {
    align::Scoring scoring = align::default_scoring();
    align::WfaOptions options;
    bool traceback = true;
    /// Expected per-base divergence of the inputs — WFA's work grows with
    /// the alignment cost, so the estimate needs an error-rate prior.
    double expected_divergence = 0.05;
    /// Wavefront cells per second assumed by estimate_seconds.
    double cells_per_second = 150e6;
  };

  explicit WfaBackend(Config config, ThreadPool* pool = nullptr);

  BackendKind kind() const override { return BackendKind::kWfa; }
  BackendCapabilities capabilities() const override;
  double estimate_seconds(std::size_t len_a, std::size_t len_b) const override;

 protected:
  PairOutput align_one(const PairInput& pair) const override;

 private:
  Config config_;
};

}  // namespace pimnw::core
