// The fixed-width step kernel of the fleet simulator.
//
// The per-step fleet math (diurnal demand -> autoscaling -> utilization ->
// power -> PUE -> grid carbon) is the widest hot path in the repo: it runs
// once per server group per step over horizons of years. The kernel keeps
// structure-of-arrays state (per-group constants and demand rows, one day
// long when the day repeats on the step grid, as contiguous lanes), reads
// the grid intensity from a per-segment window and faults from sorted runs,
// and blocks the inner loop into kStepLanes-wide strips.
//
// A fault-free step is a pure function of its demand-row slot, so where the
// rows are one day long build_fleet_soa evaluates it once per slot into
// step rows, and the kernel's fault-free pieces only add row values (plus
// the intensity product for location carbon) into their lanes. The row sums
// of a crash-free chunk depend only on its phase in the day, so each phase
// is summed once (ChunkPhaseSums) and later chunks add only location
// carbon. The strips
// fix the order of the additions, not the instructions: the kernel
// compiles to scalar SSE2 code (GCC 12, -O3: one packed add and no packed
// multiply in the object).
//
// Its results are defined by an accumulation-order contract (DESIGN.md §6),
// which the object-based reference kernel in tests/oracles/ follows too, so
// the two agree byte for byte (tests/fleet_soa_test.cc):
//
//   1. Every accumulated quantity is PER GROUP. Within an exec chunk [b, e),
//      step s contributes to logical lane (s - b) % kStepLanes of its group's
//      accumulator; each lane therefore sees its strided step subsequence in
//      ascending order regardless of loop interchange or physical SIMD width.
//   2. At the end of the chunk the lanes are reduced in ascending lane order:
//      ((l0 + l1) + l2) + l3.
//   3. Chunk partials merge in ascending chunk order (exec/parallel.h), and
//      fleet-level totals reduce from the per-group totals in ascending group
//      order, once, after the merge.
//
// The contract fixes the floating-point expression tree per step to the one
// the reference evaluates (ServerSku::energy's tree with the SKU constants
// hoisted), so the SoA kernel is a pure reordering of independent
// accumulators — the same trick the recsys GEMM tiles use per (row, output).
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "datacenter/autoscaler.h"
#include "datacenter/cluster.h"
#include "fault/plan.h"

namespace sustainai::datacenter {

// Logical lane width of the step kernel. This is a contract constant, not a
// machine property: results are defined in terms of kStepLanes accumulator
// lanes, so wider (or narrower) physical SIMD units must still maintain
// exactly these logical lanes to reproduce the same bytes.
inline constexpr int kStepLanes = 4;

// Per-group constants and demand rows, AoS -> SoA. Built once per
// FleetRegion (the demand rows are the expensive part: one cosine per
// distinct second-of-day per group, served from a day-periodic slot cache).
struct FleetSoA {
  long steps = 0;
  double step_s = 0.0;
  std::size_t num_groups = 0;
  // Length of every demand row: one day of steps when the day repeats
  // exactly on the step grid (see build_fleet_soa), `steps` otherwise.
  long row_len = 0;

  // Per-group server counts and hoisted ServerSku power coefficients
  // (host/accelerator idle watts and idle->TDP spans, accelerator count).
  std::vector<double> count;
  std::vector<double> host_idle_w;
  std::vector<double> host_span_w;
  std::vector<double> acc_idle_w;
  std::vector<double> acc_span_w;
  std::vector<double> acc_count;
  // Per-server step energies at fixed utilizations: idle (re-warming hosts)
  // and the opportunistic-training utilization (0 when harvesting is off).
  std::vector<double> idle_energy_j;
  std::vector<double> opp_energy_j;
  // AutoScaler integer bounds as exact integral doubles (full capacity; the
  // crash-aware path re-derives them from the surviving host count).
  std::vector<double> min_active;
  std::vector<double> max_freed;
  std::vector<unsigned char> autoscaled;  // autoscalable && enabled
  // 1.0 when opportunistic harvesting applies to this group, else 0.0; used
  // as an exact multiplicative mask (x * 1.0 == x, x * 0.0 == +0.0).
  std::vector<double> opp_mask;
  // Demand rows, demand[g * row_len + s % row_len]: the diurnal
  // utilization of group g at step s, bit-identical to
  // DiurnalProfile::utilization_at. A day-long row holds the same double at
  // s % row_len as a horizon-long row at s, so one row per day suffices.
  std::vector<double> demand;
  // Step rows, laid out like `demand`: what the fault-free step of group g
  // at slot r adds to its group energy, utilization, freed hours,
  // opportunistic energy and opportunistic hours (zero freed and
  // opportunistic values for a static group). Location carbon also needs
  // the step's intensity, so the kernel computes it per step as
  // (row_energy_j[r] * pue) * ci. Built only for day-long rows
  // (row_len < steps), whose slots repeat every day; otherwise empty, and
  // the kernel evaluates the same step function inline.
  std::vector<double> row_energy_j;
  std::vector<double> row_util;
  std::vector<double> row_freed_h;
  std::vector<double> row_opp_j;
  std::vector<double> row_opp_h;

  [[nodiscard]] bool has_step_rows() const { return !row_energy_j.empty(); }

  double target_utilization = 0.75;
  double min_active_frac = 0.0;
  double max_freed_frac = 0.0;
};

// Steps per demand row for `steps` steps of `step_s` seconds: one day long
// (the DaySlotCache period) when the period is nonzero and below `steps`,
// `step_s` is a whole number of seconds and step_s * steps < 2^53; then
// fmod(step_s * s, 86400) equals step_s * (s % period) exactly. Otherwise
// the rows span the horizon.
[[nodiscard]] long demand_row_len(long steps, double step_s);

// Precompute the SoA image of `cluster` for `steps` steps of `step_s`
// seconds. `opportunistic_utilization` parameterizes opp_energy_j. Rows are
// demand_row_len(steps, step_s) steps long.
[[nodiscard]] FleetSoA build_fleet_soa(const Cluster& cluster,
                                       const AutoScaler::Config& autoscaler,
                                       bool enable_autoscaler,
                                       bool opportunistic_training,
                                       double opportunistic_utilization,
                                       long steps, double step_s);

// Additive per-chunk partial sums, one slot per (quantity, group), flattened
// into a single buffer so a chunk allocates once and merge() is a plain
// elementwise add (which itself vectorizes).
class FleetPartial {
 public:
  FleetPartial() = default;
  explicit FleetPartial(std::size_t num_groups);

  [[nodiscard]] std::size_t num_groups() const { return num_groups_; }

  // Section accessors: contiguous per-group lanes.
  [[nodiscard]] double* group_energy_j() { return section(0); }
  [[nodiscard]] double* util_weight() { return section(1); }
  [[nodiscard]] double* freed_hours() { return section(2); }
  [[nodiscard]] double* opp_energy_j() { return section(3); }
  [[nodiscard]] double* opp_hours() { return section(4); }
  [[nodiscard]] double* location_g() { return section(5); }
  [[nodiscard]] double* fault_wasted_j() { return section(6); }
  [[nodiscard]] double* fault_lost_hours() { return section(7); }
  [[nodiscard]] const double* group_energy_j() const { return section(0); }
  [[nodiscard]] const double* util_weight() const { return section(1); }
  [[nodiscard]] const double* freed_hours() const { return section(2); }
  [[nodiscard]] const double* opp_energy_j() const { return section(3); }
  [[nodiscard]] const double* opp_hours() const { return section(4); }
  [[nodiscard]] const double* location_g() const { return section(5); }
  [[nodiscard]] const double* fault_wasted_j() const { return section(6); }
  [[nodiscard]] const double* fault_lost_hours() const { return section(7); }

  // Ascending-group reduction of one section (rule 3 of the contract).
  [[nodiscard]] double total(const double* section_ptr) const;

  // Chunk-order fold: elementwise add of the whole buffer.
  void merge(const FleetPartial& other);

  // Raw accumulator state, for checkpoint snapshots (planet_sim.h): the
  // kSections * num_groups flattened buffer, restorable bit-for-bit.
  // set_buffer copies `buf` in; it must have the buffer's size.
  [[nodiscard]] const std::vector<double>& buffer() const { return buf_; }
  void set_buffer(std::span<const double> buf);

  static constexpr std::size_t kSections = 8;

 private:
  [[nodiscard]] double* section(std::size_t q) {
    return buf_.data() + q * num_groups_;
  }
  [[nodiscard]] const double* section(std::size_t q) const {
    return buf_.data() + q * num_groups_;
  }

  std::size_t num_groups_ = 0;
  std::vector<double> buf_;
};

// A run of steps [begin, end) over which `down` hosts of one group are
// offline (crashed or re-warming).
struct DownRun {
  long begin = 0;
  long end = 0;
  int down = 0;
};

// A run of steps [begin, end) inside grid-data gaps: each step reads the
// intensity of step `hold`, the last reading before the gap.
struct GapRun {
  long begin = 0;
  long end = 0;
  long hold = 0;
};

// A gap run with the intensity (base units) its steps read.
struct HeldRun {
  long begin = 0;
  long end = 0;
  double value = 0.0;
};

// The step-row sums of crash-free chunks, one set per chunk phase
// (DESIGN.md §6, "Chunk phase sums"). Group energy, utilization weight,
// freed hours, opportunistic energy and opportunistic hours read no
// intensity, so what a crash-free chunk [b, e) adds to them depends only on
// b % row_len and e - b. Chunks start on multiples of their length, so a run
// has row_len / gcd(row_len, chunk_steps) full-length phases plus at most one
// short tail. Each phase is filled once, by the first chunk that reads it,
// with the adds that chunk would make; later chunks of the phase add only
// their location carbon.
class ChunkPhaseSums {
 public:
  // Sections 0..4 of FleetPartial: the ones the step rows give.
  static constexpr std::size_t kRowSections = 5;

  ChunkPhaseSums() = default;
  // The table of `soa`'s run cut into chunks of `chunk_steps` steps, as
  // its engine::ShardedRun plans them. Empty without step rows, or when no
  // phase repeats: then every chunk is the only one of its phase, and a
  // table would only add a pass.
  ChunkPhaseSums(const FleetSoA& soa, long chunk_steps);

  [[nodiscard]] bool empty() const { return slots_ == 0; }
  // The slot of chunk [begin, end): its phase when it is a full chunk of
  // the grid, the tail slot when it is the short last one, else -1.
  [[nodiscard]] long slot_of(long begin, long end) const;
  // The slot's sums, group-major: at [g * kRowSections + q]. The first
  // caller of a slot writes them with fill(sums); every caller returns
  // once they are written.
  template <typename Fill>
  [[nodiscard]] const double* sums(long slot, Fill&& fill) const {
    const auto i = static_cast<std::size_t>(slot);
    double* dst = sums_.data() + i * stride_;
    std::call_once(once_[i], std::forward<Fill>(fill), dst);
    return dst;
  }
  // Bytes of the sums and their once-flags.
  [[nodiscard]] std::size_t bytes() const;

 private:
  long steps_ = 0;
  long row_len_ = 0;
  long chunk_steps_ = 0;
  long phase_step_ = 0;  // gcd(row_len, chunk_steps)
  std::size_t slots_ = 0;
  std::size_t stride_ = 0;  // num_groups * kRowSections
  mutable std::vector<double> sums_;
  std::unique_ptr<std::once_flag[]> once_;
};

// Read-only inputs shared by every chunk of one segment.
struct FleetStepInputs {
  const FleetSoA* soa = nullptr;
  double pue = 1.0;
  // Grid intensity (base units) of step s at intensity[s - intensity_first]
  // for every step the chunks run; the region's offset is applied.
  const double* intensity = nullptr;
  long intensity_first = 0;
  // down[g]: group g's crash runs, sorted; nullptr when nothing crashes.
  const std::vector<std::vector<DownRun>>* down = nullptr;
  // Gap runs, sorted; their steps read the held value, not `intensity`.
  // nullptr when there are none.
  const std::vector<HeldRun>* held = nullptr;
  // The phase table of `soa` on the run's chunk grid; nullptr steps every
  // chunk in full.
  const ChunkPhaseSums* phases = nullptr;
};

// Simulate steps [begin, end) of one chunk under the lane contract. Each
// group's steps split at row wraps and at crash- and gap-run boundaries;
// within a piece the down count is a constant and the intensity is either
// contiguous or one held value. A group with no crash run in the chunk
// takes its step-row sums from `in.phases` where the chunk has a slot
// there, and adds only its location carbon per step.
[[nodiscard]] FleetPartial run_fleet_chunk(const FleetStepInputs& in,
                                           std::size_t begin, std::size_t end);

// A fault plan projected onto a fleet timeline as sorted, disjoint,
// piecewise-constant runs, built serially before any parallel region so the
// chunk kernels only ever read them. Sized by the plan's events, not by the
// horizon. Shared by FleetSimulator (one fleet) and PlanetSimulator (one
// per region); tests/oracles/ keeps the dense per-step projection it is
// proven against.
struct FaultProjection {
  // down[g]: the runs over which group g has hosts offline, each holding
  // min(count, overlapping crashes). Steps in no run have none offline.
  // Empty when the plan contains no host crashes.
  std::vector<std::vector<DownRun>> down;
  // The grid-data gap runs. A gap whose first step lies inside an earlier
  // gap holds that gap's reading; a later gap overrides an earlier one.
  std::vector<GapRun> gaps;

  [[nodiscard]] bool any_down() const { return !down.empty(); }
  [[nodiscard]] bool any_gap() const { return !gaps.empty(); }
};

[[nodiscard]] FaultProjection project_faults(const fault::FaultPlan& plan,
                                             const Cluster& cluster,
                                             long steps, double step_s);

}  // namespace sustainai::datacenter
