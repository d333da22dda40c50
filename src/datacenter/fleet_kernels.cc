#include "datacenter/fleet_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/check.h"
#include "core/day_slots.h"

namespace sustainai::datacenter {
namespace {

// ceil/floor restricted to the non-negative server-count domain, written as
// truncating casts so the compiler can keep the autoscaler strip branch-free
// on the SSE2 baseline (no roundpd). Bit-identical to std::ceil/std::floor
// for 0 <= x < 2^63, which AutoScaler::step's int domain guarantees.
inline double ceil_nonneg(double x) {
  const double t = static_cast<double>(static_cast<long long>(x));
  return t + (x > t ? 1.0 : 0.0);
}

inline double floor_nonneg(double x) {
  return static_cast<double>(static_cast<long long>(x));
}

// One (group, chunk) set of lane accumulators: kSections quantities wide.
struct GroupLanes {
  double lane[FleetPartial::kSections][kStepLanes] = {};

  void add(std::size_t q, int l, double v) { lane[q][l] += v; }

  // Rule 2 of the contract: reduce lanes in ascending lane order.
  [[nodiscard]] double reduce(std::size_t q) const {
    double total = 0.0;
    for (int l = 0; l < kStepLanes; ++l) {
      total += lane[q][l];
    }
    return total;
  }
};

enum Section : std::size_t {
  kGroupEnergy = 0,
  kUtilWeight = 1,
  kFreedHours = 2,
  kOppEnergy = 3,
  kOppHours = 4,
  kLocationG = 5,
  kFaultWasted = 6,
  kFaultLost = 7,
};

static_assert(ChunkPhaseSums::kRowSections == kLocationG,
              "the phase table holds the sections before location carbon");

// Adds one group's chunk sums to `out`: each section's lanes reduced, or,
// for the step-row sections, row_sums[q] where a phase table holds them.
void flush_group(const GroupLanes& lanes, const double* row_sums,
                 FleetPartial& out, std::size_t g) {
  const auto sum = [&](Section q) {
    return row_sums != nullptr && q < kLocationG ? row_sums[q]
                                                 : lanes.reduce(q);
  };
  out.group_energy_j()[g] += sum(kGroupEnergy);
  out.util_weight()[g] += sum(kUtilWeight);
  out.freed_hours()[g] += sum(kFreedHours);
  out.opp_energy_j()[g] += sum(kOppEnergy);
  out.opp_hours()[g] += sum(kOppHours);
  out.location_g()[g] += sum(kLocationG);
  out.fault_wasted_j()[g] += sum(kFaultWasted);
  out.fault_lost_hours()[g] += sum(kFaultLost);
}

// ---------------------------------------------------------------------------
// SoA kernel: group-outer / step-inner over the precomputed lanes, blocked
// into kStepLanes-wide strips. Every floating-point expression below is the
// reference kernel's tree (tests/oracles/fleet_reference.cc) with per-group
// constants hoisted; conditional contributions are folded branch-free only
// where the identity is exact (x + 0.0 == x and x * 1.0 == x for the
// non-negative quantities involved), so the two agree byte for byte.
// ---------------------------------------------------------------------------

// Per-group constants loaded once per strip loop.
struct GroupConsts {
  double cnt, h_idle, h_span, a_idle, a_span, a_n;
  double idle_e, opp_e, opp_mask, min_active, max_freed;
  double min_active_frac, max_freed_frac;
  double step_s, pue, target;
};

GroupConsts group_consts(const FleetSoA& soa, std::size_t g, double pue) {
  GroupConsts c;
  c.cnt = soa.count[g];
  c.h_idle = soa.host_idle_w[g];
  c.h_span = soa.host_span_w[g];
  c.a_idle = soa.acc_idle_w[g];
  c.a_span = soa.acc_span_w[g];
  c.a_n = soa.acc_count[g];
  c.idle_e = soa.idle_energy_j[g];
  c.opp_e = soa.opp_energy_j[g];
  c.opp_mask = soa.opp_mask[g];
  c.min_active = soa.min_active[g];
  c.max_freed = soa.max_freed[g];
  c.min_active_frac = soa.min_active_frac;
  c.max_freed_frac = soa.max_freed_frac;
  c.step_s = soa.step_s;
  c.pue = pue;
  c.target = soa.target_utilization;
  return c;
}

// Whole-server step energy per server at utilization u: the exact
// ServerSku::energy tree with the SKU constants hoisted.
inline double step_energy(const GroupConsts& c, double u) {
  const double pw = (c.h_idle + c.h_span * u) + (c.a_idle + c.a_span * u) * c.a_n;
  return pw * c.step_s;
}

// AutoScaler::step with the integer arithmetic carried in exact integral
// doubles; bounds are passed in so the crash-aware caller can derive them
// from the surviving capacity.
struct ScaleDecision {
  double active, freed, util;
};

inline ScaleDecision scale_step(const GroupConsts& c, double total,
                                double demand, double min_active,
                                double max_freed) {
  const double needed = demand * total / c.target;
  double active = ceil_nonneg(needed);
  active = std::max(active, min_active);
  active = std::max(active, total - max_freed);
  active = std::min(active, total);
  ScaleDecision d;
  d.active = active;
  d.freed = total - active;
  d.util = std::min(1.0, demand * total / std::max(active, 1.0));
  return d;
}

// What a fault-free step of one group adds to every section but location
// carbon, which also needs the step's intensity. A pure function of the
// step's demand `d`, so build_fleet_soa evaluates it once per demand-row
// slot into the step rows, and the kernel evaluates it per step only where
// the rows span the horizon.
struct StepValues {
  double energy_j, util, freed_h, opp_j, opp_h;
};

template <bool kScaled>
inline StepValues fault_free_step(const GroupConsts& c, double d) {
  if constexpr (kScaled) {
    const ScaleDecision sd =
        scale_step(c, c.cnt, d, c.min_active, c.max_freed);
    const double e_active = step_energy(c, sd.util) * sd.active;
    const double opp = c.opp_e * sd.freed;  // exact +0.0 when harvesting is off
    const double fh = sd.freed * c.step_s / kSecondsPerHour;
    return {e_active + opp, sd.util, fh, opp, fh * c.opp_mask};
  } else {
    return {step_energy(c, d) * c.cnt, d, 0.0, 0.0, 0.0};
  }
}

// The strip bodies: the fault-free step of a static or an autoscaled group
// and their crash-aware twins. Each adds one step, whose grid intensity is
// `ci`, into lane `l` of `acc`; the crash-aware ones take the step's demand
// `d` and the `dn` hosts offline. With dn == 0 a crash-aware body adds
// exactly what its fault-free twin adds, plus +0.0 to the fault sections,
// so the kernel takes the fault-free body wherever no host is down. A
// static group adds nothing to the freed and opportunistic sections.

// The sections a fault-free step adds to: all of them, or only those the
// step rows give (a phase-table fill; location_piece adds the rest).
// Sections are independent accumulators, so a split adds the same values
// in the same lane order.
enum class Adds { kAll, kRows };

template <bool kScaled, Adds kAdds>
inline void fault_free_add(const StepValues& v, double pue, double ci, int l,
                           GroupLanes& acc) {
  acc.add(kGroupEnergy, l, v.energy_j);
  acc.add(kUtilWeight, l, v.util);
  if constexpr (kScaled) {
    acc.add(kFreedHours, l, v.freed_h);
    acc.add(kOppEnergy, l, v.opp_j);
    acc.add(kOppHours, l, v.opp_h);
  }
  if constexpr (kAdds == Adds::kAll) {
    acc.add(kLocationG, l, v.energy_j * pue * ci);
  }
}

inline void static_step_down(const GroupConsts& c, double d, double ci,
                             double dn, int l, GroupLanes& acc) {
  const double active = c.cnt - dn;  // exact: integral doubles
  const double displaced =
      active > 0.0 ? std::min(1.0, d * c.cnt / active) : 0.0;
  // (d * cnt) / cnt need not round back to d, so the crash-free lane must
  // keep the reference's untouched demand rather than divide through.
  const double ad = dn > 0.0 ? displaced : d;
  const double e_active = active > 0.0 ? step_energy(c, ad) * active : 0.0;
  const double rewarm = c.idle_e * dn;
  const double ge = e_active + rewarm;
  acc.add(kGroupEnergy, l, ge);
  acc.add(kUtilWeight, l, ad);
  acc.add(kLocationG, l, ge * c.pue * ci);
  acc.add(kFaultWasted, l, rewarm);
  acc.add(kFaultLost, l, dn * c.step_s / kSecondsPerHour);
}

inline void scaled_step_down(const GroupConsts& c, double d, double ci,
                             double dn, int l, GroupLanes& acc) {
  const double active_cap = c.cnt - dn;
  const double displaced =
      active_cap > 0.0 ? std::min(1.0, d * c.cnt / active_cap) : 0.0;
  const double ad = dn > 0.0 ? displaced : d;
  // Bounds derive from the surviving capacity, as AutoScaler::step sees it.
  const double min_active = ceil_nonneg(c.min_active_frac * active_cap);
  const double max_freed = floor_nonneg(c.max_freed_frac * active_cap);
  const ScaleDecision sd =
      scale_step(c, active_cap, ad, min_active, max_freed);
  const bool alive = active_cap > 0.0;
  const double e_active = alive ? step_energy(c, sd.util) * sd.active : 0.0;
  const double opp = alive ? c.opp_e * sd.freed : 0.0;
  const double ge0 = e_active + opp;
  const double rewarm = c.idle_e * dn;
  const double ge = ge0 + rewarm;
  const double fh = alive ? sd.freed * c.step_s / kSecondsPerHour : 0.0;
  const double util = alive ? sd.util : ad;
  acc.add(kGroupEnergy, l, ge);
  acc.add(kUtilWeight, l, util);
  acc.add(kFreedHours, l, fh);
  acc.add(kOppEnergy, l, opp);
  acc.add(kOppHours, l, fh * c.opp_mask);
  acc.add(kLocationG, l, ge * c.pue * ci);
  acc.add(kFaultWasted, l, rewarm);
  acc.add(kFaultLost, l, dn * c.step_s / kSecondsPerHour);
}

// The intensity of step i of a piece: contiguous from `ci`, or the one
// held value *ci.
template <bool kHeld>
inline double ci_at(const double* ci, long i) {
  if constexpr (kHeld) {
    return *ci;
  } else {
    return ci[i];
  }
}

// Calls body(lane, i, intensity) for the n steps s0 + i of one piece, in
// ascending order, on lane (s - chunk_begin) % kStepLanes: the steps before
// the next lane-0 step one at a time, then whole kStepLanes-wide strips,
// then the tail.
template <bool kHeld, typename Body>
inline void run_piece(long chunk_begin, long s0, long n, const double* ci,
                      Body&& body) {
  const auto lane_of = [chunk_begin](long s) {
    return static_cast<int>((s - chunk_begin) % kStepLanes);
  };
  long i = 0;
  for (; i < n && lane_of(s0 + i) != 0; ++i) {
    body(lane_of(s0 + i), i, ci_at<kHeld>(ci, i));
  }
  for (; i + kStepLanes <= n; i += kStepLanes) {
    for (int l = 0; l < kStepLanes; ++l) {
      body(l, i + l, ci_at<kHeld>(ci, i + l));
    }
  }
  for (; i < n; ++i) {
    body(lane_of(s0 + i), i, ci_at<kHeld>(ci, i));
  }
}

// The location carbon of one crash-free piece whose step energies are
// e[0, n): run_piece's walk with location_g's lanes, `lane`, held in locals
// through the whole strips, so the per-step adds do not wait on memory.
template <bool kHeld>
inline void location_piece(long chunk_begin, long s0, long n, const double* ci,
                           const double* e, double pue, double* lane) {
  static_assert(kStepLanes == 4, "the strip below is four lanes wide");
  const auto lane_of = [chunk_begin](long s) {
    return static_cast<int>((s - chunk_begin) % kStepLanes);
  };
  long i = 0;
  for (; i < n && lane_of(s0 + i) != 0; ++i) {
    lane[lane_of(s0 + i)] += e[i] * pue * ci_at<kHeld>(ci, i);
  }
  double a0 = lane[0];
  double a1 = lane[1];
  double a2 = lane[2];
  double a3 = lane[3];
  for (; i + kStepLanes <= n; i += kStepLanes) {
    a0 += e[i] * pue * ci_at<kHeld>(ci, i);
    a1 += e[i + 1] * pue * ci_at<kHeld>(ci, i + 1);
    a2 += e[i + 2] * pue * ci_at<kHeld>(ci, i + 2);
    a3 += e[i + 3] * pue * ci_at<kHeld>(ci, i + 3);
  }
  lane[0] = a0;
  lane[1] = a1;
  lane[2] = a2;
  lane[3] = a3;
  for (; i < n; ++i) {
    lane[lane_of(s0 + i)] += e[i] * pue * ci_at<kHeld>(ci, i);
  }
}

// One fault-free piece, step i adding values(i).
template <bool kHeld, bool kScaled, Adds kAdds, typename Values>
inline void fault_free_piece(long chunk_begin, long s0, long n,
                             const double* ci, double pue, const Values& values,
                             GroupLanes& acc) {
  run_piece<kHeld>(chunk_begin, s0, n, ci, [&](int l, long i, double x) {
    fault_free_add<kScaled, kAdds>(values(i), pue, x, l, acc);
  });
}

// Calls f(std::bool_constant<flag>{}): a runtime flag picks a compile-time
// specialization.
template <typename F>
inline void with_flag(bool flag, F&& f) {
  if (flag) {
    f(std::true_type{});
  } else {
    f(std::false_type{});
  }
}

// [first run ending after step s, end) of a sorted, disjoint run list;
// empty for nullptr.
template <typename Run>
std::pair<const Run*, const Run*> runs_after(const std::vector<Run>* runs,
                                             long s) {
  if (runs == nullptr) {
    return {nullptr, nullptr};
  }
  const auto it = std::partition_point(
      runs->begin(), runs->end(), [s](const Run& r) { return r.end <= s; });
  return {runs->data() + (it - runs->begin()), runs->data() + runs->size()};
}

// Walks steps [begin, end) of one group in pieces over which the demand
// row, the down count and the intensity source do not change: a piece ends
// at a row wrap or a crash- or gap-run boundary. Calls
// piece(s0, n, r, down, ci, held) for each, in ascending order, where r is
// the row slot of step s0.
template <typename Piece>
inline void walk_pieces(const FleetStepInputs& in, long row_len,
                        const std::vector<DownRun>* down,
                        long begin, long end, Piece&& piece) {
  auto [dr, dr_end] = runs_after(down, begin);
  auto [hr, hr_end] = runs_after(in.held, begin);
  long s = begin;
  long r = begin % row_len;
  while (s < end) {
    long stop = std::min(end, s + (row_len - r));
    int dn = 0;
    if (dr != dr_end) {
      if (dr->begin <= s) {
        dn = dr->down;
        stop = std::min(stop, dr->end);
      } else {
        stop = std::min(stop, dr->begin);
      }
    }
    const double* held = nullptr;
    if (hr != hr_end) {
      if (hr->begin <= s) {
        held = &hr->value;
        stop = std::min(stop, hr->end);
      } else {
        stop = std::min(stop, hr->begin);
      }
    }
    const double* ci =
        held != nullptr ? held : in.intensity + (s - in.intensity_first);
    piece(s, stop - s, r, dn, ci, held != nullptr);
    r += stop - s;
    if (r == row_len) {
      r = 0;
    }
    s = stop;
    if (dr != dr_end && dr->end <= s) {
      ++dr;
    }
    if (hr != hr_end && hr->end <= s) {
      ++hr;
    }
  }
}

// Adds steps [begin, end) of group g into `lanes`, to the sections kAdds
// picks. `down` is the group's crash runs (nullptr: none); only kAll reads
// them, so a kRows fill takes every step as fault-free.
template <Adds kAdds>
void step_group(const FleetStepInputs& in, std::size_t g,
                const std::vector<DownRun>* down, long begin, long end,
                GroupLanes& lanes) {
  const FleetSoA& soa = *in.soa;
  const auto row_len = static_cast<std::size_t>(soa.row_len);
  const GroupConsts c = group_consts(soa, g, in.pue);
  const double* row = soa.demand.data() + g * row_len;
  const bool scaled = soa.autoscaled[g] != 0;
  const bool step_rows = soa.has_step_rows();
  const auto piece = [&](long s0, long n, long r, int down_now,
                         const double* ci, bool held) {
    const double* dem = row + r;
    const std::size_t at = g * row_len + static_cast<std::size_t>(r);
    with_flag(held, [&](auto held_flag) {
      constexpr bool kHeld = decltype(held_flag)::value;
      if constexpr (kAdds == Adds::kAll) {
        if (down_now != 0) {
          const double dn = static_cast<double>(down_now);
          if (scaled) {
            run_piece<kHeld>(begin, s0, n, ci, [&](int l, long i, double x) {
              scaled_step_down(c, dem[i], x, dn, l, lanes);
            });
          } else {
            run_piece<kHeld>(begin, s0, n, ci, [&](int l, long i, double x) {
              static_step_down(c, dem[i], x, dn, l, lanes);
            });
          }
          return;
        }
      }
      // Fault-free: read the step rows, or evaluate the step inline where
      // the rows span the horizon and each slot is read once.
      with_flag(scaled, [&](auto scaled_flag) {
        constexpr bool kScaled = decltype(scaled_flag)::value;
        if (step_rows) {
          const double* e = soa.row_energy_j.data() + at;
          const double* u = soa.row_util.data() + at;
          const double* fh = soa.row_freed_h.data() + at;
          const double* oj = soa.row_opp_j.data() + at;
          const double* oh = soa.row_opp_h.data() + at;
          fault_free_piece<kHeld, kScaled, kAdds>(
              begin, s0, n, ci, c.pue,
              [=](long i) -> StepValues {
                return {e[i], u[i], fh[i], oj[i], oh[i]};
              },
              lanes);
        } else {
          fault_free_piece<kHeld, kScaled, kAdds>(
              begin, s0, n, ci, c.pue,
              [&](long i) { return fault_free_step<kScaled>(c, dem[i]); },
              lanes);
        }
      });
    });
  };
  walk_pieces(in, soa.row_len, down, begin, end, piece);
}

// Adds the location carbon of group g's steps [begin, end), all crash-free
// and read from its step rows, into `lanes`.
void location_group(const FleetStepInputs& in, std::size_t g, long begin,
                    long end, GroupLanes& lanes) {
  const FleetSoA& soa = *in.soa;
  const double* e = soa.row_energy_j.data() +
                    g * static_cast<std::size_t>(soa.row_len);
  const auto piece = [&](long s0, long n, long r, int, const double* ci,
                         bool held) {
    with_flag(held, [&](auto held_flag) {
      location_piece<decltype(held_flag)::value>(
          begin, s0, n, ci, e + r, in.pue, lanes.lane[kLocationG]);
    });
  };
  walk_pieces(in, soa.row_len, nullptr, begin, end, piece);
}

// Whether any of a group's crash runs overlaps steps [begin, end).
bool any_down(const std::vector<DownRun>* down, long begin, long end) {
  const auto [dr, dr_end] = runs_after(down, begin);
  return dr != dr_end && dr->begin < end;
}

// The step-row sums of every group over chunk [begin, end), each taken as
// crash-free: the adds of the chunk's own fault-free pieces, held or not,
// in the same lane order, reduced. Gap runs split pieces but change no
// step-row value, so they are dropped here.
void fill_row_sums(const FleetStepInputs& in, long begin, long end,
                   double* sums) {
  FleetStepInputs fault_free = in;
  fault_free.held = nullptr;
  const FleetSoA& soa = *in.soa;
  for (std::size_t g = 0; g < soa.num_groups; ++g) {
    if (soa.count[g] == 0.0) {
      continue;
    }
    GroupLanes lanes;
    step_group<Adds::kRows>(fault_free, g, nullptr, begin, end, lanes);
    for (std::size_t q = 0; q < ChunkPhaseSums::kRowSections; ++q) {
      sums[g * ChunkPhaseSums::kRowSections + q] = lanes.reduce(q);
    }
  }
}

FleetPartial soa_chunk(const FleetStepInputs& in, std::size_t begin_u,
                       std::size_t end_u) {
  const FleetSoA& soa = *in.soa;
  const std::size_t num_groups = soa.num_groups;
  FleetPartial out(num_groups);
  const auto begin = static_cast<long>(begin_u);
  const auto end = static_cast<long>(end_u);
  if (end <= begin) {
    return out;
  }

  const long slot = in.phases != nullptr ? in.phases->slot_of(begin, end) : -1;
  const double* row_sums =
      slot < 0 ? nullptr : in.phases->sums(slot, [&](double* sums) {
        fill_row_sums(in, begin, end, sums);
      });
  for (std::size_t g = 0; g < num_groups; ++g) {
    if (soa.count[g] == 0.0) {
      continue;
    }
    const std::vector<DownRun>* down =
        in.down != nullptr && !in.down->empty() ? &(*in.down)[g] : nullptr;
    GroupLanes lanes;
    if (row_sums != nullptr && !any_down(down, begin, end)) {
      location_group(in, g, begin, end, lanes);
      flush_group(lanes, row_sums + g * ChunkPhaseSums::kRowSections, out, g);
    } else {
      step_group<Adds::kAll>(in, g, down, begin, end, lanes);
      flush_group(lanes, nullptr, out, g);
    }
  }
  return out;
}

// Step range [first, last) of an event, clipped to [0, steps) in double
// before the casts: an event time past long's range cannot overflow them.
struct StepRange {
  long begin = 0;
  long end = 0;
};

StepRange event_steps(const fault::FaultEvent& e, long steps, double step_s) {
  const double first = std::floor(to_seconds(e.time) / step_s);
  const double last =
      std::ceil((to_seconds(e.time) + to_seconds(e.duration)) / step_s);
  const double hi = static_cast<double>(steps);
  const auto clip = [hi](double x) {
    return static_cast<long>(x > 0.0 ? std::min(x, hi) : 0.0);
  };
  return {clip(first), clip(last)};
}

// Overwrites steps [b, e) of the sorted, disjoint gap runs with one gap
// holding step b's reading: b's own, or that of the earlier gap covering b.
void overwrite_gap(std::vector<GapRun>& runs, long b, long e) {
  const auto lo = std::partition_point(
      runs.begin(), runs.end(), [b](const GapRun& r) { return r.end <= b; });
  const auto hi = std::partition_point(
      lo, runs.end(), [e](const GapRun& r) { return r.begin < e; });
  GapRun pieces[3];
  std::size_t n = 0;
  const long hold = lo != runs.end() && lo->begin <= b ? lo->hold : b;
  if (lo != hi && lo->begin < b) {
    pieces[n++] = {lo->begin, b, lo->hold};
  }
  pieces[n++] = {b, e, hold};
  if (lo != hi && std::prev(hi)->end > e) {
    pieces[n++] = {e, std::prev(hi)->end, std::prev(hi)->hold};
  }
  const auto at = runs.erase(lo, hi);
  runs.insert(at, pieces, pieces + n);
}

// The runs of min(count, overlapping crashes) > 0 from a group's crash
// ranges, given as (step, +1 at a begin / -1 at an end) edges.
std::vector<DownRun> down_runs(std::vector<std::pair<long, int>>& edges,
                               int count) {
  std::sort(edges.begin(), edges.end());
  std::vector<DownRun> runs;
  int overlaps = 0;
  int down = 0;
  long since = 0;
  for (std::size_t i = 0; i < edges.size();) {
    const long at = edges[i].first;
    for (; i < edges.size() && edges[i].first == at; ++i) {
      overlaps += edges[i].second;
    }
    const int now = std::min(count, overlaps);
    if (now != down) {
      if (down > 0) {
        runs.push_back({since, at, down});
      }
      since = at;
      down = now;
    }
  }
  return runs;
}

}  // namespace

ChunkPhaseSums::ChunkPhaseSums(const FleetSoA& soa, long chunk_steps) {
  check_arg(chunk_steps >= 1, "ChunkPhaseSums: chunk_steps must be >= 1");
  if (!soa.has_step_rows()) {
    return;
  }
  const long phase_step = std::gcd(soa.row_len, chunk_steps);
  const long phases = soa.row_len / phase_step;
  if (soa.steps / chunk_steps <= phases) {
    return;
  }
  steps_ = soa.steps;
  row_len_ = soa.row_len;
  chunk_steps_ = chunk_steps;
  phase_step_ = phase_step;
  slots_ = static_cast<std::size_t>(phases) +
           (soa.steps % chunk_steps != 0 ? 1 : 0);
  stride_ = soa.num_groups * kRowSections;
  sums_.assign(slots_ * stride_, 0.0);
  once_ = std::make_unique<std::once_flag[]>(slots_);
}

long ChunkPhaseSums::slot_of(long begin, long end) const {
  if (empty() || begin % chunk_steps_ != 0 || end - begin > chunk_steps_) {
    return -1;
  }
  if (end - begin == chunk_steps_) {
    return begin % row_len_ / phase_step_;
  }
  // The short last chunk, on the tail slot after the phases.
  return end == steps_ ? static_cast<long>(slots_) - 1 : -1;
}

std::size_t ChunkPhaseSums::bytes() const {
  return sums_.capacity() * sizeof(double) + slots_ * sizeof(std::once_flag);
}

FleetPartial::FleetPartial(std::size_t num_groups)
    : num_groups_(num_groups), buf_(kSections * num_groups, 0.0) {}

double FleetPartial::total(const double* section_ptr) const {
  double t = 0.0;
  for (std::size_t g = 0; g < num_groups_; ++g) {
    t += section_ptr[g];
  }
  return t;
}

void FleetPartial::merge(const FleetPartial& other) {
  check_arg(num_groups_ == other.num_groups_,
            "FleetPartial::merge: group count mismatch");
  for (std::size_t i = 0; i < buf_.size(); ++i) {
    buf_[i] += other.buf_[i];
  }
}

void FleetPartial::set_buffer(std::span<const double> buf) {
  check_arg(buf.size() == buf_.size(),
            "FleetPartial::set_buffer: buffer size mismatch");
  std::copy(buf.begin(), buf.end(), buf_.begin());
}

FaultProjection project_faults(const fault::FaultPlan& plan,
                               const Cluster& cluster, long steps,
                               double step_s) {
  check_arg(steps >= 0, "project_faults: steps must be >= 0");
  check_arg(step_s > 0.0, "project_faults: step must be positive");
  const auto& groups = cluster.groups();
  FaultProjection proj;
  if (plan.empty()) {
    return proj;
  }
  // A host is down at a step for each crash covering it, capped at the
  // group's count: min(count, min(count, d) + 1) == min(count, d + 1), so
  // the cap of the per-step count equals the cap of the overlap count.
  std::vector<std::vector<std::pair<long, int>>> edges;
  for (const fault::FaultEvent& e : plan.events()) {
    const StepRange range = event_steps(e, steps, step_s);
    if (e.kind == fault::FaultKind::kHostCrash && !groups.empty()) {
      edges.resize(groups.size());
      const std::size_t gi = static_cast<std::size_t>(
          e.target % static_cast<std::uint64_t>(groups.size()));
      if (range.begin < range.end) {
        edges[gi].emplace_back(range.begin, 1);
        edges[gi].emplace_back(range.end, -1);
      }
    } else if (e.kind == fault::FaultKind::kGridDataGap &&
               range.begin < range.end) {
      overwrite_gap(proj.gaps, range.begin, range.end);
    }
  }
  if (!edges.empty()) {
    proj.down.resize(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      proj.down[g] = down_runs(edges[g], groups[g].count);
    }
  }
  return proj;
}

long demand_row_len(long steps, double step_s) {
  const long period = DaySlotCache::period_of(step_s);
  const bool day_rows = period > 0 && period < steps &&
                        std::floor(step_s) == step_s &&
                        step_s * static_cast<double>(steps) < 0x1p53;
  return day_rows ? period : steps;
}

FleetSoA build_fleet_soa(const Cluster& cluster,
                         const AutoScaler::Config& autoscaler,
                         bool enable_autoscaler, bool opportunistic_training,
                         double opportunistic_utilization, long steps,
                         double step_s) {
  check_arg(steps >= 0, "build_fleet_soa: steps must be >= 0");
  check_arg(step_s > 0.0, "build_fleet_soa: step must be positive");
  const auto& groups = cluster.groups();
  const Duration step = seconds(step_s);

  FleetSoA soa;
  soa.steps = steps;
  soa.step_s = step_s;
  soa.num_groups = groups.size();
  soa.target_utilization = autoscaler.target_utilization;
  soa.min_active_frac = autoscaler.min_active_fraction;
  soa.max_freed_frac = autoscaler.max_freed_fraction;

  const std::size_t n = groups.size();
  soa.count.resize(n);
  soa.host_idle_w.resize(n);
  soa.host_span_w.resize(n);
  soa.acc_idle_w.resize(n);
  soa.acc_span_w.resize(n);
  soa.acc_count.resize(n);
  soa.idle_energy_j.resize(n);
  soa.opp_energy_j.resize(n);
  soa.min_active.resize(n);
  soa.max_freed.resize(n);
  soa.autoscaled.resize(n);
  soa.opp_mask.resize(n);

  // The diurnal cosine depends on t only through the second-of-day. With a
  // whole-second step and step_s * steps < 2^53, step_s * s is an exact
  // integer, so fmod(step_s * s, 86400) == step_s * (s % period): step s
  // reads the same second-of-day, hence the same double, as slot
  // s % period of a one-day row.
  DaySlotCache load_slots(step_s);
  soa.row_len = demand_row_len(steps, step_s);
  const auto row_len = static_cast<std::size_t>(soa.row_len);
  soa.demand.assign(n * row_len, 0.0);

  for (std::size_t g = 0; g < n; ++g) {
    const ServerGroup& grp = groups[g];
    soa.count[g] = static_cast<double>(grp.count);
    const hw::DeviceSpec& host = grp.sku.host();
    const hw::DeviceSpec& acc = grp.sku.accelerator();
    const double h_idle = host.tdp.base() * host.idle_fraction;
    const double a_idle = acc.tdp.base() * acc.idle_fraction;
    soa.host_idle_w[g] = h_idle;
    soa.host_span_w[g] = host.tdp.base() - h_idle;
    soa.acc_idle_w[g] = a_idle;
    soa.acc_span_w[g] = acc.tdp.base() - a_idle;
    soa.acc_count[g] = static_cast<double>(grp.sku.accelerator_count());
    soa.idle_energy_j[g] = to_joules(grp.sku.energy(0.0, 0.0, step));
    const bool scaled = grp.autoscalable && enable_autoscaler;
    soa.autoscaled[g] = scaled ? 1 : 0;
    soa.opp_mask[g] = opportunistic_training ? 1.0 : 0.0;
    soa.opp_energy_j[g] =
        opportunistic_training
            ? to_joules(grp.sku.energy(opportunistic_utilization,
                                       opportunistic_utilization, step))
            : 0.0;
    soa.min_active[g] = std::ceil(autoscaler.min_active_fraction *
                                  static_cast<double>(grp.count));
    soa.max_freed[g] = std::floor(autoscaler.max_freed_fraction *
                                  static_cast<double>(grp.count));

    // Demand row: bit-identical to DiurnalProfile::utilization_at at every
    // step (validated by the first call; the flat shortcut is exact because
    // (peak - trough) == 0 collapses the cosine term to +0.0).
    double* row = soa.demand.data() + g * row_len;
    if (row_len == 0) {
      continue;
    }
    const DiurnalProfile& load = grp.load;
    const double first = load.utilization_at(seconds(0.0));
    if (load.peak == load.trough) {
      std::fill(row, row + row_len, first);
      continue;
    }
    load_slots.clear();
    const auto diurnal = [&load](double sec_of_day) {
      const double hour = sec_of_day / kSecondsPerHour;
      const double phase = 2.0 * M_PI * (hour - load.peak_hour) / 24.0;
      return load.trough + (load.peak - load.trough) * 0.5 * (1.0 + std::cos(phase));
    };
    for (long s = 0; s < soa.row_len; ++s) {
      const double t_s = step_s * static_cast<double>(s);
      row[s] = load_slots.get(s, std::fmod(t_s, kSecondsPerDay), diurnal);
    }
  }

  // Step rows: the fault-free step at every slot of a day-long row, each
  // slot read once per day of the horizon. Horizon-long rows would read
  // each slot once, so there the kernel evaluates the step inline.
  if (soa.row_len < steps) {
    for (std::vector<double>* r : {&soa.row_energy_j, &soa.row_util,
                                   &soa.row_freed_h, &soa.row_opp_j,
                                   &soa.row_opp_h}) {
      r->resize(n * row_len);
    }
    for (std::size_t g = 0; g < n; ++g) {
      // The fault-free step does not read the PUE; any value serves.
      const GroupConsts c = group_consts(soa, g, 1.0);
      for (std::size_t i = g * row_len; i < (g + 1) * row_len; ++i) {
        const StepValues v = soa.autoscaled[g] != 0
                                 ? fault_free_step<true>(c, soa.demand[i])
                                 : fault_free_step<false>(c, soa.demand[i]);
        soa.row_energy_j[i] = v.energy_j;
        soa.row_util[i] = v.util;
        soa.row_freed_h[i] = v.freed_h;
        soa.row_opp_j[i] = v.opp_j;
        soa.row_opp_h[i] = v.opp_h;
      }
    }
  }
  return soa;
}

FleetPartial run_fleet_chunk(const FleetStepInputs& in, std::size_t begin,
                             std::size_t end) {
  check_arg(in.soa != nullptr, "run_fleet_chunk: SoA inputs are required");
  check_arg(in.intensity != nullptr, "run_fleet_chunk: intensity is required");
  return soa_chunk(in, begin, end);
}

}  // namespace sustainai::datacenter
