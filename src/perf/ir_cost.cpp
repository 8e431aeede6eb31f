#include "perf/ir_cost.hpp"

#include <map>
#include <set>
#include <vector>

#include "crypto/compare.hpp"
#include "ir/plan.hpp"
#include "offline/ot_triple_source.hpp"

namespace pasnet::perf {

namespace {

/// Tournament depth of a t-entry reduction tree with odd carries.
int tree_levels(int t) noexcept {
  int levels = 0;
  while (t > 1) {
    t = t / 2 + t % 2;
    ++levels;
  }
  return levels;
}

}  // namespace

int drelu_rounds(int ring_bits) {
  // millionaire_gt: 2 sequential OT messages (receiver blinds, sender
  // masks), then one and_bits exchange per AND-tree combine level — the
  // level count comes from the same shape helper the protocol and the
  // static plan derivation use.
  return 2 + static_cast<int>(
                 crypto::millionaire_and_level_multipliers(ring_bits - 1).size());
}

OpCost ir_op_cost(const LatencyModel& m, const ir::Op& op, int ring_bits) {
  using ir::OpKind;
  switch (op.kind) {
    case OpKind::input:
    case OpKind::flatten:
      return OpCost{};
    case OpKind::batchnorm:
      return OpCost{};  // folded away by the pass pipeline
    case OpKind::conv:
    case OpKind::depthwise_conv: {
      OpCost c = m.conv(op.kernel, static_cast<long long>(op.out_h) * op.out_w, op.in_ch,
                        op.out_ch, op.input_elems(), op.kind == OpKind::depthwise_conv);
      c.rounds = 1;  // E and F coalesce into one exchange
      return c;
    }
    case OpKind::linear: {
      OpCost c = m.linear(op.in_features, op.out_features);
      c.rounds = 1;
      return c;
    }
    case OpKind::x2act: {
      OpCost c = m.x2act(op.input_elems());
      c.rounds = 1;  // one square-pair E opening; coefficient scaling is local
      return c;
    }
    case OpKind::relu: {
      OpCost c = m.relu(op.input_elems());
      // DReLU + B2A (one coalesced Beaver open) + mux multiply (one more).
      c.rounds = drelu_rounds(ring_bits) + 2;
      return c;
    }
    case OpKind::maxpool: {
      OpCost c = m.maxpool(op.input_elems());
      // Each tournament level is one batched secure max: DReLU + B2A + mux.
      c.rounds = tree_levels(op.kernel * op.kernel) * (drelu_rounds(ring_bits) + 2);
      return c;
    }
    case OpKind::avgpool:
    case OpKind::global_avgpool:
      return m.avgpool(op.input_elems());
    case OpKind::add:
      return m.add(op.output_elems());
    case OpKind::argmax: {
      // Tournament over the class entries: per level one DReLU + B2A + two
      // selector multiplies whose openings share one exchange.
      // Communication approximated with the relu flow over the widest
      // level (indices ride in the same exchanges).
      OpCost c = m.relu(op.in_features);
      c.rounds = tree_levels(op.in_features) * (drelu_rounds(ring_bits) + 2);
      return c;
    }
  }
  return OpCost{};
}

namespace {

/// Exact wire bytes of one DReLU over n values: the two OT messages
/// (8-byte blinded key per leaf instance; one 8-byte ephemeral sender key
/// plus kOtFanIn one-byte masked entries per leaf) and the AND tree's
/// per-level packed (d, e) bit opens, both directions.
std::uint64_t drelu_wire_bytes(std::uint64_t n, int ring_bits) {
  const auto digits = static_cast<std::uint64_t>(crypto::millionaire_digits(ring_bits - 1));
  const std::uint64_t leaves = n * digits;
  std::uint64_t bytes = leaves * 8            // receiver -> sender: blinded keys
                        + 8 + leaves * crypto::kOtFanIn;  // sender -> receiver
  for (const int mult : crypto::millionaire_and_level_multipliers(ring_bits - 1)) {
    // One AND over mult·n bits: the 2·mult·n masked (d, e) bits pack to a
    // byte boundary per stage, each direction.
    bytes += 2 * ((2 * static_cast<std::uint64_t>(mult) * n + 7) / 8);
  }
  return bytes;
}

/// One Beaver-multiply opening pair (E and F, n elements each, both
/// directions) at the modeled wire width.
std::uint64_t mul_open_wire_bytes(std::uint64_t n, std::uint64_t wire) {
  return 2 * 2 * n * wire;
}

/// DReLU + B2A multiply + mux multiply — the v·DReLU(v) flow of ReLU and
/// each max/argmax tournament level.
std::uint64_t drelu_mux_wire_bytes(std::uint64_t n, int ring_bits, std::uint64_t wire) {
  return drelu_wire_bytes(n, ring_bits) + 2 * mul_open_wire_bytes(n, wire);
}

}  // namespace

std::uint64_t ir_op_wire_bytes(const ir::Op& op, int ring_bits, int wire_bits) {
  using ir::OpKind;
  const auto wire = static_cast<std::uint64_t>((wire_bits + 7) / 8);
  switch (op.kind) {
    case OpKind::conv:
    case OpKind::depthwise_conv: {
      // E opens weight-shaped (nb), F input-shaped (na); both directions.
      const auto k2 = static_cast<std::uint64_t>(op.kernel) * op.kernel;
      const auto na = static_cast<std::uint64_t>(op.input_elems());
      const std::uint64_t nb = op.kind == OpKind::depthwise_conv
                                   ? static_cast<std::uint64_t>(op.in_ch) * k2
                                   : static_cast<std::uint64_t>(op.out_ch) * op.in_ch * k2;
      return 2 * wire * (na + nb);
    }
    case OpKind::linear:
      // W·xᵀ per query sample: E is weight-shaped (out·in), F input-shaped.
      return 2 * wire *
             (static_cast<std::uint64_t>(op.out_features) * op.in_features +
              static_cast<std::uint64_t>(op.in_features));
    case OpKind::x2act:
      // One square-pair E opening.
      return 2 * wire * static_cast<std::uint64_t>(op.input_elems());
    case OpKind::relu:
      return drelu_mux_wire_bytes(static_cast<std::uint64_t>(op.input_elems()), ring_bits,
                                  wire);
    case OpKind::maxpool: {
      const auto out_elems = static_cast<std::uint64_t>(op.output_elems());
      std::uint64_t bytes = 0;
      int taps = op.kernel * op.kernel;
      while (taps > 1) {
        const int pairs = taps / 2;
        bytes += drelu_mux_wire_bytes(static_cast<std::uint64_t>(pairs) * out_elems,
                                      ring_bits, wire);
        taps = pairs + taps % 2;
      }
      return bytes;
    }
    case OpKind::argmax: {
      // Per tournament level: DReLU on the value difference plus B2A and
      // the two selector multiplies (value and index).
      std::uint64_t bytes = 0;
      int entries = op.in_features;
      while (entries > 1) {
        const auto n = static_cast<std::uint64_t>(entries / 2);
        bytes += drelu_wire_bytes(n, ring_bits) + 3 * mul_open_wire_bytes(n, wire);
        entries = entries / 2 + entries % 2;
      }
      return bytes;
    }
    case OpKind::input:
    case OpKind::flatten:
    case OpKind::batchnorm:
    case OpKind::avgpool:
    case OpKind::global_avgpool:
    case OpKind::add:
      return 0;  // local ops move no protocol bytes
  }
  return 0;
}

namespace {

using crypto::RoundPhase;

/// Appends the phases one v·DReLU(v) pass waits on, in order: the OT leaf
/// dance, one bit opening per AND-tree level, then the B2A and mux ring
/// openings.
void append_drelu_mux_phases(std::vector<RoundPhase>& phases, int ring_bits) {
  phases.push_back(RoundPhase::ot);
  const std::size_t levels =
      crypto::millionaire_and_level_multipliers(ring_bits - 1).size();
  phases.insert(phases.end(), levels, RoundPhase::bits);
  phases.push_back(RoundPhase::opens);  // B2A
  phases.push_back(RoundPhase::opens);  // mux (argmax: value and index)
}

/// The phase stream of a staged comparison op: relu is one pass, maxpool
/// and argmax one pass per tournament level.
std::vector<RoundPhase> compare_phases(const ir::Op& op, int ring_bits) {
  int passes = 0;
  if (op.kind == ir::OpKind::relu) passes = 1;
  if (op.kind == ir::OpKind::maxpool) passes = tree_levels(op.kernel * op.kernel);
  if (op.kind == ir::OpKind::argmax) passes = tree_levels(op.in_features);
  std::vector<RoundPhase> phases;
  for (int i = 0; i < passes; ++i) append_drelu_mux_phases(phases, ring_bits);
  return phases;
}

struct GroupWalk {
  int rounds = 0;
  /// Bytes the group saves versus flushing each member alone: merging k
  /// pending OT batches into one flush ships one ephemeral sender key
  /// instead of k.
  std::uint64_t ot_merge_savings = 0;
};

/// Replays the executor's group walk over one round group with the
/// RoundBuffer's flush rule: each flush runs one phase — OT (2 rounds) if
/// any instance waits on it, else a bit opening (1 round), else a ring
/// opening (1 round; the single-round members' openings ride the first
/// one) — and advances the instances that waited on it.  Identical
/// comparisons therefore cost the same rounds whether the group holds one
/// instance or four thousand.
GroupWalk simulate_group_rounds(const std::vector<std::vector<RoundPhase>>& streams,
                                bool has_single_round_member) {
  std::vector<std::size_t> pos(streams.size(), 0);
  bool singles_pending = has_single_round_member;
  GroupWalk walk;
  for (;;) {
    std::uint64_t waiting[3] = {0, 0, 0};  // indexed by RoundPhase ot, bits, opens
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] < streams[i].size()) ++waiting[static_cast<int>(streams[i][pos[i]])];
    }
    RoundPhase ran = RoundPhase::done;
    if (waiting[0] > 0) {
      ran = RoundPhase::ot;
      walk.rounds += 2;
      walk.ot_merge_savings += 8 * (waiting[0] - 1);
    } else if (waiting[1] > 0) {
      ran = RoundPhase::bits;
      walk.rounds += 1;
    } else if (waiting[2] > 0 || singles_pending) {
      ran = RoundPhase::opens;
      walk.rounds += 1;
      singles_pending = false;
    } else {
      break;
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (pos[i] < streams[i].size() && streams[i][pos[i]] == ran) ++pos[i];
    }
  }
  return walk;
}

}  // namespace

ProgramCost profile_program(const LatencyModel& m, const ir::SecureProgram& p,
                            int ring_bits, int wire_bits, int batch) {
  ProgramCost pc;
  pc.per_op.reserve(p.ops.size());
  const auto lanes = static_cast<std::uint64_t>(batch < 1 ? 1 : batch);

  // Group composition: phase streams of the comparison members plus
  // whether single-round members ride along.  A batched run stages every
  // lane's instance into the same group, so each comparison contributes
  // `lanes` identical streams — the walk's rounds stay K-invariant while
  // the merged-OT savings grow with every extra lane.
  std::map<int, std::vector<std::vector<RoundPhase>>> group_streams;
  std::map<int, bool> group_has_single;
  for (const ir::Op& op : p.ops) {
    if (op.round_group < 0) continue;
    if (op.stages_compare()) {
      const std::vector<RoundPhase> phases = compare_phases(op, ring_bits);
      auto& streams = group_streams[op.round_group];
      for (std::uint64_t q = 0; q < lanes; ++q) streams.push_back(phases);
    } else if (op.stages_opens()) {
      group_streams[op.round_group];  // ensure the group exists
      group_has_single[op.round_group] = true;
    }
  }
  std::map<int, int> group_rounds;
  std::uint64_t ot_merge_savings = 0;
  for (const auto& [g, streams] : group_streams) {
    const GroupWalk walk = simulate_group_rounds(streams, group_has_single[g]);
    group_rounds[g] = walk.rounds;
    ot_merge_savings += walk.ot_merge_savings;
  }

  std::set<int> groups_counted;
  std::uint64_t per_op_wire_bytes = 0;  // every op flushed alone
  for (const ir::Op& op : p.ops) {
    OpCost c = ir_op_cost(m, op, ring_bits);
    if ((op.stages_opens() || op.stages_compare()) && op.round_group >= 0) {
      // The group's rounds are shared: its first member carries them, the
      // rest contribute zero.
      if (groups_counted.count(op.round_group) > 0) {
        c.rounds = 0;
      } else {
        groups_counted.insert(op.round_group);
        c.rounds = group_rounds[op.round_group];
      }
    }
    // per_op stays the single-lane figure (rounds already group-shared);
    // the total scales every additive field by the lane count.
    pc.per_op.push_back(c);
    OpCost scaled = c;
    scaled.cmp_s *= static_cast<double>(lanes);
    scaled.comm_s *= static_cast<double>(lanes);
    scaled.comm_bytes *= static_cast<double>(lanes);
    pc.total += scaled;
    per_op_wire_bytes += lanes * ir_op_wire_bytes(op, ring_bits, wire_bits);
  }
  pc.round_groups = static_cast<int>(groups_counted.size());
  // Terminal joint opening: all lanes' logits (or argmax indices) reveal
  // in ONE merged exchange.
  pc.total.rounds += 1;
  const auto wire = static_cast<std::uint64_t>((wire_bits + 7) / 8);
  const auto out_elems = static_cast<std::uint64_t>(
      p.output >= 0 ? p.ops[static_cast<std::size_t>(p.output)].output_elems() : 0);
  pc.total.comm_bytes +=
      2.0 * static_cast<double>(wire) * static_cast<double>(out_elems * lanes);
  per_op_wire_bytes += 2 * wire * out_elems * lanes;
  // Grouping moves the same openings and bit packs; only merged OT flushes
  // shed their extra ephemeral sender keys.
  pc.wire_bytes = per_op_wire_bytes - ot_merge_savings;
  return pc;
}

OfflinePhaseCost profile_offline_phase(const ir::SecureProgram& program,
                                       const crypto::RingConfig& ring, int batch) {
  const offline::PreprocessingPlan plan = ir::derive_plan(program, ring);
  const auto lanes = static_cast<std::size_t>(batch < 0 ? 0 : batch);
  const offline::OtExtCost ot = offline::ot_ext_generation_cost(plan, lanes);
  OfflinePhaseCost c;
  c.ot_ext_wire_bytes = ot.total_bytes();
  c.ot_ext_rounds = ot.rounds;
  c.ot_ext_messages = ot.messages;
  c.base_ots = ot.base_ots;
  c.ext_cots = ot.ext_cots;
  c.store_bytes_shipped = plan.material_bytes_per_query() * lanes;
  c.material_elems = plan.material_elems_per_query() * lanes;
  c.bit_triples = plan.bit_triples_per_query() * lanes;
  return c;
}

}  // namespace pasnet::perf
