// Whole-program assembly: builds the global-memory image (pre-tiled weights,
// biases, LUTs, activation tensors), wires inter-core transfers, builds and
// lowers every per-core kernel, and stitches stage barriers — producing the
// executable isa::Program (paper Fig. 4 "Inter-core Scheduling" + "Code
// Generation").
#include <algorithm>
#include <map>
#include <set>

#include "cimflow/compiler/compiler.hpp"
#include "cimflow/compiler/cost_model.hpp"
#include "cimflow/compiler/lower.hpp"
#include "cimflow/compiler/oplevel.hpp"
#include "cimflow/support/logging.hpp"
#include "cimflow/support/numeric.hpp"
#include "cimflow/support/status.hpp"
#include "cimflow/support/strings.hpp"
#include "cimflow/support/trace.hpp"

namespace cimflow::compiler {
namespace {

using graph::GroupId;
using graph::NodeId;

class ProgramAssembler {
 public:
  ProgramAssembler(const graph::CondensedGraph& cg, const arch::ArchConfig& arch,
                   const MappingPlan& plan, const CompileOptions& opt)
      : cg_(&cg), arch_(&arch), plan_(&plan), opt_(&opt) {}

  CompileResult run();

 private:
  // --- tensor identity -------------------------------------------------------

  /// Resolves layout no-ops: a Flatten node's tensor IS its input's tensor.
  NodeId effective(NodeId node) const {
    const graph::Node& n = cg_->source().node(node);
    if (n.kind == graph::OpKind::kFlatten) return effective(n.inputs.at(0));
    return node;
  }

  /// The node whose tensor a group exports (must be unique).
  NodeId exported_node(const graph::Group& group) const {
    return effective(group.nodes.back());
  }

  const graph::Shape& tensor_shape(NodeId node) const {
    return cg_->source().node(node).out_shape;
  }

  // --- phases ------------------------------------------------------------------

  void check_single_export() const;
  void place_tensors();
  void build_weight_images();
  void emit_programs();

  // --- helpers -----------------------------------------------------------------

  void write_image(std::int64_t offset, const std::uint8_t* data, std::int64_t len) {
    if (!opt_->materialize_data) return;
    if (static_cast<std::int64_t>(image_.size()) < offset + len) {
      image_.resize(static_cast<std::size_t>(offset + len), 0);
    }
    std::copy(data, data + len, image_.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  std::int32_t next_tag(std::int64_t src_core, std::int64_t dst_core) {
    std::int32_t& counter = tag_counters_[{src_core, dst_core}];
    if (counter >= 1023) {
      raise(ErrorCode::kCapacityExceeded, "NoC tag space exhausted for core pair");
    }
    return counter++;
  }

  struct Region {
    std::int64_t row0 = 0, row1 = 0, ch0 = 0, ch1 = 0;
    bool empty() const { return row0 >= row1 || ch0 >= ch1; }
  };

  /// Rows/channels of the producer tensor a consumer core needs for `edge`.
  Region needed_region(const graph::Group& consumer, const GroupMapping& cm,
                       std::int64_t replica, std::int64_t lane, NodeId member,
                       bool primary, const graph::Shape& tensor) const;

  /// Rows/channels of its tensor one producer core holds.
  Region produced_region(const graph::Group& producer, const GroupMapping& pm,
                         std::int64_t replica, std::int64_t lane) const;

  std::pair<std::int64_t, std::int64_t> vector_channel_range(
      const GroupMapping& m, std::int64_t lane, std::int64_t channels) const {
    if (m.geom.valid) {
      GroupMapping copy = m;
      return copy.channel_range(lane, *arch_);
    }
    const std::int64_t per = ceil_div(channels, m.cores_per_replica);
    const std::int64_t c0 = std::min(channels, lane * per);
    return {c0, std::min(channels, c0 + per)};
  }

  const graph::CondensedGraph* cg_;
  const arch::ArchConfig* arch_;
  const MappingPlan* plan_;
  const CompileOptions* opt_;

  GlobalLayout layout_;
  std::vector<std::uint8_t> image_;
  std::map<std::pair<std::int64_t, std::int64_t>, std::int32_t> tag_counters_;

  // Per (group, lane): resident/streamed weight tiles and bias placement.
  std::map<std::pair<GroupId, std::int64_t>, std::vector<WeightTileRef>> tiles_;
  std::map<std::pair<GroupId, std::int64_t>, std::int64_t> bias_offsets_;
  std::map<GroupId, std::int64_t> lut_offsets_;

  std::int64_t weight_image_bytes_ = 0;
};

void ProgramAssembler::check_single_export() const {
  for (const graph::Group& group : cg_->groups()) {
    if (group.is_input) continue;
    const NodeId exported = exported_node(group);
    for (NodeId member : group.nodes) {
      if (effective(member) == exported) continue;
      const graph::Node& node = cg_->source().node(member);
      for (NodeId user : node.users) {
        if (cg_->group_of(user) != group.id &&
            cg_->source().node(user).kind != graph::OpKind::kFlatten) {
          raise(ErrorCode::kUnsupported,
                "group " + group.name + " exports more than one tensor (" +
                    node.name + ")");
        }
      }
      if (member == cg_->source().output() && member != group.nodes.back()) {
        raise(ErrorCode::kUnsupported,
              "graph output is an interior node of group " + group.name);
      }
    }
  }
}

void ProgramAssembler::place_tensors() {
  for (const graph::Group& group : cg_->groups()) {
    const NodeId exported =
        group.is_input ? group.nodes.front() : exported_node(group);
    layout_.place_tensor(exported, tensor_shape(exported).per_image(), opt_->batch);
  }
}

void ProgramAssembler::build_weight_images() {
  for (const StagePlan& stage : plan_->stages) {
    for (GroupId gid : stage.groups) {
      const graph::Group& group = cg_->group(gid);
      const GroupMapping& m = stage.mappings.at(gid);
      if (!m.geom.valid) continue;
      const graph::Node& anchor = cg_->source().node(group.anchor);
      const std::int64_t mg_rows = arch_->mg_rows();
      const std::int64_t mg_cols = arch_->mg_cols();
      const std::int64_t mg = arch_->core().mg_per_unit;
      const std::vector<std::int8_t>& w = *anchor.weights;

      for (std::int64_t lane = 0; lane < m.cores_per_replica; ++lane) {
        GroupMapping probe = m;
        const auto [ct0, ct1] = probe.col_tile_range(lane);
        std::vector<WeightTileRef>& refs = tiles_[{gid, lane}];
        std::int64_t slot = 0;
        for (std::int64_t ct = ct0; ct < ct1; ++ct) {
          if (m.geom.depthwise) {
            const std::int64_t taps = anchor.conv().kernel * anchor.conv().kernel;
            const std::int64_t c0 = ct * m.geom.dw_block;
            const std::int64_t chans = std::min(m.geom.dw_block, m.geom.k_cols - c0);
            WeightTileRef ref;
            ref.rows = taps * chans;
            ref.cols = chans;
            ref.macs = taps * chans;
            ref.row_tile = 0;
            ref.col_tile = ct;
            ref.mg_slot = slot % mg;
            ref.pass = slot / mg;
            ++slot;
            ref.global_offset = layout_.reserve(ref.rows * ref.cols);
            if (opt_->materialize_data) {
              std::vector<std::uint8_t> tile(
                  static_cast<std::size_t>(ref.rows * ref.cols), 0);
              for (std::int64_t j = 0; j < chans; ++j) {
                for (std::int64_t t = 0; t < taps; ++t) {
                  const std::int64_t row = t * chans + j;
                  tile[static_cast<std::size_t>(row * ref.cols + j)] =
                      static_cast<std::uint8_t>(w[static_cast<std::size_t>(
                          (c0 + j) * taps + t)]);
                }
              }
              write_image(ref.global_offset, tile.data(),
                          static_cast<std::int64_t>(tile.size()));
            }
            weight_image_bytes_ += ref.rows * ref.cols;
            refs.push_back(ref);
            continue;
          }
          for (std::int64_t rt = 0; rt < m.geom.row_tiles; ++rt) {
            WeightTileRef ref;
            ref.rows = std::min(mg_rows, m.geom.k_rows - rt * mg_rows);
            ref.cols = std::min(mg_cols, m.geom.k_cols - ct * mg_cols);
            ref.macs = ref.rows * ref.cols;
            ref.row_tile = rt;
            ref.col_tile = ct;
            ref.mg_slot = slot % mg;
            ref.pass = slot / mg;
            ++slot;
            ref.global_offset = layout_.reserve(ref.rows * ref.cols);
            if (opt_->materialize_data) {
              // Conv weights are [k][r][s][c] and FC weights [k][i]: either
              // way weight row k is laid out in im2col row order, so tile
              // element (i, j) is W[ct * mg_cols + j][rt * mg_rows + i].
              std::vector<std::uint8_t> tile(
                  static_cast<std::size_t>(ref.rows * ref.cols));
              for (std::int64_t j = 0; j < ref.cols; ++j) {
                const std::int8_t* column =
                    w.data() + (ct * mg_cols + j) * m.geom.k_rows + rt * mg_rows;
                for (std::int64_t i = 0; i < ref.rows; ++i) {
                  tile[static_cast<std::size_t>(i * ref.cols + j)] =
                      static_cast<std::uint8_t>(column[i]);
                }
              }
              write_image(ref.global_offset, tile.data(),
                          static_cast<std::int64_t>(tile.size()));
            }
            weight_image_bytes_ += ref.rows * ref.cols;
            refs.push_back(ref);
          }
        }
        // Non-FC kernels must keep every tile resident.
        if (anchor.kind != graph::OpKind::kFullyConnected) {
          for (const WeightTileRef& ref : refs) {
            CIMFLOW_CHECK(ref.pass == 0, "conv tiles exceed macro groups per core");
          }
        }
        // Bias slice for this lane.
        if (anchor.bias) {
          const auto [k0, k1] = probe.channel_range(lane, *arch_);
          const std::int64_t bytes = (k1 - k0) * 4;
          const std::int64_t offset = layout_.reserve(bytes);
          bias_offsets_[{gid, lane}] = offset;
          if (opt_->materialize_data) {
            std::vector<std::uint8_t> blob(static_cast<std::size_t>(bytes));
            for (std::int64_t k = k0; k < k1; ++k) {
              const std::uint32_t v = static_cast<std::uint32_t>(
                  (*anchor.bias)[static_cast<std::size_t>(k)]);
              for (int b = 0; b < 4; ++b) {
                blob[static_cast<std::size_t>((k - k0) * 4 + b)] =
                    static_cast<std::uint8_t>((v >> (8 * b)) & 0xFF);
              }
            }
            write_image(offset, blob.data(), bytes);
          }
        }
      }
      // LUT table (at most one distinct table per group).
      const std::array<std::int8_t, 256>* table = nullptr;
      for (NodeId member : group.nodes) {
        const graph::Node& node = cg_->source().node(member);
        if (node.kind != graph::OpKind::kLut) continue;
        if (table != nullptr && !(node.lut().table == *table)) {
          raise(ErrorCode::kUnsupported,
                "group " + group.name + " fuses two distinct LUTs");
        }
        table = &node.lut().table;
      }
      if (table != nullptr) {
        const std::int64_t offset = layout_.reserve(256);
        lut_offsets_[gid] = offset;
        write_image(offset, reinterpret_cast<const std::uint8_t*>(table->data()), 256);
      }
    }
  }
}

ProgramAssembler::Region ProgramAssembler::needed_region(
    const graph::Group& consumer, const GroupMapping& cm, std::int64_t replica,
    std::int64_t lane, NodeId member, bool primary,
    const graph::Shape& tensor) const {
  GroupMapping m = cm;  // non-const copy for the helper accessors
  Region region;
  const graph::Node& first = cg_->source().node(consumer.nodes.front());
  const auto [p0, p1] = m.stripe(replica);
  if (!primary) {
    const graph::Node& node = cg_->source().node(member);
    if (node.kind == graph::OpKind::kScaleChannels) {
      region.row0 = 0;
      region.row1 = tensor.h;
    } else {  // residual add at the consumer's own stripe
      region.row0 = p0;
      region.row1 = p1;
    }
    const auto [c0, c1] = vector_channel_range(m, lane, tensor.c);
    region.ch0 = c0;
    region.ch1 = c1;
    return region;
  }
  std::int64_t kernel = 1, stride = 1, pad = 0;
  bool slice_channels = false;
  switch (first.kind) {
    case graph::OpKind::kConv2d:
    case graph::OpKind::kDepthwiseConv2d: {
      kernel = first.conv().kernel;
      stride = first.conv().stride;
      pad = first.conv().pad;
      break;
    }
    case graph::OpKind::kMaxPool:
    case graph::OpKind::kAvgPool: {
      kernel = first.pool().kernel;
      stride = first.pool().stride;
      pad = first.pool().pad;
      slice_channels = true;
      break;
    }
    default:
      // FC / GAP: whole tensor.
      region.row0 = 0;
      region.row1 = tensor.h;
      region.ch0 = 0;
      region.ch1 = tensor.c;
      return region;
  }
  region.row0 = std::max<std::int64_t>(0, p0 * stride - pad);
  region.row1 = std::min(tensor.h, (p1 - 1) * stride - pad + kernel);
  if (slice_channels) {
    const auto [c0, c1] = vector_channel_range(m, lane, tensor.c);
    region.ch0 = c0;
    region.ch1 = c1;
  } else {
    region.ch0 = 0;
    region.ch1 = tensor.c;
  }
  return region;
}

ProgramAssembler::Region ProgramAssembler::produced_region(
    const graph::Group& producer, const GroupMapping& pm, std::int64_t replica,
    std::int64_t lane) const {
  GroupMapping m = pm;
  Region region;
  const auto [p0, p1] = m.stripe(replica);
  region.row0 = p0;
  region.row1 = p1;
  const graph::Shape out = tensor_shape(exported_node(producer));
  const auto [c0, c1] = vector_channel_range(m, lane, out.c);
  region.ch0 = c0;
  region.ch1 = c1;
  return region;
}

CompileResult ProgramAssembler::run() {
  {
    // Tensor placement + weight tiling into per-macro-group images.
    CIMFLOW_TRACE_SPAN("compile.tiling");
    check_single_export();
    place_tensors();
    build_weight_images();
  }
  CIMFLOW_TRACE_SPAN("compile.codegen");

  const std::int64_t core_count = arch_->chip().core_count;
  std::vector<CodeBuilder> builders;
  builders.reserve(static_cast<std::size_t>(core_count));
  for (std::int64_t i = 0; i < core_count; ++i) builders.emplace_back(*arch_);

  for (std::size_t stage_idx = 0; stage_idx < plan_->stages.size(); ++stage_idx) {
    const StagePlan& stage = plan_->stages[stage_idx];

    // ---- Wire all edges of this stage ------------------------------------
    // recv side: (consumer group, member-or-(-1 for primary), core) -> chunks
    std::map<std::tuple<GroupId, NodeId, std::int64_t>, std::vector<DirectChunk>>
        recv_chunks;
    std::map<std::tuple<GroupId, NodeId, std::int64_t>, std::vector<DirectChunk>>
        recv_bells;
    std::map<std::int64_t, std::vector<DirectChunk>> send_chunks;  // by producer core
    std::map<std::int64_t, std::vector<DirectChunk>> send_bells;

    auto wire_edge = [&](const graph::Group& consumer, const GroupMapping& cm,
                         NodeId member, bool primary, NodeId producer_node) {
      const GroupId pg = cg_->group_of(producer_node);
      const graph::Group& producer = cg_->group(pg);
      if (producer.is_input || !stage.contains(pg)) return;  // global, no bells needed
      const auto mode_it = stage.edge_modes.find({pg, consumer.id});
      const TransferMode mode =
          mode_it != stage.edge_modes.end() ? mode_it->second : TransferMode::kGlobal;
      const GroupMapping& pm = stage.mappings.at(pg);
      const graph::Shape tensor = tensor_shape(exported_node(producer));
      for (std::int64_t rc = 0; rc < cm.replicas; ++rc) {
        for (std::int64_t jc = 0; jc < cm.cores_per_replica; ++jc) {
          const std::int64_t ccore = cm.core_at(rc, jc);
          const Region need = needed_region(consumer, cm, rc, jc, member, primary, tensor);
          for (std::int64_t rp = 0; rp < pm.replicas; ++rp) {
            for (std::int64_t jp = 0; jp < pm.cores_per_replica; ++jp) {
              const std::int64_t pcore = pm.core_at(rp, jp);
              if (mode == TransferMode::kGlobal) {
                // Doorbell: one token per producer core per image.
                DirectChunk bell;
                bell.peer_core = pcore;
                bell.tag = next_tag(pcore, ccore);
                recv_bells[{consumer.id, member, ccore}].push_back(bell);
                DirectChunk sbell = bell;
                sbell.peer_core = ccore;
                send_bells[pcore].push_back(sbell);
                continue;
              }
              const Region have = produced_region(producer, pm, rp, jp);
              Region chunk;
              chunk.row0 = std::max(need.row0, have.row0);
              chunk.row1 = std::min(need.row1, have.row1);
              chunk.ch0 = std::max(need.ch0, have.ch0);
              chunk.ch1 = std::min(need.ch1, have.ch1);
              if (chunk.empty()) continue;
              DirectChunk dc;
              dc.peer_core = pcore;
              dc.row0 = chunk.row0;
              dc.row1 = chunk.row1;
              dc.ch0 = chunk.ch0;
              dc.ch1 = chunk.ch1;
              dc.tag = next_tag(pcore, ccore);
              recv_chunks[{consumer.id, member, ccore}].push_back(dc);
              DirectChunk sc = dc;
              sc.peer_core = ccore;
              send_chunks[pcore].push_back(sc);
            }
          }
        }
      }
    };

    for (GroupId gid : stage.groups) {
      const graph::Group& consumer = cg_->group(gid);
      const GroupMapping& cm = stage.mappings.at(gid);
      const graph::Node& first = cg_->source().node(consumer.nodes.front());
      wire_edge(consumer, cm, -1, /*primary=*/true, effective(first.inputs.at(0)));
      for (NodeId member : consumer.nodes) {
        const graph::Node& node = cg_->source().node(member);
        if (member == consumer.nodes.front()) continue;
        for (NodeId input : node.inputs) {
          if (cg_->group_of(input) == gid) continue;
          wire_edge(consumer, cm, member, /*primary=*/false, effective(input));
        }
      }
    }

    // ---- Build + lower each core's kernel --------------------------------
    for (GroupId gid : stage.groups) {
      const graph::Group& group = cg_->group(gid);
      const GroupMapping& m = stage.mappings.at(gid);
      const graph::Node& first = cg_->source().node(group.nodes.front());
      const NodeId primary_node = effective(first.inputs.at(0));
      const GroupId primary_group = cg_->group_of(primary_node);

      // Does this group's output go to global memory?
      bool write_global = (exported_node(group) == effective(cg_->source().output()));
      for (GroupId succ : group.succs) {
        const auto it = stage.edge_modes.find({gid, succ});
        if (it == stage.edge_modes.end() || it->second == TransferMode::kGlobal) {
          write_global = true;
        }
      }
      if (group.succs.empty()) write_global = true;

      for (std::int64_t r = 0; r < m.replicas; ++r) {
        for (std::int64_t j = 0; j < m.cores_per_replica; ++j) {
          const std::int64_t core = m.core_at(r, j);
          KernelContext ctx;
          ctx.cg = cg_;
          ctx.arch = arch_;
          ctx.group = gid;
          ctx.mapping = m;
          ctx.replica = r;
          ctx.lane = j;
          ctx.core_id = core;
          ctx.batch = opt_->batch;
          ctx.annotate_memory = opt_->hoist_memory;
          if (auto it = tiles_.find({gid, j}); it != tiles_.end()) ctx.tiles = it->second;
          if (auto it = bias_offsets_.find({gid, j}); it != bias_offsets_.end()) {
            ctx.bias_global = it->second;
          }
          if (auto it = lut_offsets_.find(gid); it != lut_offsets_.end()) {
            ctx.lut_global = it->second;
          }

          // Primary input.
          {
            EdgeSource& edge = ctx.primary;
            const graph::Shape t = tensor_shape(primary_node);
            edge.tensor_h = t.h;
            edge.tensor_w = t.w;
            edge.tensor_c = t.c;
            edge.placement = layout_.tensor(primary_node);
            auto rc = recv_chunks.find({gid, -1, core});
            if (rc != recv_chunks.end() && !rc->second.empty()) {
              edge.direct = true;
              edge.style = InputStyle::kDirectWindow;
              edge.chunks = rc->second;
            } else {
              edge.direct = false;
              // Prefetch when the window fits the direct-in budget.
              const BufferBudget budget = buffer_budget(*arch_);
              const std::int64_t window =
                  consumer_window_bytes(*cg_, group, m, *arch_);
              edge.style = window <= budget.direct_in_limit
                               ? InputStyle::kGlobalPrefetch
                               : InputStyle::kGlobalRowWindow;
              if (auto rb = recv_bells.find({gid, -1, core}); rb != recv_bells.end()) {
                edge.doorbells = rb->second;
              }
            }
            // Intra-stage direct edges only exist when the mode says so; an
            // empty chunk list with a direct mode means this core needs no
            // data (possible for extreme striping) — keep it global-free.
            if (primary_group >= 0 && !cg_->group(primary_group).is_input &&
                stage.contains(primary_group)) {
              const auto mode_it = stage.edge_modes.find({primary_group, gid});
              if (mode_it != stage.edge_modes.end() &&
                  mode_it->second == TransferMode::kDirect) {
                edge.direct = true;
                edge.style = InputStyle::kDirectWindow;
              }
            }
          }

          // Secondary inputs.
          for (NodeId member : group.nodes) {
            const graph::Node& node = cg_->source().node(member);
            if (member == group.nodes.front()) continue;
            for (NodeId input : node.inputs) {
              if (cg_->group_of(input) == gid) continue;
              EdgeSource edge;
              const NodeId src = effective(input);
              const graph::Shape t = tensor_shape(src);
              edge.tensor_h = t.h;
              edge.tensor_w = t.w;
              edge.tensor_c = t.c;
              edge.placement = layout_.tensor(src);
              const GroupId sg = cg_->group_of(src);
              if (stage.contains(sg)) {
                const auto mode_it = stage.edge_modes.find({sg, gid});
                edge.direct = mode_it != stage.edge_modes.end() &&
                              mode_it->second == TransferMode::kDirect;
              }
              if (auto rc = recv_chunks.find({gid, member, core});
                  rc != recv_chunks.end()) {
                edge.chunks = rc->second;
              }
              if (auto rb = recv_bells.find({gid, member, core});
                  rb != recv_bells.end()) {
                edge.doorbells = rb->second;
              }
              ctx.secondary.emplace(member, std::move(edge));
            }
          }

          // Output side.
          ctx.write_global_out = write_global;
          ctx.out_placement = layout_.tensor(exported_node(group));
          if (auto sc = send_chunks.find(core); sc != send_chunks.end()) {
            ctx.direct_out = sc->second;
          }
          if (auto sb = send_bells.find(core); sb != send_bells.end()) {
            ctx.out_doorbells = sb->second;
          }

          // Build IR, run the OP-level pipeline, lower into this core.
          // One compile.lower span per emitted kernel, nested inside
          // compile.codegen (phase_timings counts both).
          CIMFLOW_TRACE_SPAN("compile.lower");
          SegmentPlanner segments(*arch_);
          ctx.segments = &segments;
          ir::Module module;
          module.name = strprintf("stage%zu", stage_idx);
          module.funcs.push_back(build_kernel(ctx));
          oplevel_pipeline(opt_->hoist_memory).run(module);
          CodeBuilder& builder = builders[static_cast<std::size_t>(core)];
          builder.clear_caches();  // keep constant live ranges kernel-local
          lower_func(module.funcs.front(), segments, builder);
          builder.clear_caches();
        }
      }
    }

    // ---- Stage barrier on every core --------------------------------------
    for (std::int64_t core = 0; core < core_count; ++core) {
      builders[static_cast<std::size_t>(core)].barrier(
          static_cast<std::int32_t>(stage_idx));
    }
  }

  // ---- Finalize ------------------------------------------------------------
  CompileResult result;
  result.plan = *plan_;
  result.program = isa::Program(core_count);
  const SegmentPlanner reference(*arch_);
  const std::int64_t spill_base = reference.offset("spill");
  for (std::int64_t core = 0; core < core_count; ++core) {
    CodeBuilder& b = builders[static_cast<std::size_t>(core)];
    b.halt();
    result.program.cores[static_cast<std::size_t>(core)].code =
        b.finalize(spill_base);
    const std::int64_t words = static_cast<std::int64_t>(
        result.program.cores[static_cast<std::size_t>(core)].size());
    if (words > arch_->core().instr_mem_words) {
      raise(ErrorCode::kCapacityExceeded,
            strprintf("core %lld program (%lld words) exceeds instruction memory",
                      (long long)core, (long long)words));
    }
  }

  const NodeId input_node = cg_->source().inputs().front();
  const NodeId output_node = effective(cg_->source().output());
  result.program.input_global_offset =
      static_cast<std::uint32_t>(layout_.tensor(input_node).base);
  result.program.input_bytes_per_image = layout_.tensor(input_node).per_image;
  result.program.output_global_offset =
      static_cast<std::uint32_t>(layout_.tensor(output_node).base);
  result.program.output_bytes_per_image = layout_.tensor(output_node).per_image;
  result.program.batch = opt_->batch;
  result.program.barrier_count = static_cast<std::int64_t>(plan_->stages.size());
  if (opt_->materialize_data) {
    image_.resize(static_cast<std::size_t>(layout_.total_bytes()), 0);
    result.program.global_image = std::move(image_);
  }

  result.stats.stages = static_cast<std::int64_t>(plan_->stages.size());
  result.stats.total_instructions = result.program.total_instructions();
  result.stats.global_bytes = layout_.total_bytes();
  result.stats.weight_image_bytes = weight_image_bytes_;
  result.stats.estimated_cycles = plan_->estimated_cycles;
  return result;
}

}  // namespace

CompileResult compile(const graph::Graph& graph, const arch::ArchConfig& arch,
                      const CompileOptions& options) {
  graph.verify();
  const graph::CondensedGraph cg = [&] {
    // Graph partitioning: condense the DNN into closure groups.
    CIMFLOW_TRACE_SPAN("compile.partition");
    return graph::CondensedGraph::build(graph);
  }();
  const MappingPlan plan = [&] {
    // CG-level partitioning + macro-group/core mapping.
    CIMFLOW_TRACE_SPAN("compile.mapping");
    return plan_mapping(cg, arch, options.strategy, options.batch);
  }();
  ProgramAssembler assembler(cg, arch, plan, options);
  CompileResult result = assembler.run();
  CIMFLOW_INFO() << graph.name() << " compiled with strategy '" << result.plan.strategy
                 << "': " << result.stats.stages << " stage(s), "
                 << result.stats.total_instructions << " instructions";
  return result;
}

}  // namespace cimflow::compiler
