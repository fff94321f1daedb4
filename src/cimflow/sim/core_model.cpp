#include "cimflow/sim/core_model.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "cimflow/sim/kernels.hpp"
#include "cimflow/support/logging.hpp"
#include "cimflow/support/numeric.hpp"
#include "cimflow/support/status.hpp"
#include "cimflow/support/strings.hpp"

namespace cimflow::sim {

using isa::Opcode;
using isa::ScalarFunct;
using isa::SReg;
using isa::VecFunct;

namespace {

constexpr std::int64_t kGranuleBytes = 256;
constexpr std::int64_t kBranchRedirect = 1;  ///< extra cycles after a taken branch

std::int64_t sreg_i(const std::array<std::int32_t, 32>& sregs, SReg r) {
  return sregs[static_cast<std::size_t>(r)];
}

}  // namespace

/// CustomExecContext adapter for user-registered instructions (core-local
/// state only, so custom callbacks stay safe under the parallel scheduler).
struct CoreModel::CustomCtx final : isa::CustomExecContext {
  CoreModel* core = nullptr;
  std::int32_t reg(std::uint8_t index) const override { return core->regs_[index & 31]; }
  void set_reg(std::uint8_t index, std::int32_t value) override {
    core->regs_[index & 31] = value;
  }
  std::int32_t sreg(std::uint8_t index) const override { return core->sregs_[index & 31]; }
  std::uint8_t load_byte(std::uint32_t local_offset) const override {
    return core->load_u8(isa::make_local_address(local_offset));
  }
  void store_byte(std::uint32_t local_offset, std::uint8_t value) override {
    core->store_u8(isa::make_local_address(local_offset), value);
  }
  std::int64_t core_id() const override { return core->id; }
};

void CoreModel::reset(const CoreContext& context, std::int64_t core_id,
                      const std::vector<isa::Instruction>* code) {
  ctx_ = context;
  kt_ = ctx_.kernels != nullptr
            ? ctx_.kernels
            : &kernels::kernel_table(kernels::KernelTier::kScalar);
  id = core_id;
  code_ = code;
  dcode_ = ctx_.decoded->core(core_id).data();
  code_size_ = static_cast<std::int64_t>(code_->size());
  pc = 0;
  next_fetch = 0;
  status = code_->empty() ? Status::kHalted : Status::kReady;

  outbox.clear();
  pending_global.reset();
  global_resolution.reset();
  inbox.clear();
  recv_key = {0, 0};
  barrier_tag = 0;
  barrier_issue = 0;
  stats = CoreStats{};
  energy = EnergyBreakdown{};
  mvm_count = 0;
  total_macs = 0;
  run_steps = 0;

  last_issue_ = -1;
  reg_ready_.fill(0);
  mg_free_.assign(static_cast<std::size_t>(ctx_.arch->core().mg_per_unit), 0);
  vec_free_ = 0;
  scalar_free_ = 0;
  transfer_free_ = 0;
  regs_.fill(0);
  sregs_.fill(0);
  lmem_.reset_zeroed(static_cast<std::size_t>(ctx_.arch->core().local_mem_bytes));
  mg_tile_elems_ = ctx_.arch->mg_rows() * ctx_.arch->mg_cols();
  if (ctx_.options->functional) {
    mg_weights_.reset_zeroed(
        static_cast<std::size_t>(ctx_.arch->core().mg_per_unit * mg_tile_elems_));
  } else {
    mg_weights_.clear();
  }
  for (AlignedBuffer<std::uint8_t>& buffer : bounce_) buffer.clear();
  mvm_row_.clear();
  row_scratch_.clear();
  gr_write_.assign(
      static_cast<std::size_t>(ceil_div(ctx_.arch->core().local_mem_bytes, kGranuleBytes)),
      0);
  gr_read_ = gr_write_;
  request_seq_ = 0;
}

void CoreModel::fail(const std::string& what) const {
  raise(ErrorCode::kInternal,
        what + strprintf("\n  core %lld: pc=%lld time=%lld status=%d\n", (long long)id,
                         (long long)pc, (long long)next_fetch, static_cast<int>(status)));
}

// ============================================================================
// memory routing
// ============================================================================

void CoreModel::check_span(std::uint32_t addr, std::int64_t len) {
  if (isa::is_local_address(addr)) {
    const std::uint32_t off = isa::local_offset(addr);
    if (off + static_cast<std::uint64_t>(len) > lmem_.size()) {
      fail(strprintf("core %lld local access out of range: off=%u len=%lld",
                     (long long)id, off, (long long)len));
    }
  } else if (addr + static_cast<std::uint64_t>(len) >
             static_cast<std::uint64_t>(ctx_.global->size())) {
    fail(strprintf("global access out of range: addr=%u len=%lld", addr, (long long)len));
  }
}

std::uint8_t CoreModel::load_u8(std::uint32_t addr) {
  check_span(addr, 1);
  if (isa::is_local_address(addr)) return lmem_[isa::local_offset(addr)];
  return ctx_.global->load_u8(addr);
}

void CoreModel::store_u8(std::uint32_t addr, std::uint8_t value) {
  check_span(addr, 1);
  if (isa::is_local_address(addr)) {
    lmem_[isa::local_offset(addr)] = value;
  } else {
    ctx_.global->store_u8(addr, value);
  }
}

std::int32_t CoreModel::read_i32(std::uint32_t addr) {
  check_span(addr, 4);
  std::uint8_t raw[4];
  if (isa::is_local_address(addr)) {
    std::memcpy(raw, lmem_.data() + isa::local_offset(addr), 4);
  } else {
    ctx_.global->read_bytes(addr, 4, raw);
  }
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(raw[i]) << (8 * i);
  return static_cast<std::int32_t>(v);
}

void CoreModel::write_i32(std::uint32_t addr, std::int32_t value) {
  check_span(addr, 4);
  std::uint8_t raw[4];
  const std::uint32_t v = static_cast<std::uint32_t>(value);
  for (int i = 0; i < 4; ++i) raw[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
  if (isa::is_local_address(addr)) {
    std::memcpy(lmem_.data() + isa::local_offset(addr), raw, 4);
  } else {
    ctx_.global->write_bytes(addr, raw, 4);
  }
}

void CoreModel::copy_bytes(std::uint32_t dst, std::uint32_t src, std::int64_t len) {
  if (len <= 0) return;
  check_span(src, len);
  check_span(dst, len);
  const bool src_local = isa::is_local_address(src);
  const bool dst_local = isa::is_local_address(dst);
  if (src_local && dst_local) {
    std::memmove(lmem_.data() + isa::local_offset(dst),
                 lmem_.data() + isa::local_offset(src), static_cast<std::size_t>(len));
  } else if (src_local) {
    ctx_.global->write_bytes(dst, lmem_.data() + isa::local_offset(src), len);
  } else if (dst_local) {
    ctx_.global->read_bytes(src, len, lmem_.data() + isa::local_offset(dst));
  } else {
    // Global-to-global bounces through the core scratch so overlapping
    // regions keep memmove semantics.
    std::uint8_t* bounce = gather(src, len, kSlotA);
    ctx_.global->write_bytes(dst, bounce, len);
  }
}

std::int64_t CoreModel::mem_dep_start(std::uint32_t addr, std::int64_t len,
                                      bool is_write, std::int64_t start) const {
  if (!isa::is_local_address(addr) || len <= 0) return start;
  const std::int64_t g0 = isa::local_offset(addr) / kGranuleBytes;
  const std::int64_t g1 =
      std::min<std::int64_t>(static_cast<std::int64_t>(gr_write_.size()) - 1,
                             (isa::local_offset(addr) + len - 1) / kGranuleBytes);
  for (std::int64_t g = g0; g <= g1; ++g) {
    start = std::max(start, gr_write_[static_cast<std::size_t>(g)]);
    if (is_write) start = std::max(start, gr_read_[static_cast<std::size_t>(g)]);
  }
  return start;
}

void CoreModel::mem_dep_finish(std::uint32_t addr, std::int64_t len, bool is_write,
                               std::int64_t done) {
  if (!isa::is_local_address(addr) || len <= 0) return;
  const std::int64_t g0 = isa::local_offset(addr) / kGranuleBytes;
  const std::int64_t g1 =
      std::min<std::int64_t>(static_cast<std::int64_t>(gr_write_.size()) - 1,
                             (isa::local_offset(addr) + len - 1) / kGranuleBytes);
  for (std::int64_t g = g0; g <= g1; ++g) {
    auto& slot = is_write ? gr_write_[static_cast<std::size_t>(g)]
                          : gr_read_[static_cast<std::size_t>(g)];
    slot = std::max(slot, done);
  }
}

// ============================================================================
// functional kernels — one path per op
// ============================================================================
//
// Every op resolves its operands once and then runs the dispatched
// KernelTable entry (or its single inline loop) over raw pointers. The
// destination is resolved first, so a copy-on-write page the op is about to
// dirty is materialized before any source is pinned. The operand rule:
//   * a span the image cannot pin as one contiguous pointer (a 64 KB page
//     straddle, the beyond-base zero region) is gathered into per-slot
//     scratch with read_bytes; an unpinnable destination is gathered too
//     (VEC_ROWSUM32 and accumulating MVMs read it) and written back with
//     write_bytes;
//   * a source whose simulated address range overlaps the destination is
//     copied in first, so every op reads its sources as they were before it
//     issued — except an elementwise op's same-width exact alias (dst ==
//     src), which stays in place: byte-equivalent, and what the kernels
//     support (see KernelTable);
//   * the VEC_LUT8 table is a 256-byte operand like any other.
// The scalar KernelTable is therefore the one reference semantics; the SIMD
// tiers are differentially tested against it.

std::uint8_t* CoreModel::gather(std::uint32_t addr, std::int64_t len, Slot slot) {
  std::uint8_t* buffer = bounce_[slot].ensure(static_cast<std::size_t>(len));
  if (isa::is_local_address(addr)) {
    std::memcpy(buffer, lmem_.data() + isa::local_offset(addr), static_cast<std::size_t>(len));
  } else {
    ctx_.global->read_bytes(addr, len, buffer);
  }
  return buffer;
}

std::uint8_t* CoreModel::pin_dst(std::uint32_t addr, std::int64_t len) {
  check_span(addr, len);
  std::uint8_t* data = isa::is_local_address(addr)
                           ? lmem_.data() + isa::local_offset(addr)
                           : ctx_.global->span_for_write(addr, len);
  const bool gathered = data == nullptr;
  if (gathered) data = gather(addr, len, kSlotDst);
  dst_.addr = addr;
  dst_.len = len;
  dst_.data = data;
  dst_.gathered = gathered;
  return data;
}

const std::uint8_t* CoreModel::pin_src(std::uint32_t addr, std::int64_t len, Slot slot,
                                       bool in_place) {
  check_span(addr, len);
  // Local and global addresses are partitioned by the MSB and spans never
  // mix halves, so plain address-range intersection is the overlap test.
  const std::uint64_t lo = addr, hi = lo + static_cast<std::uint64_t>(len);
  const std::uint64_t dst_lo = dst_.addr,
                      dst_hi = dst_lo + static_cast<std::uint64_t>(dst_.len);
  if (lo < dst_hi && dst_lo < hi) {
    if (in_place && lo == dst_lo && hi == dst_hi) return dst_.data;
    return gather(addr, len, slot);
  }
  if (isa::is_local_address(addr)) return lmem_.data() + isa::local_offset(addr);
  if (const std::uint8_t* span = ctx_.global->span_for_read(addr, len)) return span;
  return gather(addr, len, slot);
}

void CoreModel::flush_dst() {
  if (dst_.gathered) ctx_.global->write_bytes(dst_.addr, dst_.data, dst_.len);
}

void CoreModel::exec_vec(const DecodedInst& inst, std::int64_t n) {
  if (n <= 0) return;
  const auto funct = static_cast<VecFunct>(inst.funct);
  const auto a_addr = static_cast<std::uint32_t>(regs_[inst.rs]);
  const auto b_addr = static_cast<std::uint32_t>(regs_[inst.rt]);
  const int shift = static_cast<int>(sreg_i(sregs_, SReg::kQuantShift));
  const auto zero = static_cast<std::int32_t>(sreg_i(sregs_, SReg::kQuantZero));

  std::uint8_t* dst = pin_dst(static_cast<std::uint32_t>(regs_[inst.rd]), n * inst.vec_wr_scale);
  auto src_a = [&](std::int64_t len) { return pin_src(a_addr, len, kSlotA); };
  auto src_b = [&](std::int64_t len) { return pin_src(b_addr, len, kSlotB); };

  switch (funct) {
    case VecFunct::kCopy8: {
      const std::uint8_t* a = src_a(n);
      if (a != dst) std::memcpy(dst, a, static_cast<std::size_t>(n));
      break;
    }
    case VecFunct::kAdd8:
    case VecFunct::kSub8:
    case VecFunct::kMax8:
    case VecFunct::kMin8: {
      const std::uint8_t* a = src_a(n);
      const std::uint8_t* b = src_b(n);
      switch (funct) {
        case VecFunct::kAdd8: kt_->add8(dst, a, b, n); break;
        case VecFunct::kSub8: kt_->sub8(dst, a, b, n); break;
        case VecFunct::kMax8: kt_->max8(dst, a, b, n); break;
        default: kt_->min8(dst, a, b, n); break;
      }
      break;
    }
    case VecFunct::kRelu8:
      kt_->relu8(dst, src_a(n), n);
      break;
    case VecFunct::kFill8:
      std::memset(dst, regs_[inst.rt] & 0xFF, static_cast<std::size_t>(n));
      break;
    case VecFunct::kAdd32:
    case VecFunct::kMax32: {
      const std::uint8_t* a = src_a(4 * n);
      const std::uint8_t* b = src_b(4 * n);
      if (funct == VecFunct::kAdd32) {
        kt_->add32(dst, a, b, n);
      } else {
        kt_->max32(dst, a, b, n);
      }
      break;
    }
    case VecFunct::kRelu32:
      kt_->relu32(dst, src_a(4 * n), n);
      break;
    case VecFunct::kQuant:
      kt_->quant(dst, src_a(4 * n), n, shift, zero);
      break;
    case VecFunct::kLut8: {
      const std::uint8_t* a = src_a(n);
      const std::uint8_t* lut =
          pin_src(static_cast<std::uint32_t>(sreg_i(sregs_, SReg::kLutBase)), 256, kSlotB,
                  /*in_place=*/false);
      for (std::int64_t i = 0; i < n; ++i) dst[i] = lut[a[i]];
      break;
    }
    case VecFunct::kScaleCh8: {
      const std::int64_t channels = sreg_i(sregs_, SReg::kChannels);
      if (channels <= 0) {
        fail(strprintf("core %lld VEC_SCALECH8: S_CHANNELS must be positive, got %lld",
                       (long long)id, (long long)channels));
      }
      const std::uint8_t* a = src_a(n);
      const std::uint8_t* b = src_b(std::min(channels, n));
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t product = static_cast<std::int64_t>(static_cast<std::int8_t>(a[i])) *
                                     static_cast<std::int8_t>(b[i % channels]);
        dst[i] = static_cast<std::uint8_t>(
            saturate_int8(rounding_shift_right(product, shift) + zero));
      }
      break;
    }
    case VecFunct::kCopy32: {
      const std::uint8_t* a = src_a(4 * n);
      if (a != dst) std::memcpy(dst, a, static_cast<std::size_t>(4 * n));
      break;
    }
    case VecFunct::kFill32:
      for (std::int64_t i = 0; i < n; ++i) kernels::store_le32(dst + 4 * i, regs_[inst.rt]);
      break;
    case VecFunct::kDeq8To32:
      kt_->deq8to32(dst, src_a(n), n);
      break;
    case VecFunct::kAdd8To32: {
      const std::uint8_t* a = src_a(4 * n);
      kt_->add8to32(dst, a, src_b(n), n);
      break;
    }
    case VecFunct::kRowSum32: {
      const std::int64_t pixels = sreg_i(sregs_, SReg::kPoolWin);
      if (pixels <= 0) break;  // acc = read + write-back of the same values
      // Not elementwise (each int32 sums a whole pixel column), so an exact
      // alias is copied in too.
      const std::uint8_t* a = pin_src(a_addr, n * pixels, kSlotA, /*in_place=*/false);
      // Channel-row accumulation in an int32 scratch row: per-column int64
      // sums truncated to int32 at store time are exactly mod-2^32
      // wraparound — what rowadd8_i32's uint32 adds produce, one vectorized
      // pass per window row.
      std::int32_t* acc = mvm_row_.ensure(static_cast<std::size_t>(n));
      kernels::load_le32_row(acc, dst, n);
      for (std::int64_t q = 0; q < pixels; ++q) kt_->rowadd8_i32(acc, a + q * n, n);
      kernels::store_le32_row(dst, acc, n);
      break;
    }
    case VecFunct::kDivRound8: {
      const std::int64_t divisor = std::max<std::int64_t>(1, sreg_i(sregs_, SReg::kAux1));
      const std::uint8_t* a = src_a(4 * n);
      for (std::int64_t i = 0; i < n; ++i) {
        const std::int64_t sum = kernels::load_le32(a + 4 * i);
        const std::int64_t rounded = sum >= 0 ? (sum + divisor / 2) / divisor
                                              : -((-sum + divisor / 2) / divisor);
        dst[i] = static_cast<std::uint8_t>(saturate_int8(static_cast<std::int32_t>(rounded)));
      }
      break;
    }
  }
  flush_dst();
}

void CoreModel::exec_pool(const DecodedInst& inst, std::int64_t out_w) {
  if (out_w <= 0) return;
  // step() has rejected non-positive window descriptors.
  const bool avg = inst.funct != 0;
  const std::int64_t kh = sreg_i(sregs_, SReg::kPoolKh);
  const std::int64_t kw = sreg_i(sregs_, SReg::kPoolKw);
  const std::int64_t stride = sreg_i(sregs_, SReg::kPoolStride);
  const std::int64_t win = sreg_i(sregs_, SReg::kPoolWin);
  const std::int64_t channels = sreg_i(sregs_, SReg::kPoolChannels);
  const std::int64_t src_extent =
      ((kh - 1) * win + (out_w - 1) * stride + (kw - 1)) * channels + channels;
  std::uint8_t* dst = pin_dst(static_cast<std::uint32_t>(regs_[inst.rd]), out_w * channels);
  // A pooling window is not elementwise, so any overlap is copied in, exact
  // alias included.
  const std::uint8_t* src = pin_src(static_cast<std::uint32_t>(regs_[inst.rs]), src_extent,
                                    kSlotA, /*in_place=*/false);
  const std::int64_t area = kh * kw;
  // Channel-row reduction through the dispatched kernels: each (r, s) window
  // position contributes one contiguous `channels`-wide slice, so the whole
  // output pixel is kh*kw row reductions into a scratch row instead of a
  // per-channel strided walk. For avg that needs window areas whose int8
  // sums fit int32 exactly (|sum| <= 128 * area; the rounded divide needs the
  // true signed sum, not a mod-2^32 wrap) — larger windows sum in int64.
  if (!avg) {
    std::uint8_t* acc = row_scratch_.ensure(static_cast<std::size_t>(channels));
    for (std::int64_t q = 0; q < out_w; ++q) {
      const std::uint8_t* base = src + q * stride * channels;
      std::memset(acc, 0x80, static_cast<std::size_t>(channels));  // -128 identity
      for (std::int64_t r = 0; r < kh; ++r) {
        for (std::int64_t s = 0; s < kw; ++s) {
          kt_->rowmax8(acc, base + (r * win + s) * channels, channels);
        }
      }
      std::memcpy(dst + q * channels, acc, static_cast<std::size_t>(channels));
    }
  } else {
    auto round_div = [area](std::int64_t sum) {
      const std::int64_t rounded =
          sum >= 0 ? (sum + area / 2) / area : -((-sum + area / 2) / area);
      return static_cast<std::uint8_t>(saturate_int8(static_cast<std::int32_t>(rounded)));
    };
    const bool fits_i32 = area <= (std::int64_t{1} << 23);
    std::int32_t* acc = mvm_row_.ensure(static_cast<std::size_t>(channels));
    for (std::int64_t q = 0; q < out_w; ++q) {
      const std::uint8_t* base = src + q * stride * channels;
      std::uint8_t* out_row = dst + q * channels;
      if (!fits_i32) {
        for (std::int64_t c = 0; c < channels; ++c) {
          std::int64_t sum = 0;
          for (std::int64_t r = 0; r < kh; ++r) {
            for (std::int64_t s = 0; s < kw; ++s) {
              sum += static_cast<std::int8_t>(base[(r * win + s) * channels + c]);
            }
          }
          out_row[c] = round_div(sum);
        }
        continue;
      }
      std::memset(acc, 0, static_cast<std::size_t>(channels) * sizeof(std::int32_t));
      for (std::int64_t r = 0; r < kh; ++r) {
        for (std::int64_t s = 0; s < kw; ++s) {
          kt_->rowadd8_i32(acc, base + (r * win + s) * channels, channels);
        }
      }
      for (std::int64_t c = 0; c < channels; ++c) out_row[c] = round_div(acc[c]);
    }
  }
  flush_dst();
}

void CoreModel::exec_mvm(const DecodedInst& inst, std::int64_t rows, std::int64_t cols) {
  const auto in = static_cast<std::uint32_t>(regs_[inst.rs]);
  const auto out = static_cast<std::uint32_t>(regs_[inst.rt]);
  const std::int64_t mg = regs_[inst.re];
  const bool accumulate = (inst.flags & 1) != 0;
  const std::int8_t* weights =
      reinterpret_cast<const std::int8_t*>(mg_weights_.data()) + mg * mg_tile_elems_;

  check_span(in, rows);
  if (cols <= 0) return;
  std::uint8_t* psum = pin_dst(out, cols * 4);
  // The register-blocked psum row: preloaded (accumulate) or zeroed, all
  // weight rows streamed through it, flushed with one store.
  std::int32_t* row = mvm_row_.ensure(static_cast<std::size_t>(cols));
  if (accumulate) {
    kernels::load_le32_row(row, psum, cols);
  } else {
    std::fill(row, row + cols, 0);
  }
  if (rows > 0) {
    kt_->mvm_accumulate(row, pin_src(in, rows, kSlotA, /*in_place=*/false), weights, rows,
                        cols);
  }
  kernels::store_le32_row(psum, row, cols);
  flush_dst();
}

// ============================================================================
// the per-instruction step
// ============================================================================

bool CoreModel::step() {
  const DecodedInst& inst = dcode_[pc];
  const auto op = static_cast<Opcode>(inst.op);
  const arch::ArchConfig& arch = *ctx_.arch;
  const arch::EnergyModel& energy_model = *ctx_.energy;

  const std::int64_t t_fetch = next_fetch;
  std::int64_t t_issue = std::max(t_fetch + 2, last_issue_ + 1);
  // The predecoded register-use list: the same max the per-operand use()
  // calls computed (max is idempotent, so the decode-time dedup never
  // changes it).
  for (std::uint8_t k = 0; k < inst.use_count; ++k) {
    t_issue = std::max(t_issue, reg_ready_[inst.use_regs[k]]);
  }

  const std::int64_t lanes = arch.unit().vector_lanes;
  const std::int64_t lm_width = arch.core().local_mem_width_bytes;
  bool taken_branch = false;
  std::int64_t redirect = 0;

  switch (op) {
    // ---- control & scalar -------------------------------------------------
    case Opcode::kNop:
      break;
    case Opcode::kHalt: {
      // A core is only done once its execution units drain: the makespan
      // must include in-flight CIM/vector/transfer work.
      std::int64_t quiesce = t_issue;
      quiesce = std::max(quiesce, vec_free_ + arch.unit().vector_pipeline_depth);
      quiesce = std::max(quiesce, scalar_free_);
      quiesce = std::max(quiesce, transfer_free_);
      for (std::int64_t mg : mg_free_) {
        quiesce = std::max(quiesce, mg + arch.unit().mvm_pipeline_depth);
      }
      status = Status::kHalted;
      stats.halt_cycle = quiesce;
      break;
    }
    case Opcode::kGLi: {
      regs_[inst.rt] = inst.imm;
      reg_ready_[inst.rt] = std::max(reg_ready_[inst.rt], t_issue + 1);
      break;
    }
    case Opcode::kGLih: {
      regs_[inst.rt] = static_cast<std::int32_t>(
          (static_cast<std::uint32_t>(inst.imm) << 16) |
          (static_cast<std::uint32_t>(regs_[inst.rt]) & 0xFFFFu));
      reg_ready_[inst.rt] = std::max(reg_ready_[inst.rt], t_issue + 1);
      break;
    }
    case Opcode::kScOp:
    case Opcode::kScAddi: {
      const std::int32_t a = regs_[inst.rs];
      std::int32_t b;
      std::uint8_t dst;
      if (op == Opcode::kScOp) {
        b = regs_[inst.rt];
        dst = inst.rd;
      } else {
        b = inst.imm;
        dst = inst.rt;
      }
      std::int32_t result = 0;
      switch (static_cast<ScalarFunct>(inst.funct)) {
        case ScalarFunct::kAdd: result = a + b; break;
        case ScalarFunct::kSub: result = a - b; break;
        case ScalarFunct::kMul: result = a * b; break;
        case ScalarFunct::kAnd: result = a & b; break;
        case ScalarFunct::kOr: result = a | b; break;
        case ScalarFunct::kXor: result = a ^ b; break;
        case ScalarFunct::kSll:
          result = static_cast<std::int32_t>(static_cast<std::uint32_t>(a) << (b & 31));
          break;
        case ScalarFunct::kSrl:
          result = static_cast<std::int32_t>(static_cast<std::uint32_t>(a) >> (b & 31));
          break;
        case ScalarFunct::kSra: result = a >> (b & 31); break;
        case ScalarFunct::kSlt: result = a < b ? 1 : 0; break;
        case ScalarFunct::kDivU:
          result = b == 0 ? 0
                          : static_cast<std::int32_t>(static_cast<std::uint32_t>(a) /
                                                      static_cast<std::uint32_t>(b));
          break;
        case ScalarFunct::kRemU:
          result = b == 0 ? 0
                          : static_cast<std::int32_t>(static_cast<std::uint32_t>(a) %
                                                      static_cast<std::uint32_t>(b));
          break;
      }
      if (dst != 0) regs_[dst] = result;
      scalar_free_ = std::max(scalar_free_, t_issue) + 1;
      reg_ready_[dst] = std::max(reg_ready_[dst], t_issue + 1);
      energy.scalar_unit += energy_model.scalar_op_pj();
      break;
    }
    case Opcode::kScLw: {
      const auto addr = static_cast<std::uint32_t>(regs_[inst.rs] + inst.imm);
      const std::int64_t start = mem_dep_start(addr, 4, false, t_issue);
      if (inst.rt != 0) regs_[inst.rt] = read_i32(addr);
      reg_ready_[inst.rt] = std::max(reg_ready_[inst.rt], start + 2);
      mem_dep_finish(addr, 4, false, start + 2);
      energy.local_mem += energy_model.local_mem_pj(4);
      break;
    }
    case Opcode::kScSw: {
      const auto addr = static_cast<std::uint32_t>(regs_[inst.rs] + inst.imm);
      const std::int64_t start = mem_dep_start(addr, 4, true, t_issue);
      write_i32(addr, regs_[inst.rt]);
      mem_dep_finish(addr, 4, true, start + 1);
      energy.local_mem += energy_model.local_mem_pj(4);
      break;
    }
    case Opcode::kJmp:
      taken_branch = true;
      redirect = t_issue + kBranchRedirect;
      pc += inst.imm;
      break;
    case Opcode::kBeq:
    case Opcode::kBne:
    case Opcode::kBlt:
    case Opcode::kBge: {
      const std::int32_t a = regs_[inst.rs];
      const std::int32_t b = regs_[inst.rt];
      bool take = false;
      if (op == Opcode::kBeq) take = a == b;
      if (op == Opcode::kBne) take = a != b;
      if (op == Opcode::kBlt) take = a < b;
      if (op == Opcode::kBge) take = a >= b;
      if (take) {
        taken_branch = true;
        redirect = t_issue + kBranchRedirect;
        pc += inst.imm;
      }
      break;
    }

    // ---- CIM unit ---------------------------------------------------------
    case Opcode::kCimCfg: {
      sregs_[inst.flags & 31] = regs_[inst.rs];
      break;
    }
    case Opcode::kCimLoad: {
      const std::int64_t rows = sreg_i(sregs_, SReg::kActiveRows);
      const std::int64_t cols = sreg_i(sregs_, SReg::kActiveCols);
      const std::int64_t bytes = rows * cols;
      const std::int64_t mg = regs_[inst.rt];
      if (mg < 0 || mg >= arch.core().mg_per_unit) {
        fail(strprintf("core %lld CIM_LOAD: bad macro group %lld", (long long)id,
                       (long long)mg));
      }
      const auto src = static_cast<std::uint32_t>(regs_[inst.rs]);
      std::int64_t start = mem_dep_start(src, bytes, false, t_issue);
      start = std::max(start, mg_free_[static_cast<std::size_t>(mg)]);
      const std::int64_t done =
          start + ceil_div(bytes, arch.core().cim_load_bytes_per_cycle);
      mg_free_[static_cast<std::size_t>(mg)] = done;
      stats.cim_busy_cycles += done - start;
      mem_dep_finish(src, bytes, false, done);
      if (ctx_.options->functional) {
        check_span(src, bytes);
        std::uint8_t* weights = mg_weights_.data() + mg * mg_tile_elems_;
        if (isa::is_local_address(src)) {
          std::memcpy(weights, lmem_.data() + isa::local_offset(src),
                      static_cast<std::size_t>(bytes));
        } else {
          ctx_.global->read_bytes(src, bytes, weights);
        }
      }
      energy.cim += energy_model.cim_load_pj(bytes);
      energy.local_mem += energy_model.local_mem_pj(bytes);
      break;
    }
    case Opcode::kCimMvm: {
      const std::int64_t rows = sreg_i(sregs_, SReg::kActiveRows);
      const std::int64_t cols = sreg_i(sregs_, SReg::kActiveCols);
      std::int64_t macs = sreg_i(sregs_, SReg::kMacCount);
      if (macs <= 0) macs = rows * cols;
      const std::int64_t mg = regs_[inst.re];
      if (mg < 0 || mg >= arch.core().mg_per_unit) {
        fail(strprintf("core %lld CIM_MVM: bad macro group %lld", (long long)id,
                       (long long)mg));
      }
      const auto in = static_cast<std::uint32_t>(regs_[inst.rs]);
      const auto out = static_cast<std::uint32_t>(regs_[inst.rt]);
      std::int64_t start = mem_dep_start(in, rows, false, t_issue);
      start = mem_dep_start(out, cols * 4, true, start);
      start = std::max(start, mg_free_[static_cast<std::size_t>(mg)]);
      const std::int64_t busy_until = start + arch.mvm_interval_cycles();
      const std::int64_t result = start + arch.mvm_latency_cycles();
      mg_free_[static_cast<std::size_t>(mg)] = busy_until;
      stats.cim_busy_cycles += busy_until - start;
      mem_dep_finish(in, rows, false, busy_until);
      mem_dep_finish(out, cols * 4, true, result);
      if (ctx_.options->functional) exec_mvm(inst, rows, cols);
      energy.cim += energy_model.mvm_pj_macs(macs, cols);
      energy.local_mem += energy_model.local_mem_pj(rows + cols * 4);
      ++mvm_count;
      total_macs += macs;
      break;
    }

    // ---- vector unit ------------------------------------------------------
    case Opcode::kVecOp:
    case Opcode::kVecPool: {
      const std::int64_t n = regs_[inst.re];
      std::int64_t work = n;  // lane-elements of vector work
      std::int64_t rd_bytes = n, wr_bytes = n;
      if (op == Opcode::kVecPool) {
        const std::int64_t kh = sreg_i(sregs_, SReg::kPoolKh);
        const std::int64_t kw = sreg_i(sregs_, SReg::kPoolKw);
        const std::int64_t channels = sreg_i(sregs_, SReg::kPoolChannels);
        const std::int64_t stride = sreg_i(sregs_, SReg::kPoolStride);
        const std::int64_t win = sreg_i(sregs_, SReg::kPoolWin);
        if (kh <= 0 || kw <= 0 || channels <= 0 || stride <= 0 || win <= 0) {
          fail(strprintf("core %lld VEC_POOL: window descriptor must be positive "
                         "(kh=%lld kw=%lld stride=%lld win=%lld channels=%lld)",
                         (long long)id, (long long)kh, (long long)kw, (long long)stride,
                         (long long)win, (long long)channels));
        }
        work = n * channels * kh * kw;
        rd_bytes = work;
        wr_bytes = n * channels;
      } else {
        // The per-funct operand widths, predecoded (see decoded.hpp).
        rd_bytes = n * inst.vec_rd_scale;
        wr_bytes = n * inst.vec_wr_scale;
        if (inst.vec_rowsum) {
          const std::int64_t pixels = sreg_i(sregs_, SReg::kPoolWin);
          work = n * pixels;
          rd_bytes = n * pixels;
        }
      }
      const auto dst = static_cast<std::uint32_t>(regs_[inst.rd]);
      const auto a = static_cast<std::uint32_t>(regs_[inst.rs]);
      const auto b = static_cast<std::uint32_t>(regs_[inst.rt]);
      std::int64_t start = mem_dep_start(dst, wr_bytes, true, t_issue);
      start = mem_dep_start(a, rd_bytes, false, start);
      if (op == Opcode::kVecOp && inst.vec_reads_b) {
        start = mem_dep_start(b, n, false, start);
      }
      start = std::max(start, vec_free_);
      const std::int64_t busy_until = start + 1 + ceil_div(work, lanes);
      const std::int64_t done = busy_until + arch.unit().vector_pipeline_depth;
      vec_free_ = busy_until;
      stats.vector_busy_cycles += busy_until - start;
      mem_dep_finish(dst, wr_bytes, true, done);
      mem_dep_finish(a, rd_bytes, false, busy_until);
      if (ctx_.options->functional) {
        if (op == Opcode::kVecPool) {
          exec_pool(inst, n);
        } else {
          exec_vec(inst, n);
        }
      }
      energy.vector_unit += energy_model.vector_op_pj(work);
      energy.local_mem += energy_model.local_mem_pj(rd_bytes + wr_bytes);
      break;
    }

    // ---- transfer unit ----------------------------------------------------
    case Opcode::kMemCpy:
    case Opcode::kMemStride: {
      const auto dst = static_cast<std::uint32_t>(regs_[inst.rs]);
      const auto src = static_cast<std::uint32_t>(regs_[inst.rt]);
      std::int64_t count = regs_[inst.rd];
      std::int64_t elem = 1, dstride = 1, sstride = 1;
      if (op == Opcode::kMemStride) {
        dstride = sreg_i(sregs_, SReg::kAux0);
        sstride = sreg_i(sregs_, SReg::kAux1);
        elem = sreg_i(sregs_, SReg::kAux2);
      }
      const std::int64_t bytes = count * elem;
      const std::int64_t dst_span =
          op == Opcode::kMemStride ? (count - 1) * dstride + elem : bytes;
      const std::int64_t src_span =
          op == Opcode::kMemStride ? (count - 1) * sstride + elem : bytes;
      std::int64_t start = std::max(t_issue, transfer_free_);
      start = mem_dep_start(src, src_span, false, start);
      start = mem_dep_start(dst, dst_span, true, start);
      std::int64_t done;
      const bool src_local = isa::is_local_address(src);
      const bool dst_local = isa::is_local_address(dst);
      if (src_local && dst_local) {
        done = start + 2 + ceil_div(bytes, lm_width);
        energy.local_mem += energy_model.local_mem_pj(2 * bytes);
      } else {
        // Shared-fabric access: park the request for the event scheduler on
        // the first pass; the retry consumes the resolved completion time.
        // The core's clock is frozen while parked, so the recomputed `start`
        // is identical — the rendezvous is invisible in the report.
        if (!global_resolution.has_value()) {
          const std::uint32_t global_addr = dst_local ? src : dst;
          pending_global =
              GlobalRequest{global_addr, bytes, start, /*is_read=*/dst_local,
                            request_seq_++};
          status = Status::kBlockedGlobal;
          return false;
        }
        done = *global_resolution;
        global_resolution.reset();
        energy.local_mem += energy_model.local_mem_pj(bytes);
      }
      transfer_free_ = done;
      stats.transfer_busy_cycles += done - start;
      mem_dep_finish(src, src_span, false, done);
      mem_dep_finish(dst, dst_span, true, done);
      if (ctx_.options->functional && bytes > 0) {
        if (op == Opcode::kMemCpy) {
          copy_bytes(dst, src, bytes);
        } else {
          for (std::int64_t i = 0; i < count; ++i) {
            copy_bytes(dst + static_cast<std::uint32_t>(i * dstride),
                       src + static_cast<std::uint32_t>(i * sstride), elem);
          }
        }
      }
      break;
    }
    case Opcode::kSend: {
      const auto src = static_cast<std::uint32_t>(regs_[inst.rs]);
      const std::int64_t bytes = regs_[inst.rt];
      const std::int64_t dst_core = regs_[inst.rd];
      if (dst_core < 0 || dst_core >= ctx_.arch->chip().core_count) {
        fail(strprintf("core %lld SEND to invalid core %lld", (long long)id,
                       (long long)dst_core));
      }
      std::int64_t start = mem_dep_start(src, bytes, false, t_issue);
      start = std::max(start, transfer_free_);
      const std::int64_t inject_done =
          start + 2 + ceil_div(bytes, arch.chip().noc_flit_bytes);
      transfer_free_ = inject_done;
      stats.transfer_busy_cycles += inject_done - start;
      mem_dep_finish(src, bytes, false, inject_done);
      // The sender never observes the arrival time, so it keeps running; the
      // scheduler routes the message through the NoC (contention + energy)
      // when the send event commits in global-time order and delivers it then.
      SendRequest req;
      req.dst_core = dst_core;
      req.tag = inst.imm;
      req.bytes = bytes;
      req.depart = start + 2;
      req.seq = request_seq_++;
      if (ctx_.options->functional && bytes > 0) {
        check_span(src, bytes);
        req.payload.resize(static_cast<std::size_t>(bytes));
        if (isa::is_local_address(src)) {
          std::memcpy(req.payload.data(), lmem_.data() + isa::local_offset(src),
                      static_cast<std::size_t>(bytes));
        } else {
          ctx_.global->read_bytes(src, bytes, req.payload.data());
        }
      }
      energy.local_mem += energy_model.local_mem_pj(bytes);
      outbox.push_back(std::move(req));
      break;
    }
    case Opcode::kRecv: {
      const std::int64_t src_core = regs_[inst.rd];
      const auto key = std::make_pair(src_core, static_cast<std::int32_t>(inst.imm));
      auto it = inbox.find(key);
      if (it == inbox.end() || it->second.empty()) {
        recv_key = key;
        status = Status::kBlockedRecv;
        return false;  // retry once a message is delivered
      }
      Message msg = std::move(it->second.front());
      it->second.pop_front();
      const std::int64_t bytes = regs_[inst.rt];
      if (bytes != msg.bytes) {
        fail(strprintf("core %lld RECV size mismatch at pc=%lld (src=%lld tag=%d): "
                       "expected %lld got %lld",
                       (long long)id, (long long)pc, (long long)src_core, inst.imm,
                       (long long)bytes, (long long)msg.bytes));
      }
      const auto dst = static_cast<std::uint32_t>(regs_[inst.rs]);
      std::int64_t start = std::max({t_issue, msg.arrival, transfer_free_});
      start = mem_dep_start(dst, bytes, true, start);
      const std::int64_t done = start + 2 + ceil_div(bytes, lm_width);
      transfer_free_ = done;
      stats.transfer_busy_cycles += done - start;
      mem_dep_finish(dst, bytes, true, done);
      if (ctx_.options->functional && bytes > 0) {
        check_span(dst, bytes);
        if (isa::is_local_address(dst)) {
          std::memcpy(lmem_.data() + isa::local_offset(dst), msg.payload.data(),
                      static_cast<std::size_t>(bytes));
        } else {
          ctx_.global->write_bytes(dst, msg.payload.data(), bytes);
        }
      }
      energy.local_mem += energy_model.local_mem_pj(bytes);
      t_issue = start;  // the core was architecturally waiting
      break;
    }
    case Opcode::kBarrier: {
      // All cores rendezvous through the scheduler: block with the issue time
      // recorded; release_from_barrier() retires the instruction uniformly.
      barrier_tag = static_cast<std::int32_t>(inst.imm);
      barrier_issue = t_issue;
      status = Status::kBlockedBarrier;
      return false;
    }

    default: {
      // Custom instruction via the registry's description template; the
      // descriptor was resolved at decode time (a map lookup per dynamic
      // execution on the seed interpreter). Unresolvable opcodes still fail
      // lazily, with the registry's own error.
      const isa::InstructionDescriptor* resolved = inst.custom;
      if (resolved == nullptr) {
        resolved = &ctx_.registry->lookup((*code_)[static_cast<std::size_t>(pc)]);
      }
      const isa::InstructionDescriptor& desc = *resolved;
      const std::int64_t n = regs_[inst.re];
      std::int64_t busy = desc.timing.fixed_cycles;
      if (desc.timing.elements_per_cycle > 0) {
        busy += ceil_div(std::max<std::int64_t>(n, 0), desc.timing.elements_per_cycle);
      }
      std::int64_t* unit_free = &scalar_free_;
      if (desc.unit == isa::UnitKind::kVector) unit_free = &vec_free_;
      if (desc.unit == isa::UnitKind::kTransfer) unit_free = &transfer_free_;
      if (desc.unit == isa::UnitKind::kCim) unit_free = &mg_free_[0];
      const std::int64_t start = std::max(t_issue, *unit_free);
      *unit_free = start + busy;
      if (desc.execute) {
        CustomCtx custom;
        custom.core = this;
        desc.execute((*code_)[static_cast<std::size_t>(pc)], custom);
        regs_[0] = 0;
      }
      energy.vector_unit +=
          desc.energy.fixed_pj + desc.energy.per_element_pj * static_cast<double>(n);
      break;
    }
  }

  // Common bookkeeping.
  regs_[0] = 0;
  last_issue_ = t_issue;
  next_fetch = taken_branch ? redirect : std::max(t_fetch + 1, t_issue - 1);
  if (!taken_branch) pc += 1;
  stats.instructions += 1;
  energy.instruction += ctx_.energy->instruction_pj();
  return true;
}

void CoreModel::run_until(std::int64_t limit) {
  const std::int64_t base = stats.instructions;
  while (status == Status::kReady && next_fetch < limit) {
    if (pc < 0 || pc >= code_size_) {
      fail(strprintf("core %lld ran off its program (pc=%lld)", (long long)id,
                     (long long)pc));
    }
    if (next_fetch > ctx_.options->max_cycles) {
      // Leveled diagnostic ahead of the raise: the exception carries the same
      // facts, but long sweeps that swallow per-point failures still surface
      // the watchdog through the logger.
      CIMFLOW_ERROR() << "core " << id << " simulation watchdog expired at cycle "
                      << next_fetch << " (max_cycles=" << ctx_.options->max_cycles
                      << ")";
      fail("simulation watchdog expired");
    }
    if (!step()) break;
  }
  run_steps += stats.instructions - base;
}

void CoreModel::release_from_barrier(std::int64_t release) {
  status = Status::kReady;
  pc += 1;
  next_fetch = release;
  last_issue_ = release - 1;
  stats.instructions += 1;  // the barrier retires now
  energy.instruction += ctx_.energy->instruction_pj();
}

}  // namespace cimflow::sim
