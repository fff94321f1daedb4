#include "cimflow/graph/executor.hpp"

#include <algorithm>

#include "cimflow/support/numeric.hpp"
#include "cimflow/support/rng.hpp"
#include "cimflow/support/status.hpp"

namespace cimflow::graph {
namespace {

std::int8_t requantize(std::int64_t acc, int shift) {
  return saturate_int8(rounding_shift_right(acc, shift));
}

/// Rounded integer division (ties away from zero) for average pooling.
std::int32_t rounded_div(std::int64_t sum, std::int64_t area) {
  if (sum >= 0) return static_cast<std::int32_t>((sum + area / 2) / area);
  return static_cast<std::int32_t>(-((-sum + area / 2) / area));
}

/// Longest run of int8 x int8 products summed in int32. Each product is at
/// most 2^14 in magnitude, so 2^16 of them stay below 2^30 — well inside
/// int32 — and the partial sums are widened to int64 between chunks.
constexpr std::int64_t kDotChunk = std::int64_t{1} << 16;

/// Output pixels whose patches share one pass over a weight row.
constexpr std::int64_t kPixelBlock = 4;

/// Weight rows (output channels) widened to int16 at a time.
constexpr std::int64_t kRowBlock = 64;

/// acc[j] += w . patches[j] for the kPixelBlock patches of length `len`
/// stored back to back. Operands hold int8 values widened to int16, so the
/// products are exact in int32 and the inner loop vectorises to
/// multiply-add instructions; chunking keeps the int32 sums exact for any
/// length.
void dot_block(const std::int16_t* w, const std::int16_t* patches, std::int64_t len,
               std::int64_t* acc) {
  for (std::int64_t base = 0; base < len; base += kDotChunk) {
    const std::int64_t n = std::min(kDotChunk, len - base);
    const std::int16_t* x = w + base;
    const std::int16_t* p0 = patches + base;
    const std::int16_t* p1 = p0 + len;
    const std::int16_t* p2 = p1 + len;
    const std::int16_t* p3 = p2 + len;
    std::int32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int32_t v = x[i];
      s0 += v * p0[i];
      s1 += v * p1[i];
      s2 += v * p2[i];
      s3 += v * p3[i];
    }
    acc[0] += s0;
    acc[1] += s1;
    acc[2] += s2;
    acc[3] += s3;
  }
}
static_assert(kPixelBlock == 4, "dot_block computes four patches at a time");

/// Input window of output pixel (p, q) under a K x K kernel: tap (r, s)
/// reads input (top + r, left + s). Only [h0, h1) x [w0, w1) lies inside the
/// map; the remaining taps are padding.
struct Window {
  std::int64_t top, left, h0, h1, w0, w1;
};

Window window(std::int64_t p, std::int64_t q, std::int64_t kernel, std::int64_t stride,
              std::int64_t pad, const Shape& is) {
  const std::int64_t top = p * stride - pad;
  const std::int64_t left = q * stride - pad;
  return {top,
          left,
          std::max<std::int64_t>(top, 0),
          std::min(top + kernel, is.h),
          std::max<std::int64_t>(left, 0),
          std::min(left + kernel, is.w)};
}

/// Dense conv as im2col + dot. Output pixel (n, p, q) gathers its K*K*C
/// input patch in (r, s, c) order — the order of weight row k, [k][r][s][c]
/// — with padding taps zero, and output channel k is the dot product of the
/// two plus bias[k], requantized. Weight rows are widened kRowBlock at a time
/// and each pass over a row serves kPixelBlock patches, so the scratch is a
/// few patches and weight rows, never a whole-layer column matrix.
/// `is` is the input read as NHWC; a fully-connected layer is the 1x1 conv
/// over a 1x1 map with C = in_features.
TensorI8 conv_im2col(const Node& node, const TensorI8& in, const Shape& is,
                     std::int64_t kernel, std::int64_t stride, std::int64_t pad) {
  const Shape os = node.out_shape;
  TensorI8 out(os);
  const std::int8_t* w = node.weights->data();
  const std::int32_t* bias = node.bias->data();
  const std::int64_t row_len = kernel * is.c;      // one kernel row (s, c)
  const std::int64_t patch_len = kernel * row_len;  // one weight row (r, s, c)
  const std::int64_t pixels = os.n * os.h * os.w;
  std::vector<std::int16_t> rows(
      static_cast<std::size_t>(std::min(kRowBlock, os.c) * patch_len));
  std::vector<std::int16_t> patches(static_cast<std::size_t>(kPixelBlock * patch_len));
  for (std::int64_t k0 = 0; k0 < os.c; k0 += kRowBlock) {
    const std::int64_t row_count = std::min(kRowBlock, os.c - k0);
    std::copy_n(w + k0 * patch_len, row_count * patch_len, rows.data());
    for (std::int64_t px0 = 0; px0 < pixels; px0 += kPixelBlock) {
      const std::int64_t count = std::min(kPixelBlock, pixels - px0);
      for (std::int64_t j = 0; j < count; ++j) {
        const std::int64_t px = px0 + j;
        const std::int64_t q = px % os.w;
        const std::int64_t p = (px / os.w) % os.h;
        const std::int8_t* image = in.data() + (px / (os.w * os.h)) * is.per_image();
        const Window win = window(p, q, kernel, stride, pad, is);
        std::int16_t* patch = patches.data() + j * patch_len;
        std::fill_n(patch, patch_len, std::int16_t{0});
        for (std::int64_t ih = win.h0; ih < win.h1; ++ih) {
          std::copy_n(image + (ih * is.w + win.w0) * is.c, (win.w1 - win.w0) * is.c,
                      patch + (ih - win.top) * row_len + (win.w0 - win.left) * is.c);
        }
      }
      std::int8_t* dst = out.data() + px0 * os.c + k0;
      for (std::int64_t k = 0; k < row_count; ++k) {
        std::int64_t acc[kPixelBlock] = {0, 0, 0, 0};
        dot_block(rows.data() + k * patch_len, patches.data(), patch_len, acc);
        for (std::int64_t j = 0; j < count; ++j) {
          dst[j * os.c + k] = requantize(bias[k0 + k] + acc[j], node.quant.shift);
        }
      }
    }
  }
  return out;
}

TensorI8 run_conv(const Node& node, const TensorI8& in) {
  const ConvAttrs& a = std::get<ConvAttrs>(node.attrs);
  return conv_im2col(node, in, in.shape(), a.kernel, a.stride, a.pad);
}

TensorI8 run_fc(const Node& node, const TensorI8& in) {
  const Shape features{in.shape().n, 1, 1, in.shape().per_image()};
  return conv_im2col(node, in, features, /*kernel=*/1, /*stride=*/1, /*pad=*/0);
}

/// Depthwise conv with channels innermost: per output pixel, every in-map
/// tap adds a contiguous channel vector into per-channel int32 accumulators.
/// The [c][r][s] weights are transposed once to [r][s][c] to match.
TensorI8 run_depthwise(const Node& node, const TensorI8& in) {
  const ConvAttrs& a = std::get<ConvAttrs>(node.attrs);
  const Shape is = in.shape();
  const Shape os = node.out_shape;
  TensorI8 out(os);
  const std::int64_t kernel = a.kernel;
  const std::int64_t taps = kernel * kernel;
  const std::int64_t channels = is.c;
  const std::vector<std::int8_t>& w = *node.weights;
  std::vector<std::int8_t> wt(static_cast<std::size_t>(taps * channels));
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t t = 0; t < taps; ++t) {
      wt[static_cast<std::size_t>(t * channels + c)] =
          w[static_cast<std::size_t>(c * taps + t)];
    }
  }
  const std::int32_t* bias = node.bias->data();
  std::vector<std::int64_t> acc_buf(static_cast<std::size_t>(channels));
  std::vector<std::int32_t> part_buf(static_cast<std::size_t>(channels));
  std::int64_t* acc = acc_buf.data();
  std::int32_t* part = part_buf.data();
  std::int8_t* dst = out.data();
  for (std::int64_t n = 0; n < os.n; ++n) {
    const std::int8_t* image = in.data() + n * is.per_image();
    for (std::int64_t p = 0; p < os.h; ++p) {
      for (std::int64_t q = 0; q < os.w; ++q, dst += os.c) {
        const Window win = window(p, q, kernel, a.stride, a.pad, is);
        std::copy_n(bias, channels, acc);
        std::fill_n(part, channels, 0);
        std::int64_t pending = 0;  // taps summed into `part` so far
        for (std::int64_t ih = win.h0; ih < win.h1; ++ih) {
          for (std::int64_t iw = win.w0; iw < win.w1; ++iw) {
            const std::int8_t* x = image + (ih * is.w + iw) * channels;
            const std::int8_t* wv =
                wt.data() + ((ih - win.top) * kernel + (iw - win.left)) * channels;
            for (std::int64_t c = 0; c < channels; ++c) {
              part[c] += static_cast<std::int32_t>(x[c]) * static_cast<std::int32_t>(wv[c]);
            }
            if (++pending == kDotChunk) {
              for (std::int64_t c = 0; c < channels; ++c) acc[c] += part[c];
              std::fill_n(part, channels, 0);
              pending = 0;
            }
          }
        }
        for (std::int64_t c = 0; c < channels; ++c) {
          dst[c] = requantize(acc[c] + part[c], node.quant.shift);
        }
      }
    }
  }
  return out;
}

/// Max/average pooling with channels innermost: every in-map tap folds a
/// contiguous channel vector into the per-channel running max or sum.
/// Padding is -inf for max pooling and zero (over the full K*K area) for
/// average pooling.
TensorI8 run_pool(const Node& node, const TensorI8& in, bool average) {
  const PoolAttrs& a = std::get<PoolAttrs>(node.attrs);
  const Shape is = in.shape();
  const Shape os = node.out_shape;
  TensorI8 out(os);
  const std::int64_t channels = is.c;
  const std::int64_t area = a.kernel * a.kernel;
  std::vector<std::int64_t> sum_buf(static_cast<std::size_t>(channels));
  std::int64_t* sum = sum_buf.data();
  std::int8_t* dst = out.data();
  for (std::int64_t n = 0; n < os.n; ++n) {
    const std::int8_t* image = in.data() + n * is.per_image();
    for (std::int64_t p = 0; p < os.h; ++p) {
      for (std::int64_t q = 0; q < os.w; ++q, dst += os.c) {
        const Window win = window(p, q, a.kernel, a.stride, a.pad, is);
        if (average) {
          std::fill_n(sum, channels, 0);
        } else {
          std::fill_n(dst, channels, std::int8_t{-128});
        }
        for (std::int64_t ih = win.h0; ih < win.h1; ++ih) {
          for (std::int64_t iw = win.w0; iw < win.w1; ++iw) {
            const std::int8_t* x = image + (ih * is.w + iw) * channels;
            if (average) {
              for (std::int64_t c = 0; c < channels; ++c) sum[c] += x[c];
            } else {
              for (std::int64_t c = 0; c < channels; ++c) dst[c] = std::max(dst[c], x[c]);
            }
          }
        }
        if (average) {
          for (std::int64_t c = 0; c < channels; ++c) {
            dst[c] = saturate_int8(rounded_div(sum[c], area));
          }
        }
      }
    }
  }
  return out;
}

TensorI8 run_global_avg_pool(const Node& node, const TensorI8& in) {
  const Shape is = in.shape();
  TensorI8 out(node.out_shape);
  const std::int64_t area = is.h * is.w;
  std::vector<std::int64_t> sum_buf(static_cast<std::size_t>(is.c));
  std::int64_t* sum = sum_buf.data();
  std::int8_t* dst = out.data();
  for (std::int64_t n = 0; n < is.n; ++n, dst += is.c) {
    std::fill_n(sum, is.c, 0);
    const std::int8_t* x = in.data() + n * is.per_image();
    for (std::int64_t pixel = 0; pixel < area; ++pixel, x += is.c) {
      for (std::int64_t c = 0; c < is.c; ++c) sum[c] += x[c];
    }
    for (std::int64_t c = 0; c < is.c; ++c) {
      dst[c] = saturate_int8(rounded_div(sum[c], area));
    }
  }
  return out;
}

}  // namespace

TensorI8 ReferenceExecutor::run(const std::vector<TensorI8>& inputs) {
  graph_->verify();
  if (inputs.size() != graph_->inputs().size()) {
    raise(ErrorCode::kInvalidArgument, "input tensor count mismatch");
  }
  values_.clear();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const NodeId id = graph_->inputs()[i];
    if (!(inputs[i].shape() == graph_->node(id).out_shape)) {
      raise(ErrorCode::kInvalidArgument, "input tensor shape mismatch");
    }
    values_[id] = inputs[i];
  }
  for (NodeId id : graph_->topo_order()) {
    const Node& node = graph_->node(id);
    if (node.kind == OpKind::kInput) continue;
    values_[id] = evaluate(node);
  }
  return values_.at(graph_->output());
}

const TensorI8& ReferenceExecutor::value(NodeId node) const {
  auto it = values_.find(node);
  CIMFLOW_CHECK(it != values_.end(), "node value not computed");
  return it->second;
}

TensorI8 ReferenceExecutor::evaluate(const Node& node) {
  const TensorI8& in0 = values_.at(node.inputs.at(0));
  switch (node.kind) {
    case OpKind::kConv2d: return run_conv(node, in0);
    case OpKind::kDepthwiseConv2d: return run_depthwise(node, in0);
    case OpKind::kFullyConnected: return run_fc(node, in0);
    case OpKind::kRelu: {
      TensorI8 out(node.out_shape);
      const std::int8_t hi = node.relu().hi;
      for (std::int64_t i = 0; i < in0.size(); ++i) {
        out.data()[i] = std::clamp<std::int8_t>(in0.data()[i], 0, hi);
      }
      return out;
    }
    case OpKind::kAdd: {
      const TensorI8& in1 = values_.at(node.inputs.at(1));
      TensorI8 out(node.out_shape);
      for (std::int64_t i = 0; i < in0.size(); ++i) {
        out.data()[i] = saturate_int8(static_cast<std::int32_t>(in0.data()[i]) +
                                      static_cast<std::int32_t>(in1.data()[i]));
      }
      return out;
    }
    case OpKind::kMaxPool: return run_pool(node, in0, /*average=*/false);
    case OpKind::kAvgPool: return run_pool(node, in0, /*average=*/true);
    case OpKind::kGlobalAvgPool: return run_global_avg_pool(node, in0);
    case OpKind::kLut: {
      TensorI8 out(node.out_shape);
      const auto& table = node.lut().table;
      for (std::int64_t i = 0; i < in0.size(); ++i) {
        out.data()[i] = table[static_cast<std::uint8_t>(in0.data()[i])];
      }
      return out;
    }
    case OpKind::kScaleChannels: {
      const TensorI8& scales = values_.at(node.inputs.at(1));
      TensorI8 out(node.out_shape);
      const Shape& os = node.out_shape;
      const std::int8_t* x = in0.data();
      std::int8_t* dst = out.data();
      for (std::int64_t n = 0; n < os.n; ++n) {
        const std::int8_t* scale = scales.data() + n * os.c;
        for (std::int64_t pixel = 0; pixel < os.h * os.w; ++pixel) {
          for (std::int64_t c = 0; c < os.c; ++c) {
            const std::int64_t product = static_cast<std::int64_t>(x[c]) * scale[c];
            dst[c] = requantize(product, node.quant.shift);
          }
          x += os.c;
          dst += os.c;
        }
      }
      return out;
    }
    case OpKind::kFlatten: {
      TensorI8 out(node.out_shape);
      std::copy(in0.data(), in0.data() + in0.size(), out.data());
      return out;
    }
    case OpKind::kInput: break;
  }
  raise(ErrorCode::kInternal, "unhandled op kind in executor");
}

TensorI8 random_tensor(Shape shape, std::uint64_t seed) {
  TensorI8 tensor(shape);
  SplitMix64 rng(seed);
  for (std::int64_t i = 0; i < tensor.size(); ++i) tensor.data()[i] = rng.next_int8();
  return tensor;
}

}  // namespace cimflow::graph
