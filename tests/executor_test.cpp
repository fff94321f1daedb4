// Unit tests for the golden INT8 reference executor: hand-computed cases
// per operator, quantization semantics, padding behavior and batch handling,
// plus a seeded differential test against naive per-element loops.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "cimflow/graph/executor.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/support/numeric.hpp"
#include "cimflow/support/rng.hpp"

namespace cimflow::graph {
namespace {

/// Builds a 1-channel 1x1-kernel conv whose weight and bias we control.
Graph identity_conv(std::int8_t weight, std::int32_t bias, int shift) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 2, 2, 1});
  const NodeId conv = g.add_conv2d(in, ConvAttrs{1, 1, 1, 0});
  g.mutable_node(conv).weights->at(0) = weight;
  g.mutable_node(conv).bias->at(0) = bias;
  g.mutable_node(conv).quant.shift = shift;
  g.set_output(conv);
  return g;
}

TensorI8 make_input(std::initializer_list<std::int8_t> values, Shape shape) {
  TensorI8 t(shape);
  std::int64_t i = 0;
  for (std::int8_t v : values) t.data()[i++] = v;
  return t;
}

TEST(ExecutorTest, ConvQuantizesWithRounding) {
  Graph g = identity_conv(/*weight=*/3, /*bias=*/1, /*shift=*/1);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({10, -10, 5, 0}, Shape{1, 2, 2, 1})});
  // acc = 3*x + 1, then rounding >> 1
  EXPECT_EQ(out.at(0, 0, 0, 0), 16);   // (31) >> 1 -> 15.5 -> 16
  EXPECT_EQ(out.at(0, 0, 1, 0), -15);  // (-29) >> 1 -> -14.5 -> -15 (away from 0)
  EXPECT_EQ(out.at(0, 1, 0, 0), 8);    // (16) >> 1 -> 8
  EXPECT_EQ(out.at(0, 1, 1, 0), 1);    // (1) >> 1 -> 0.5 -> 1
}

TEST(ExecutorTest, ConvSaturates) {
  Graph g = identity_conv(/*weight=*/127, /*bias=*/0, /*shift=*/0);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({127, -128, 0, 1}, Shape{1, 2, 2, 1})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 127);   // 16129 saturates
  EXPECT_EQ(out.at(0, 0, 1, 0), -128);  // -16256 saturates
  EXPECT_EQ(out.at(0, 1, 1, 0), 127);
}

TEST(ExecutorTest, ConvPaddingContributesZero) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 2, 2, 1});
  const NodeId conv = g.add_conv2d(in, ConvAttrs{1, 3, 1, 1});
  std::fill(g.mutable_node(conv).weights->begin(),
            g.mutable_node(conv).weights->end(), std::int8_t{1});
  g.mutable_node(conv).quant.shift = 0;
  g.set_output(conv);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({1, 2, 3, 4}, Shape{1, 2, 2, 1})});
  // 3x3 all-ones kernel over a 2x2 map: every output is the full sum = 10,
  // minus what falls outside (padding contributes zero).
  EXPECT_EQ(out.at(0, 0, 0, 0), 10);
  EXPECT_EQ(out.at(0, 1, 1, 0), 10);
}

TEST(ExecutorTest, ReluClampsBothEnds) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 1, 1, 4});
  const NodeId relu = g.add_relu(in, /*hi=*/50);
  g.set_output(relu);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({-3, 0, 20, 100}, Shape{1, 1, 1, 4})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 0);
  EXPECT_EQ(out.at(0, 0, 0, 1), 0);
  EXPECT_EQ(out.at(0, 0, 0, 2), 20);
  EXPECT_EQ(out.at(0, 0, 0, 3), 50);
}

TEST(ExecutorTest, AddSaturates) {
  Graph g;
  const NodeId a = g.add_input(Shape{1, 1, 1, 2}, "a");
  const NodeId b = g.add_input(Shape{1, 1, 1, 2}, "b");
  const NodeId sum = g.add_add(a, b);
  g.set_output(sum);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({100, -100}, Shape{1, 1, 1, 2}),
                                 make_input({100, -100}, Shape{1, 1, 1, 2})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 127);
  EXPECT_EQ(out.at(0, 0, 0, 1), -128);
}

TEST(ExecutorTest, MaxPoolUsesNegativeInfinityPadding) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 2, 2, 1});
  const NodeId pool = g.add_max_pool(in, PoolAttrs{3, 2, 1});
  g.set_output(pool);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({-5, -6, -7, -8}, Shape{1, 2, 2, 1})});
  // All-negative input: padding must NOT contribute zeros.
  EXPECT_EQ(out.at(0, 0, 0, 0), -5);
}

TEST(ExecutorTest, AvgPoolRoundsOverFullKernelArea) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 2, 2, 1});
  const NodeId pool = g.add_avg_pool(in, PoolAttrs{2, 2, 0});
  g.set_output(pool);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({1, 2, 3, 5}, Shape{1, 2, 2, 1})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 3);  // 11/4 = 2.75 -> 3
}

TEST(ExecutorTest, GlobalAvgPoolMatchesMean) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 2, 2, 2});
  const NodeId gap = g.add_global_avg_pool(in);
  g.set_output(gap);
  ReferenceExecutor exec(g);
  // Channel 0: {4, -4, 8, 0} -> mean 2; channel 1: {1, 1, 1, 2} -> 1.25 -> 1
  const TensorI8 out =
      exec.run({make_input({4, 1, -4, 1, 8, 1, 0, 2}, Shape{1, 2, 2, 2})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 2);
  EXPECT_EQ(out.at(0, 0, 0, 1), 1);
}

TEST(ExecutorTest, LutAppliesTable) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 1, 1, 3});
  LutAttrs lut;
  for (int i = 0; i < 256; ++i) {
    lut.table[static_cast<std::size_t>(i)] =
        saturate_int8(-static_cast<std::int8_t>(i));  // negation table
  }
  const NodeId out_node = g.add_lut(in, lut);
  g.set_output(out_node);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({5, -7, 0}, Shape{1, 1, 1, 3})});
  EXPECT_EQ(out.at(0, 0, 0, 0), -5);
  EXPECT_EQ(out.at(0, 0, 0, 1), 7);
  EXPECT_EQ(out.at(0, 0, 0, 2), 0);
}

TEST(ExecutorTest, ScaleChannelsPerChannel) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 1, 2, 2});
  const NodeId gate = g.add_input(Shape{1, 1, 1, 2}, "gate");
  const NodeId scaled = g.add_scale_channels(in, gate);
  g.set_output(scaled);
  ReferenceExecutor exec(g);
  // shift is 7: out = round(a * s / 128)
  const TensorI8 out = exec.run({make_input({64, 64, -64, 100}, Shape{1, 1, 2, 2}),
                                 make_input({127, 64}, Shape{1, 1, 1, 2})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 64);   // 64*127/128 = 63.5 -> 64
  EXPECT_EQ(out.at(0, 0, 0, 1), 32);   // 64*64/128 = 32
  EXPECT_EQ(out.at(0, 0, 1, 0), -64);  // -64*127/128 -> -63.5 -> -64
  EXPECT_EQ(out.at(0, 0, 1, 1), 50);   // 100*64/128 = 50
}

TEST(ExecutorTest, DepthwiseIsPerChannel) {
  Graph g;
  const NodeId in = g.add_input(Shape{1, 1, 1, 2});
  const NodeId dw = g.add_depthwise_conv2d(in, 1, 1, 0);
  (*g.mutable_node(dw).weights)[0] = 2;
  (*g.mutable_node(dw).weights)[1] = -3;
  g.mutable_node(dw).quant.shift = 0;
  g.set_output(dw);
  ReferenceExecutor exec(g);
  const TensorI8 out = exec.run({make_input({10, 10}, Shape{1, 1, 1, 2})});
  EXPECT_EQ(out.at(0, 0, 0, 0), 20);
  EXPECT_EQ(out.at(0, 0, 0, 1), -30);
}

TEST(ExecutorTest, PerLayerValuesAccessible) {
  Graph g = identity_conv(1, 0, 0);
  ReferenceExecutor exec(g);
  exec.run({make_input({1, 2, 3, 4}, Shape{1, 2, 2, 1})});
  EXPECT_EQ(exec.value(1).at(0, 1, 1, 0), 4);
}

TEST(ExecutorTest, InputValidation) {
  Graph g = identity_conv(1, 0, 0);
  ReferenceExecutor exec(g);
  EXPECT_THROW(exec.run({}), Error);  // wrong input count
  EXPECT_THROW(exec.run({TensorI8(Shape{1, 3, 3, 1})}), Error);  // wrong shape
}

// --- differential test against naive loops ----------------------------------
//
// The executor computes conv as im2col + chunked int32 dot products and walks
// channels innermost everywhere else. The loops below are the direct
// definitions (one multiply-accumulate per bounds-checked element access,
// int64 accumulators); the executor must match them byte for byte.

std::int8_t naive_requantize(std::int64_t acc, int shift) {
  return saturate_int8(rounding_shift_right(acc, shift));
}

std::int32_t naive_rounded_div(std::int64_t sum, std::int64_t area) {
  if (sum >= 0) return static_cast<std::int32_t>((sum + area / 2) / area);
  return static_cast<std::int32_t>(-((-sum + area / 2) / area));
}

TensorI8 naive_conv(const Node& node, const TensorI8& in) {
  const ConvAttrs& a = std::get<ConvAttrs>(node.attrs);
  const Shape is = in.shape();
  TensorI8 out(node.out_shape);
  const std::vector<std::int8_t>& w = *node.weights;
  const std::vector<std::int32_t>& bias = *node.bias;
  for (std::int64_t n = 0; n < out.shape().n; ++n) {
    for (std::int64_t p = 0; p < out.shape().h; ++p) {
      for (std::int64_t q = 0; q < out.shape().w; ++q) {
        for (std::int64_t k = 0; k < a.out_channels; ++k) {
          std::int64_t acc = bias[static_cast<std::size_t>(k)];
          for (std::int64_t r = 0; r < a.kernel; ++r) {
            const std::int64_t ih = p * a.stride + r - a.pad;
            if (ih < 0 || ih >= is.h) continue;
            for (std::int64_t s = 0; s < a.kernel; ++s) {
              const std::int64_t iw = q * a.stride + s - a.pad;
              if (iw < 0 || iw >= is.w) continue;
              for (std::int64_t c = 0; c < is.c; ++c) {
                const std::int64_t widx = ((k * a.kernel + r) * a.kernel + s) * is.c + c;
                acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(widx)]) *
                       in.at(n, ih, iw, c);
              }
            }
          }
          out.at(n, p, q, k) = naive_requantize(acc, node.quant.shift);
        }
      }
    }
  }
  return out;
}

TensorI8 naive_depthwise(const Node& node, const TensorI8& in) {
  const ConvAttrs& a = std::get<ConvAttrs>(node.attrs);
  const Shape is = in.shape();
  TensorI8 out(node.out_shape);
  const std::vector<std::int8_t>& w = *node.weights;
  const std::vector<std::int32_t>& bias = *node.bias;
  for (std::int64_t n = 0; n < out.shape().n; ++n) {
    for (std::int64_t p = 0; p < out.shape().h; ++p) {
      for (std::int64_t q = 0; q < out.shape().w; ++q) {
        for (std::int64_t c = 0; c < is.c; ++c) {
          std::int64_t acc = bias[static_cast<std::size_t>(c)];
          for (std::int64_t r = 0; r < a.kernel; ++r) {
            const std::int64_t ih = p * a.stride + r - a.pad;
            if (ih < 0 || ih >= is.h) continue;
            for (std::int64_t s = 0; s < a.kernel; ++s) {
              const std::int64_t iw = q * a.stride + s - a.pad;
              if (iw < 0 || iw >= is.w) continue;
              const std::int64_t widx = (c * a.kernel + r) * a.kernel + s;
              acc += static_cast<std::int64_t>(w[static_cast<std::size_t>(widx)]) *
                     in.at(n, ih, iw, c);
            }
          }
          out.at(n, p, q, c) = naive_requantize(acc, node.quant.shift);
        }
      }
    }
  }
  return out;
}

TensorI8 naive_fc(const Node& node, const TensorI8& in) {
  const std::int64_t out_features = std::get<FcAttrs>(node.attrs).out_features;
  const std::int64_t in_features = in.shape().per_image();
  TensorI8 out(node.out_shape);
  for (std::int64_t n = 0; n < in.shape().n; ++n) {
    for (std::int64_t o = 0; o < out_features; ++o) {
      std::int64_t acc = (*node.bias)[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < in_features; ++i) {
        acc += static_cast<std::int64_t>(
                   (*node.weights)[static_cast<std::size_t>(o * in_features + i)]) *
               in.data()[n * in_features + i];
      }
      out.at(n, 0, 0, o) = naive_requantize(acc, node.quant.shift);
    }
  }
  return out;
}

/// Max pooling (-inf padding), average pooling (zero padding over the full
/// kernel area) and, with `global`, the whole-map average.
TensorI8 naive_pool(const Node& node, const TensorI8& in) {
  const Shape is = in.shape();
  const bool global = node.kind == OpKind::kGlobalAvgPool;
  const bool average = node.kind != OpKind::kMaxPool;
  const PoolAttrs a = global ? PoolAttrs{0, 1, 0} : std::get<PoolAttrs>(node.attrs);
  TensorI8 out(node.out_shape);
  const std::int64_t area = global ? is.h * is.w : a.kernel * a.kernel;
  for (std::int64_t n = 0; n < out.shape().n; ++n) {
    for (std::int64_t p = 0; p < out.shape().h; ++p) {
      for (std::int64_t q = 0; q < out.shape().w; ++q) {
        for (std::int64_t c = 0; c < is.c; ++c) {
          std::int64_t sum = 0;
          std::int32_t best = -128;
          for (std::int64_t r = 0; r < (global ? is.h : a.kernel); ++r) {
            const std::int64_t ih = p * a.stride + r - a.pad;
            if (ih < 0 || ih >= is.h) continue;
            for (std::int64_t s = 0; s < (global ? is.w : a.kernel); ++s) {
              const std::int64_t iw = q * a.stride + s - a.pad;
              if (iw < 0 || iw >= is.w) continue;
              sum += in.at(n, ih, iw, c);
              best = std::max<std::int32_t>(best, in.at(n, ih, iw, c));
            }
          }
          out.at(n, p, q, c) = average ? saturate_int8(naive_rounded_div(sum, area))
                                       : static_cast<std::int8_t>(best);
        }
      }
    }
  }
  return out;
}

TensorI8 naive_eval(const Node& node, const TensorI8& in) {
  switch (node.kind) {
    case OpKind::kConv2d: return naive_conv(node, in);
    case OpKind::kDepthwiseConv2d: return naive_depthwise(node, in);
    case OpKind::kFullyConnected: return naive_fc(node, in);
    default: return naive_pool(node, in);
  }
}

/// Fills a node's weights, biases and shift from `rng`. One case in four
/// uses all-extreme weights; biases are drawn near +-2^31 half the time.
void randomize_params(Node& node, SplitMix64& rng) {
  const bool extreme = rng.next_below(4) == 0;
  const std::int8_t fill = rng.next_below(2) == 0 ? std::int8_t{-128} : std::int8_t{127};
  for (std::int8_t& w : *node.weights) w = extreme ? fill : rng.next_int8();
  constexpr std::int64_t kLo = std::numeric_limits<std::int32_t>::min();
  constexpr std::int64_t kHi = std::numeric_limits<std::int32_t>::max();
  for (std::int32_t& b : *node.bias) {
    switch (rng.next_below(4)) {
      case 0: b = static_cast<std::int32_t>(rng.next_in(kLo, kLo + 100000)); break;
      case 1: b = static_cast<std::int32_t>(rng.next_in(kHi - 100000, kHi)); break;
      default: b = static_cast<std::int32_t>(rng.next_in(-100000, 100000)); break;
    }
  }
  node.quant.shift = static_cast<int>(rng.next_in(0, 31));
}

/// Random input; one case in four is all -128 (the largest products).
TensorI8 random_input(Shape shape, SplitMix64& rng) {
  TensorI8 t = random_tensor(shape, rng.next());
  if (rng.next_below(4) == 0) std::fill_n(t.data(), t.size(), std::int8_t{-128});
  return t;
}

/// Runs the single-operator graph `g` (input -> op) through the executor and
/// the naive loops, and reports the first differing byte.
void expect_matches_naive(Graph& g, NodeId op, SplitMix64& rng, const std::string& label) {
  g.set_output(op);
  const TensorI8 input = random_input(g.node(g.inputs().front()).out_shape, rng);
  ReferenceExecutor exec(g);
  const TensorI8 got = exec.run({input});
  const TensorI8 want = naive_eval(g.node(op), input);
  ASSERT_EQ(got.shape(), want.shape()) << label;
  const auto diff = std::mismatch(got.data(), got.data() + got.size(), want.data());
  EXPECT_EQ(diff.first, got.data() + got.size())
      << label << ": first mismatch at byte " << (diff.first - got.data()) << " (got "
      << int{*diff.first} << ", want " << int{*diff.second} << ")";
}

constexpr std::int64_t kKernels[] = {1, 3, 5, 7};
constexpr std::int64_t kChannels[] = {1, 3, 17, 64};

/// Odd map edge that fits the kernel without padding.
std::int64_t odd_edge(std::int64_t kernel, SplitMix64& rng) {
  return kernel + 2 * rng.next_in(0, 3);
}

TEST(ExecutorDifferentialTest, ConvMatchesNaiveLoops) {
  SplitMix64 rng(0xC0417);
  for (int trial = 0; trial < 48; ++trial) {
    const std::int64_t kernel = kKernels[rng.next_below(4)];
    const std::int64_t channels = kChannels[rng.next_below(4)];
    const ConvAttrs attrs{rng.next_in(1, 80), kernel, rng.next_in(1, 2),
                          rng.next_in(0, kernel / 2)};
    const Shape shape{rng.next_in(1, 2), odd_edge(kernel, rng), odd_edge(kernel, rng),
                      channels};
    Graph g;
    const NodeId conv = g.add_conv2d(g.add_input(shape), attrs);
    randomize_params(g.mutable_node(conv), rng);
    expect_matches_naive(g, conv, rng,
                         "conv trial " + std::to_string(trial) + " in " +
                             shape.to_string() + " k" + std::to_string(kernel) + " s" +
                             std::to_string(attrs.stride) + " p" +
                             std::to_string(attrs.pad));
  }
}

TEST(ExecutorDifferentialTest, DepthwiseMatchesNaiveLoops) {
  SplitMix64 rng(0xD3E7);
  for (int trial = 0; trial < 48; ++trial) {
    const std::int64_t kernel = kKernels[rng.next_below(4)];
    const std::int64_t stride = rng.next_in(1, 2);
    const std::int64_t pad = rng.next_in(0, kernel / 2);
    const Shape shape{rng.next_in(1, 2), odd_edge(kernel, rng), odd_edge(kernel, rng),
                      kChannels[rng.next_below(4)]};
    Graph g;
    const NodeId dw = g.add_depthwise_conv2d(g.add_input(shape), kernel, stride, pad);
    randomize_params(g.mutable_node(dw), rng);
    expect_matches_naive(g, dw, rng,
                         "depthwise trial " + std::to_string(trial) + " in " +
                             shape.to_string() + " k" + std::to_string(kernel));
  }
}

TEST(ExecutorDifferentialTest, FullyConnectedMatchesNaiveLoops) {
  SplitMix64 rng(0xFC);
  for (int trial = 0; trial < 24; ++trial) {
    // in_features = h*w*c, deliberately not a multiple of 16.
    std::int64_t c = rng.next_in(1, 300);
    if (c % 16 == 0) ++c;
    const Shape shape{rng.next_in(1, 3), 1, 1, c};
    Graph g;
    const NodeId fc = g.add_fully_connected(g.add_input(shape), rng.next_in(1, 40));
    randomize_params(g.mutable_node(fc), rng);
    expect_matches_naive(g, fc, rng,
                         "fc trial " + std::to_string(trial) + " in " + shape.to_string());
  }
}

TEST(ExecutorDifferentialTest, PoolsMatchNaiveLoops) {
  SplitMix64 rng(0x9001);
  for (int trial = 0; trial < 48; ++trial) {
    const std::int64_t kernel = rng.next_in(1, 5);
    const PoolAttrs attrs{kernel, rng.next_in(1, 2), rng.next_in(0, kernel / 2)};
    const Shape shape{rng.next_in(1, 2), odd_edge(kernel, rng), odd_edge(kernel, rng),
                      kChannels[rng.next_below(4)]};
    Graph g;
    const NodeId in = g.add_input(shape);
    NodeId pool;
    switch (trial % 3) {
      case 0: pool = g.add_max_pool(in, attrs); break;
      case 1: pool = g.add_avg_pool(in, attrs); break;
      default: pool = g.add_global_avg_pool(in); break;
    }
    expect_matches_naive(g, pool, rng,
                         "pool trial " + std::to_string(trial) + " in " +
                             shape.to_string() + " k" + std::to_string(kernel));
  }
}

// A 1x1 conv over more than 2^17 channels with every product at its maximum,
// 128 * 128 = 2^14: the dot product exceeds 2^31, so it only comes out exact
// if the int32 partial sums are widened in chunks.
TEST(ExecutorDifferentialTest, WideConvDotDoesNotOverflowInt32) {
  constexpr std::int64_t kWide = (std::int64_t{1} << 17) + 7;
  Graph g;
  const NodeId in = g.add_input(Shape{1, 1, 1, kWide});
  const NodeId conv = g.add_conv2d(in, ConvAttrs{2, 1, 1, 0});
  Node& node = g.mutable_node(conv);
  std::fill_n(node.weights->begin(), kWide, std::int8_t{-128});  // products +2^14
  std::fill(node.weights->begin() + kWide, node.weights->end(), std::int8_t{127});
  (*node.bias)[0] = std::numeric_limits<std::int32_t>::max();
  (*node.bias)[1] = std::numeric_limits<std::int32_t>::min();
  node.quant.shift = 31;
  g.set_output(conv);
  TensorI8 input(Shape{1, 1, 1, kWide});
  std::fill_n(input.data(), input.size(), std::int8_t{-128});
  ReferenceExecutor exec(g);
  const TensorI8 got = exec.run({input});
  const TensorI8 want = naive_conv(g.node(conv), input);
  // (2^31 - 1 + kWide * 2^14) >> 31 rounds to 2; -(2^31 + kWide * 127 * 128) >> 31
  // rounds to -2.
  EXPECT_EQ(want.at(0, 0, 0, 0), 2);
  EXPECT_EQ(want.at(0, 0, 0, 1), -2);
  EXPECT_EQ(got.at(0, 0, 0, 0), want.at(0, 0, 0, 0));
  EXPECT_EQ(got.at(0, 0, 0, 1), want.at(0, 0, 0, 1));
}

// The depthwise counterpart: one channel under a 363x363 kernel sums
// 131769 > 2^17 taps, so its per-channel int32 accumulator must be widened in
// chunks too.
TEST(ExecutorDifferentialTest, WideDepthwiseDoesNotOverflowInt32) {
  constexpr std::int64_t kEdge = 363;
  Graph g;
  const NodeId in = g.add_input(Shape{1, kEdge, kEdge, 1});
  const NodeId dw = g.add_depthwise_conv2d(in, kEdge, 1, 0);
  Node& node = g.mutable_node(dw);
  std::fill(node.weights->begin(), node.weights->end(), std::int8_t{-128});
  node.quant.shift = 31;
  g.set_output(dw);
  TensorI8 input(Shape{1, kEdge, kEdge, 1});
  std::fill_n(input.data(), input.size(), std::int8_t{-128});
  ReferenceExecutor exec(g);
  const TensorI8 got = exec.run({input});
  const TensorI8 want = naive_depthwise(g.node(dw), input);
  EXPECT_EQ(want.at(0, 0, 0, 0), 1);  // 131769 * 2^14 >> 31 rounds to 1
  EXPECT_EQ(got.at(0, 0, 0, 0), want.at(0, 0, 0, 0));
}

}  // namespace
}  // namespace cimflow::graph
