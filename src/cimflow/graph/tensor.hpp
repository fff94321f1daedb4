// Tensor shapes and dense INT8/INT32 tensors (NHWC activation layout).
// These are the values flowing through the computation graph and the golden
// reference executor; the simulator's functional mode reproduces them
// bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cimflow/support/status.hpp"

namespace cimflow::graph {

/// Activation shape in NHWC order. Fully-connected activations use
/// {n, 1, 1, c}. `n` is the per-graph batch and is 1 inside the compiler
/// (batching is handled by the runtime pipeline).
struct Shape {
  std::int64_t n = 1;
  std::int64_t h = 1;
  std::int64_t w = 1;
  std::int64_t c = 1;

  std::int64_t elements() const noexcept { return n * h * w * c; }
  std::int64_t per_image() const noexcept { return h * w * c; }

  bool operator==(const Shape&) const = default;

  std::string to_string() const {
    std::string out = "[";
    out += std::to_string(n);
    out += ',';
    out += std::to_string(h);
    out += ',';
    out += std::to_string(w);
    out += ',';
    out += std::to_string(c);
    out += ']';
    return out;
  }
};

/// Dense INT8 tensor in NHWC layout.
class TensorI8 {
 public:
  TensorI8() = default;
  explicit TensorI8(Shape shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.elements()), 0) {}

  const Shape& shape() const noexcept { return shape_; }
  std::int64_t size() const noexcept { return static_cast<std::int64_t>(data_.size()); }

  std::int8_t* data() noexcept { return data_.data(); }
  const std::int8_t* data() const noexcept { return data_.data(); }

  std::int8_t& at(std::int64_t n, std::int64_t h, std::int64_t w, std::int64_t c) {
    return data_[static_cast<std::size_t>(index(n, h, w, c))];
  }
  std::int8_t at(std::int64_t n, std::int64_t h, std::int64_t w, std::int64_t c) const {
    return data_[static_cast<std::size_t>(index(n, h, w, c))];
  }

  std::int64_t index(std::int64_t n, std::int64_t h, std::int64_t w,
                     std::int64_t c) const {
    CIMFLOW_CHECK(n >= 0 && n < shape_.n && h >= 0 && h < shape_.h && w >= 0 &&
                      w < shape_.w && c >= 0 && c < shape_.c,
                  "tensor index out of range");
    return ((n * shape_.h + h) * shape_.w + w) * shape_.c + c;
  }

  bool operator==(const TensorI8&) const = default;

 private:
  Shape shape_;
  std::vector<std::int8_t> data_;
};

/// Dense INT32 tensor (accumulator precision), same layout rules.
class TensorI32 {
 public:
  TensorI32() = default;
  explicit TensorI32(Shape shape)
      : shape_(shape), data_(static_cast<std::size_t>(shape.elements()), 0) {}

  const Shape& shape() const noexcept { return shape_; }
  std::int32_t* data() noexcept { return data_.data(); }
  const std::int32_t* data() const noexcept { return data_.data(); }

  std::int32_t& at(std::int64_t n, std::int64_t h, std::int64_t w, std::int64_t c) {
    return data_[static_cast<std::size_t>(
        ((n * shape_.h + h) * shape_.w + w) * shape_.c + c)];
  }

 private:
  Shape shape_;
  std::vector<std::int32_t> data_;
};

}  // namespace cimflow::graph
