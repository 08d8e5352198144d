// Minimal dense fp32 CPU tensor used as Pensieve's numeric substrate.
//
// The paper's implementation relies on PyTorch's C++ frontend for operator
// execution; this class plus the free functions in src/tensor/ops.h is our
// from-scratch replacement, sized for the tiny validation models that the
// tests and examples run end to end.
//
// Tensors come in two flavours:
//  * owned    — the default; the buffer lives in a std::vector member.
//  * borrowed — Tensor::Borrowed wraps caller-owned storage (typically a
//    Workspace arena, see src/tensor/workspace.h) without allocating or
//    copying. Copying a borrowed tensor copies the *view* (both alias the
//    same buffer); the buffer must outlive every view. Reshaping a borrowed
//    tensor is free (returns another view of the same buffer).
//
// Shape is a fixed-capacity inline array (rank <= 4), so constructing a
// Tensor view never touches the heap — a prerequisite for the
// allocation-free forward pass.

#ifndef PENSIEVE_SRC_TENSOR_TENSOR_H_
#define PENSIEVE_SRC_TENSOR_TENSOR_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/common/logging.h"

namespace pensieve {

// Inline tensor shape: up to 4 dimensions, no heap allocation.
class Shape {
 public:
  static constexpr size_t kMaxRank = 4;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) {
    PENSIEVE_CHECK_LE(dims.size(), kMaxRank);
    for (int64_t d : dims) {
      dims_[rank_++] = d;
    }
  }

  size_t size() const { return rank_; }
  int64_t operator[](size_t i) const {
    PENSIEVE_CHECK_LT(i, rank_);
    return dims_[i];
  }
  int64_t& operator[](size_t i) {
    PENSIEVE_CHECK_LT(i, rank_);
    return dims_[i];
  }
  const int64_t* begin() const { return dims_.data(); }
  const int64_t* end() const { return dims_.data() + rank_; }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) {
      return false;
    }
    for (size_t i = 0; i < a.rank_; ++i) {
      if (a.dims_[i] != b.dims_[i]) {
        return false;
      }
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  std::array<int64_t, kMaxRank> dims_{};
  size_t rank_ = 0;
};

// Row-major dense float tensor with up to 4 dimensions.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);
  Tensor(Shape shape, std::vector<float> data);

  static Tensor Zeros(Shape shape);
  static Tensor Full(Shape shape, float value);

  // Non-owning view over caller-owned storage of numel(shape) floats. The
  // buffer must outlive the view and every copy of it; contents are left
  // untouched (not zeroed).
  static Tensor Borrowed(float* buffer, Shape shape);

  // True when the tensor owns its buffer (false for Borrowed views).
  bool owns_data() const { return view_ == nullptr; }

  const Shape& shape() const { return shape_; }
  int64_t dim(size_t i) const {
    PENSIEVE_CHECK_LT(i, shape_.size());
    return shape_[i];
  }
  size_t rank() const { return shape_.size(); }
  int64_t numel() const { return numel_; }

  float* data() { return view_ != nullptr ? view_ : data_.data(); }
  const float* data() const { return view_ != nullptr ? view_ : data_.data(); }

  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  float& operator[](int64_t flat_idx) {
    PENSIEVE_CHECK_LT(flat_idx, numel_);
    return data()[flat_idx];
  }
  float operator[](int64_t flat_idx) const {
    PENSIEVE_CHECK_LT(flat_idx, numel_);
    return data()[flat_idx];
  }

  // Reinterpret with a new shape of equal element count. For a borrowed
  // tensor this is a free alias of the same buffer; for an owned tensor the
  // data is copied.
  Tensor Reshaped(Shape new_shape) const;

  std::string ShapeString() const;

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  int64_t FlatIndex(std::initializer_list<int64_t> idx) const;

  Shape shape_;
  int64_t numel_ = 0;
  std::vector<float> data_;
  float* view_ = nullptr;  // non-null => borrowed (data_ stays empty)
};

// Max absolute elementwise difference; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace pensieve

#endif  // PENSIEVE_SRC_TENSOR_TENSOR_H_
