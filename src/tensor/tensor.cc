#include "src/tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pensieve {

namespace {

int64_t ComputeNumel(const Shape& shape) {
  int64_t numel = 1;
  for (int64_t d : shape) {
    PENSIEVE_CHECK_GE(d, 0);
    numel *= d;
  }
  return numel;
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(shape), numel_(ComputeNumel(shape_)),
      data_(static_cast<size_t>(numel_), 0.0f) {}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(shape), numel_(ComputeNumel(shape_)), data_(std::move(data)) {
  PENSIEVE_CHECK_EQ(static_cast<int64_t>(data_.size()), numel_);
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(shape); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t(shape);
  std::fill(t.data_.begin(), t.data_.end(), value);
  return t;
}

Tensor Tensor::Borrowed(float* buffer, Shape shape) {
  Tensor t;
  t.shape_ = shape;
  t.numel_ = ComputeNumel(t.shape_);
  PENSIEVE_CHECK(buffer != nullptr || t.numel_ == 0);
  t.view_ = buffer;
  return t;
}

int64_t Tensor::FlatIndex(std::initializer_list<int64_t> idx) const {
  PENSIEVE_CHECK_EQ(idx.size(), shape_.size());
  int64_t flat = 0;
  size_t i = 0;
  for (int64_t v : idx) {
    PENSIEVE_CHECK_GE(v, 0);
    PENSIEVE_CHECK_LT(v, shape_[i]);
    flat = flat * shape_[i] + v;
    ++i;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return data()[FlatIndex(idx)];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return data()[FlatIndex(idx)];
}

Tensor Tensor::Reshaped(Shape new_shape) const {
  PENSIEVE_CHECK_EQ(ComputeNumel(new_shape), numel_);
  if (view_ != nullptr) {
    return Borrowed(view_, new_shape);
  }
  return Tensor(new_shape, data_);
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  PENSIEVE_CHECK(a.SameShape(b));
  float max_diff = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    max_diff = std::max(max_diff, std::fabs(a[i] - b[i]));
  }
  return max_diff;
}

}  // namespace pensieve
