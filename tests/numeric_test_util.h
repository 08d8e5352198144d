// Allocating helpers for the numeric tests. src/ exposes only the
// out-parameter forms that the forward pass uses; these wrap them so a test
// can compare results as values.

#ifndef PENSIEVE_TESTS_NUMERIC_TEST_UTIL_H_
#define PENSIEVE_TESTS_NUMERIC_TEST_UTIL_H_

#include <cstdint>
#include <vector>

#include "src/kvcache/kv_pool.h"
#include "src/model/transformer.h"
#include "src/tensor/packed_matrix.h"
#include "src/tensor/tensor.h"

namespace pensieve {

// a * w^T through MatMulPackedInto, into a freshly allocated [m, out] tensor.
inline Tensor PackedProduct(const Tensor& a, const PackedMatrix& w) {
  Tensor c({a.dim(0), w.out_dim()});
  MatMulPackedInto(a, w, &c);
  return c;
}

// Rows [begin, end) of a rank-2 tensor, copied.
inline Tensor RowSlice(const Tensor& t, int64_t begin, int64_t end) {
  const int64_t cols = t.dim(1);
  return Tensor({end - begin, cols},
                std::vector<float>(t.data() + begin * cols, t.data() + end * cols));
}

// One ForwardInto pass into fresh logits.
inline Tensor ForwardLogits(const Transformer& model, KvPool* pool,
                            const ForwardBatch& batch) {
  Tensor logits;
  model.ForwardInto(pool, batch, &logits);
  return logits;
}

}  // namespace pensieve

#endif  // PENSIEVE_TESTS_NUMERIC_TEST_UTIL_H_
