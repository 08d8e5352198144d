// GEMM benchmark: naive MatMulTransposedB vs the prepacked cache-blocked
// GEMM (src/tensor/packed_matrix.h), fp32 and int8, on the projection
// shapes of the paper's models (Table 1). Two regimes:
//   * prefill — m = --prefill_m activation rows (default 512);
//   * decode  — m in --decode_ms (default 1,2,4,8), where the packed GEMM
//     takes the panel-partitioned GEMV path so m = 1 still uses every
//     thread. A --gemv_threads sweep records how that path scales for both
//     weight formats.
//
// The quantized entries double as an accuracy gate: every int8 timing shape
// first compares its output against the fp32 packed result and the run
// fails if the relative error exceeds --int8_gate (a perplexity proxy —
// logit-scale weight error feeds the final projection directly).
//
// Emits machine-readable JSON (default BENCH_gemm.json): one entry per
// (model, shape, m, impl, threads) with seconds per call, GFLOP/s, tokens/s
// and weight bytes streamed per token. --smoke shrinks the sweep for CI.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_serving_common.h"
#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/model/model_config.h"
#include "src/tensor/ops.h"
#include "src/tensor/packed_matrix.h"
#include "src/tensor/tensor.h"

namespace pensieve {
namespace {

struct GemmShape {
  const char* name;  // which projection this is
  int64_t n;         // output features (weight rows)
  int64_t k;         // input features (weight cols)
};

std::vector<GemmShape> ModelShapes(const ModelConfig& config) {
  const int64_t qkv_out =
      (config.num_heads + 2 * config.num_kv_heads) * config.head_dim;
  return {
      {"qkv_proj", qkv_out, config.hidden_size},
      {"attn_out", config.hidden_size, config.num_heads * config.head_dim},
      {"ffn_up", config.ffn_hidden, config.hidden_size},
      {"ffn_down", config.hidden_size, config.ffn_hidden},
  };
}

// Fills a rank-2 operand with N(0, stddev) values in fixed 64-row blocks,
// each block drawn from its own seed derived from (seed, block index), with
// the blocks spread over the thread pool. The values depend on the seed and
// the shape only, never on the thread count. One serial stream would spend
// seconds on an OPT-13B projection (~100M values).
void FillNormalBlocked(Tensor& x, uint64_t seed, float stddev) {
  constexpr int64_t kBlockRows = 64;
  PENSIEVE_CHECK_EQ(x.rank(), 2u);
  const int64_t rows = x.dim(0);
  const int64_t cols = x.dim(1);
  ParallelFor(0, (rows + kBlockRows - 1) / kBlockRows, [&](int64_t begin, int64_t end) {
    for (int64_t b = begin; b < end; ++b) {
      const int64_t first = b * kBlockRows;
      Tensor block = Tensor::Borrowed(x.data() + first * cols,
                                      {std::min(kBlockRows, rows - first), cols});
      FillNormal(block, (seed << 32) + static_cast<uint64_t>(b), stddev);
    }
  });
}

struct Entry {
  std::string model;
  std::string shape;
  std::string impl;
  int64_t m, k, n;
  int threads;
  double seconds;  // per call
  double gflops;
  double tokens_per_s;
  // Weight bytes a token's GEMV must stream from memory: the decode regime
  // is bandwidth-bound, so this is the quantity int8 weights halve+.
  double bytes_streamed_per_token = 0.0;
};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times fn, repeating until the total exceeds min_time (one rep minimum),
// and returns seconds per call.
template <typename Fn>
double TimePerCall(const Fn& fn, double min_time) {
  fn();  // warm caches and the thread-pool dispatch path
  int64_t reps = 0;
  const double start = Now();
  double elapsed = 0.0;
  do {
    fn();
    ++reps;
    elapsed = Now() - start;
  } while (elapsed < min_time);
  return elapsed / static_cast<double>(reps);
}

std::vector<int64_t> ParseIntList(const std::string& csv) {
  std::vector<int64_t> out;
  std::string cur;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!cur.empty()) {
        out.push_back(std::strtoll(cur.c_str(), nullptr, 10));
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  return out;
}

std::vector<std::string> ParseStringList(const std::string& csv) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : csv + ",") {
    if (c == ',') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  return out;
}

Entry MakeEntry(const std::string& model, const GemmShape& shape,
                const std::string& impl, int64_t m, int threads, double seconds,
                int64_t weight_bytes) {
  Entry e;
  e.model = model;
  e.shape = shape.name;
  e.impl = impl;
  e.m = m;
  e.k = shape.k;
  e.n = shape.n;
  e.threads = threads;
  e.seconds = seconds;
  e.gflops = 2.0 * static_cast<double>(m) * static_cast<double>(shape.k) *
             static_cast<double>(shape.n) / seconds / 1e9;
  e.tokens_per_s = static_cast<double>(m) / seconds;
  // Every token of the batch streams the whole operand once (the microkernel
  // reuses a weight panel across the batch's rows, so per-token traffic
  // shrinks as m grows).
  e.bytes_streamed_per_token =
      static_cast<double>(weight_bytes) / static_cast<double>(m);
  return e;
}

// Relative L-inf error of the int8 path against the fp32 packed result on
// this shape — a perplexity proxy (the same weights feed the final logit
// projection). Returns the error; the caller gates on it.
double Int8RelError(const Tensor& a, const PackedMatrix& fp32,
                    const PackedMatrix& int8) {
  Tensor ref({a.dim(0), fp32.out_dim()});
  Tensor got({a.dim(0), int8.out_dim()});
  MatMulPackedInto(a, fp32, &ref);
  MatMulPackedInto(a, int8, &got);
  float max_abs = 0.0f;
  float max_delta = 0.0f;
  for (int64_t i = 0; i < ref.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(ref.data()[i]));
    max_delta = std::max(max_delta, std::fabs(ref.data()[i] - got.data()[i]));
  }
  return max_abs > 0.0f ? static_cast<double>(max_delta) / max_abs : 0.0;
}

void WriteJson(const std::string& path, const std::vector<Entry>& entries) {
  FILE* f = std::fopen(path.c_str(), "w");
  PENSIEVE_CHECK(f != nullptr) << "cannot open " << path;
  std::fprintf(f, "%s  \"entries\": [\n", BenchJsonHeader("gemm").c_str());
  for (size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(f,
                 "    {\"model\": \"%s\", \"shape\": \"%s\", \"impl\": \"%s\", "
                 "\"m\": %lld, \"k\": %lld, \"n\": %lld, \"threads\": %d, "
                 "\"seconds_per_call\": %.6e, \"gflops\": %.3f, "
                 "\"tokens_per_s\": %.1f, \"bytes_streamed_per_token\": %.1f}%s\n",
                 e.model.c_str(), e.shape.c_str(), e.impl.c_str(),
                 static_cast<long long>(e.m), static_cast<long long>(e.k),
                 static_cast<long long>(e.n), e.threads, e.seconds, e.gflops,
                 e.tokens_per_s, e.bytes_streamed_per_token,
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
}

int Run(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("json", "BENCH_gemm.json", "output JSON path");
  flags.AddString("models", "opt-13b,llama2-13b", "comma-separated presets");
  flags.AddInt("prefill_m", 512, "activation rows for the prefill regime");
  flags.AddString("decode_ms", "1,2,4,8", "batch sizes for the decode regime");
  flags.AddString("gemv_threads", "1,2,4,8",
                  "thread counts for the m=1 scaling sweep");
  flags.AddDouble("min_time", 0.2, "min seconds of timing per measurement");
  flags.AddBool("smoke", false, "CI-sized run: tiny m, one model, short sweep");
  flags.AddString("weight-quant", "both",
                  "which weight formats to sweep: fp32, int8, or both");
  flags.AddDouble("int8_gate", 0.02,
                  "max relative L-inf error of the int8 path vs fp32 before "
                  "the run fails (accuracy self-check)");
  ParseFlagsOrExit(&flags, argc, argv, "bench_gemm: packed GEMM throughput");

  int64_t prefill_m = flags.GetInt("prefill_m");
  std::vector<int64_t> decode_ms = ParseIntList(flags.GetString("decode_ms"));
  std::vector<int64_t> gemv_threads = ParseIntList(flags.GetString("gemv_threads"));
  std::vector<std::string> models = ParseStringList(flags.GetString("models"));
  double min_time = flags.GetDouble("min_time");
  if (flags.GetBool("smoke")) {
    prefill_m = 16;
    decode_ms = {1, 4};
    gemv_threads = {1, 2};
    models = {"opt-13b"};
    min_time = 0.02;
  }
  const int threads = ThreadPool::Global().num_threads();
  const std::string quant_sweep = flags.GetString("weight-quant");
  if (quant_sweep != "fp32" && quant_sweep != "int8" && quant_sweep != "both") {
    ExitWithUsage(flags,
                  "unknown --weight-quant '" + quant_sweep + "' (fp32, int8, both)");
  }
  const bool run_fp32 = quant_sweep != "int8";
  const bool run_int8 = quant_sweep != "fp32";
  const double int8_gate = flags.GetDouble("int8_gate");
  double worst_int8_error = 0.0;

  std::vector<Entry> entries;
  for (const std::string& model_name : models) {
    ModelConfig config;
    PENSIEVE_CHECK(ModelConfigByName(model_name, &config))
        << "unknown model " << model_name;
    for (const GemmShape& shape : ModelShapes(config)) {
      Tensor w({shape.n, shape.k});
      FillNormalBlocked(w, 1, 0.02f);
      const PackedMatrix packed(w);
      const PackedMatrix packed_int8(w, QuantMode::kInt8);
      const int64_t naive_bytes =
          shape.n * shape.k * static_cast<int64_t>(sizeof(float));
      Tensor a({prefill_m, shape.k});
      FillNormalBlocked(a, 2, 1.0f);
      Tensor c({prefill_m, shape.n});
      std::printf("%s %s [n=%lld k=%lld] ...\n", model_name.c_str(), shape.name,
                  static_cast<long long>(shape.n), static_cast<long long>(shape.k));
      if (run_int8) {
        // Accuracy gate before any timing on this shape.
        Tensor probe({8, shape.k});
        FillNormalBlocked(probe, 6, 1.0f);
        const double err = Int8RelError(probe, packed, packed_int8);
        worst_int8_error = std::max(worst_int8_error, err);
        PENSIEVE_CHECK(err <= int8_gate)
            << shape.name << " int8 rel error " << err << " exceeds gate "
            << int8_gate;
      }
      // Prefill regime.
      if (run_fp32) {
        const double naive_s =
            TimePerCall([&] { MatMulTransposedB(a, w); }, min_time);
        entries.push_back(MakeEntry(model_name, shape, "naive", prefill_m,
                                    threads, naive_s, naive_bytes));
        const double packed_s =
            TimePerCall([&] { MatMulPackedInto(a, packed, &c); }, min_time);
        entries.push_back(MakeEntry(model_name, shape, "packed", prefill_m,
                                    threads, packed_s, packed.PackedBytes()));
        std::printf("  prefill m=%lld: naive %.2f GFLOP/s, packed %.2f GFLOP/s "
                    "(%.2fx)\n",
                    static_cast<long long>(prefill_m),
                    entries[entries.size() - 2].gflops, entries.back().gflops,
                    naive_s / packed_s);
      }
      if (run_int8) {
        const double int8_s =
            TimePerCall([&] { MatMulPackedInto(a, packed_int8, &c); }, min_time);
        entries.push_back(MakeEntry(model_name, shape, "packed_int8", prefill_m,
                                    threads, int8_s, packed_int8.PackedBytes()));
        std::printf("  prefill m=%lld: packed_int8 %.2f GFLOP/s\n",
                    static_cast<long long>(prefill_m), entries.back().gflops);
      }
      // Decode regime.
      for (int64_t m : decode_ms) {
        Tensor ad({m, shape.k});
        FillNormalBlocked(ad, 3, 1.0f);
        Tensor cd({m, shape.n});
        if (run_fp32) {
          const double dn =
              TimePerCall([&] { MatMulTransposedB(ad, w); }, min_time);
          entries.push_back(
              MakeEntry(model_name, shape, "naive", m, threads, dn, naive_bytes));
          const double dp =
              TimePerCall([&] { MatMulPackedInto(ad, packed, &cd); }, min_time);
          entries.push_back(MakeEntry(model_name, shape, "packed", m, threads,
                                      dp, packed.PackedBytes()));
        }
        if (run_int8) {
          const double dq = TimePerCall(
              [&] { MatMulPackedInto(ad, packed_int8, &cd); }, min_time);
          entries.push_back(MakeEntry(model_name, shape, "packed_int8", m,
                                      threads, dq, packed_int8.PackedBytes()));
        }
      }
    }
    // m = 1 GEMV thread-scaling sweep on the model's largest projection,
    // fp32 vs int8: the decode path is bandwidth-bound, so the int8 panels'
    // halved stream should show up directly as tokens/s.
    const GemmShape gemv_shape = ModelShapes(config)[2];  // ffn_up
    Tensor w({gemv_shape.n, gemv_shape.k});
    FillNormalBlocked(w, 4, 0.02f);
    const PackedMatrix packed(w);
    const PackedMatrix packed_int8(w, QuantMode::kInt8);
    Tensor a({1, gemv_shape.k});
    FillNormalBlocked(a, 5, 1.0f);
    Tensor c({1, gemv_shape.n});
    for (int64_t t : gemv_threads) {
      ThreadPool::SetGlobalThreads(static_cast<int>(t));
      double fp32_tps = 0.0;
      if (run_fp32) {
        const double s =
            TimePerCall([&] { MatMulPackedInto(a, packed, &c); }, min_time);
        entries.push_back(MakeEntry(model_name, gemv_shape, "packed_gemv", 1,
                                    static_cast<int>(t), s, packed.PackedBytes()));
        fp32_tps = entries.back().tokens_per_s;
      }
      if (run_int8) {
        const double s = TimePerCall(
            [&] { MatMulPackedInto(a, packed_int8, &c); }, min_time);
        entries.push_back(MakeEntry(model_name, gemv_shape, "packed_int8_gemv",
                                    1, static_cast<int>(t), s,
                                    packed_int8.PackedBytes()));
        if (fp32_tps > 0.0) {
          std::printf("  gemv m=1 threads=%lld: fp32 %.1f tok/s, int8 %.1f "
                      "tok/s (%.2fx)\n",
                      static_cast<long long>(t), fp32_tps,
                      entries.back().tokens_per_s,
                      entries.back().tokens_per_s / fp32_tps);
        } else {
          std::printf("  gemv m=1 threads=%lld: int8 %.1f tokens/s\n",
                      static_cast<long long>(t), entries.back().tokens_per_s);
        }
      } else {
        std::printf("  gemv m=1 threads=%lld: %.1f tokens/s\n",
                    static_cast<long long>(t), fp32_tps);
      }
    }
    ThreadPool::SetGlobalThreads(static_cast<int>(flags.GetInt("threads")));
  }

  if (run_int8) {
    std::printf("int8 self-check: max rel error %.5f (gate %.3f)\n",
                worst_int8_error, int8_gate);
  }
  WriteJson(flags.GetString("json"), entries);
  return 0;
}

}  // namespace
}  // namespace pensieve

int main(int argc, char** argv) { return pensieve::Run(argc, argv); }
