// GEMM kernel sweep: scalar vs SIMD vs SIMD+packed across square sizes and
// thread counts, plus the batch-1 matvec shape the deployed detector hits
// on every dense inference, plus the compact PilotNet's five conv GEMMs
// (positions x out_c x patch) in float and on every int8 band — narrow
// n in {8, 12, 16, 20}, the shapes the q8 rungs' forward actually runs.
// Prints a table and writes the same numbers to BENCH_gemm_kernels.json
// for CI trend tracking ("gflops" counts 2mnk ops for int8 rows too).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "parallel/parallel_for.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_int8.hpp"
#include "tensor/gemm_int8_simd.hpp"
#include "tensor/gemm_int8_vnni.hpp"
#include "tensor/pack.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace salnov;
using Clock = std::chrono::steady_clock;

/// Times `fn` adaptively: at least 3 iterations and 0.2 s of work.
/// Returns seconds per iteration (best of the measured batches).
template <typename Fn>
double time_per_call(Fn&& fn) {
  fn();  // warm-up (page-in, lazy packs, workspace growth)
  double best = 1e300;
  int64_t iters = 1;
  double total = 0.0;
  int batches = 0;
  while (total < 0.2 || batches < 3) {
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < iters; ++i) fn();
    const double dt = std::chrono::duration<double>(Clock::now() - t0).count();
    if (dt / static_cast<double>(iters) < best) best = dt / static_cast<double>(iters);
    total += dt;
    ++batches;
    if (dt < 0.02) iters *= 4;
  }
  return best;
}

struct Row {
  std::string kernel;
  int64_t m, n, k;
  int threads;
  double gflops;
  double us;  ///< microseconds per call
};

struct Shape3 {
  int64_t m, n, k;
};

/// The compact PilotNet's conv layers at 60x160 as GEMMs: output positions
/// x out channels x patch (in_c * kh * kw).
const std::vector<Shape3> kPilotNetConvShapes = {
    {2184, 8, 25}, {444, 12, 200}, {68, 16, 300}, {68, 20, 144}, {68, 20, 180}};

double ops(int64_t m, int64_t n, int64_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(k);
}

/// Seconds per call.
double run_gemm(GemmKernel kernel, bool packed, int64_t m, int64_t n, int64_t k, int threads) {
  parallel::set_num_threads(threads);
  set_gemm_kernel(kernel);
  Rng rng(17);
  const Tensor a = rng.uniform_tensor({m, k}, -1.0, 1.0);
  const Tensor b = rng.uniform_tensor({k, n}, -1.0, 1.0);
  Tensor c({m, n});
  PackedMatrix pa, pb;
  const PackedMatrix* ppa = nullptr;
  const PackedMatrix* ppb = nullptr;
  if (packed) {
    pa = pack_a_panels(a.data(), m, k);
    pb = pack_b_panels(b.data(), k, n);
    ppa = &pa;
    ppb = &pb;
  }
  return time_per_call(
      [&] { gemm_ex(a.data(), b.data(), c.data(), m, n, k, GemmEpilogue{}, ppa, ppb); });
}

struct Int8Variant {
  GemmInt8Kernel kernel;
  bool vnni;
};

/// Seconds per call of the q8 conv GEMM as QuantizedForward runs it: A in
/// the padded quant_a_stride(k) layout, pre-packed B, fused dequant + ReLU.
double run_gemm_int8(const Int8Variant& v, int64_t m, int64_t n, int64_t k, int threads) {
  parallel::set_num_threads(threads);
  set_gemm_int8_kernel(v.kernel);
  detail::set_int8_vnni(v.vnni);
  Rng rng(17);
  const int64_t lda = quant_a_stride(k);
  std::vector<uint8_t> a(static_cast<size_t>(m * lda), 0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t kk = 0; kk < k; ++kk) {
      a[static_cast<size_t>(i * lda + kk)] = static_cast<uint8_t>(rng.uniform_int(0, 127));
    }
  }
  std::vector<int8_t> b(static_cast<size_t>(k * n));
  for (auto& x : b) x = static_cast<int8_t>(rng.uniform_int(-127, 127));
  std::vector<float> bias(static_cast<size_t>(n), 0.01f);
  std::vector<float> c(static_cast<size_t>(m * n));
  const PackedQuantMatrix packed = pack_quant_b(b.data(), k, n);
  const QuantEpilogue epi{1e-3f, bias.data(), true};
  return time_per_call([&] {
    gemm_u8s8_dequant(a.data(), b.data(), c.data(), m, n, k, epi, &packed, lda);
  });
}

}  // namespace

int main() {
  std::printf("GEMM kernel sweep (simd backend: %s, packing %s by default)\n",
              gemm_simd_available() ? gemm_kernel_name(GemmKernel::kSimd) : "unavailable",
              gemm_weight_packing_enabled() ? "on" : "off");
  std::printf("%-18s %6s %6s %6s %8s %10s %10s\n", "kernel", "m", "n", "k", "threads", "GFLOP/s",
              "us/call");

  std::vector<Row> rows;
  const auto add = [&rows](const std::string& kernel, const Shape3& s, int threads, double sec) {
    const Row row{kernel, s.m, s.n, s.k, threads, ops(s.m, s.n, s.k) / sec / 1e9, sec * 1e6};
    rows.push_back(row);
    std::printf("%-18s %6lld %6lld %6lld %8d %10.2f %10.2f\n", row.kernel.c_str(),
                (long long)row.m, (long long)row.n, (long long)row.k, row.threads, row.gflops,
                row.us);
  };
  const std::vector<int64_t> sizes = {64, 128, 256, 512};
  const std::vector<int> thread_counts = {1, 4};

  struct Variant {
    const char* name;
    GemmKernel kernel;
    bool packed;
  };
  std::vector<Variant> variants = {{"scalar", GemmKernel::kScalar, false}};
  if (gemm_simd_available()) {
    variants.push_back({"simd", GemmKernel::kSimd, false});
    variants.push_back({"simd+packed", GemmKernel::kSimd, true});
  }

  for (const Variant& v : variants) {
    for (int threads : thread_counts) {
      for (int64_t n : sizes) {
        add(v.name, {n, n, n}, threads, run_gemm(v.kernel, v.packed, n, n, n, threads));
      }
      // The detector's hot dense-inference shape: batch-1 matvec through the
      // autoencoder's input layer (9600 -> 1200).
      add(v.name, {1, 1200, 9600}, threads, run_gemm(v.kernel, v.packed, 1, 1200, 9600, threads));
      for (const Shape3& s : kPilotNetConvShapes) {
        add(v.name, s, threads, run_gemm(v.kernel, v.packed, s.m, s.n, s.k, threads));
      }
    }
  }

  // Int8 rows: every band the CPU supports, on the PilotNet conv shapes.
  const GemmInt8Kernel saved_int8 = active_gemm_int8_kernel();
  const bool saved_vnni = detail::int8_vnni_enabled();
  std::vector<Int8Variant> int8_variants = {{GemmInt8Kernel::kScalar, false}};
  if (gemm_int8_simd_available()) {
    int8_variants.push_back({GemmInt8Kernel::kSimd, false});
    if (detail::int8_vnni_available()) int8_variants.push_back({GemmInt8Kernel::kSimd, true});
  }
  for (const Int8Variant& v : int8_variants) {
    detail::set_int8_vnni(v.vnni);
    const std::string name = std::string("int8-") + gemm_int8_kernel_name(v.kernel);
    for (int threads : thread_counts) {
      for (const Shape3& s : kPilotNetConvShapes) {
        add(name, s, threads, run_gemm_int8(v, s.m, s.n, s.k, threads));
      }
    }
  }
  set_gemm_int8_kernel(saved_int8);
  detail::set_int8_vnni(saved_vnni);
  parallel::set_num_threads(0);

  std::ofstream json("BENCH_gemm_kernels.json");
  json << "{\n  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    json << "    {\"kernel\": \"" << r.kernel << "\", \"m\": " << r.m << ", \"n\": " << r.n
         << ", \"k\": " << r.k << ", \"threads\": " << r.threads << ", \"gflops\": " << r.gflops
         << ", \"us\": " << r.us << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::printf("\nwrote BENCH_gemm_kernels.json (%zu rows)\n", rows.size());
  return 0;
}
