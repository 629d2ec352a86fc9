// Reference tests for the int8 inference chain's building blocks:
//   * quantize_u8 saturates in the float domain (huge values and +inf map
//     to 127; negatives, -inf and NaN to 0; ties round to even);
//   * QuantizedForward's conv (quantize-once byte im2col -> int8 GEMM ->
//     fused dequant/ReLU epilogue) is memcmp-equal to a naive per-tap
//     reference on random Conv2d shapes and hostile inputs, through
//     forward and forward_collect, fused and unfused, on every int8 band;
//   * forward_collect keeps one output per layer and ends at forward's.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "int8_bands.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/quantized.hpp"
#include "nn/sequential.hpp"
#include "tensor/rng.hpp"

namespace salnov {
namespace {

using nn::quantize_u8;

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool bitexact(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(QuantizeU8, SaturatesInTheFloatDomain) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  struct Case {
    float v;
    uint8_t q;
  };
  const Case cases[] = {
      {0.0f, 0},
      {-0.0f, 0},
      {denorm, 0},
      {-denorm, 0},
      {std::numeric_limits<float>::min() / 2.0f, 0},
      {0.5f, 0},  // ties round to even
      {1.5f, 2},
      {2.5f, 2},
      {126.4f, 126},
      {126.5f, 126},
      {126.6f, 127},
      {127.0f, 127},
      {127.5f, 127},
      {128.0f, 127},
      {-0.4f, 0},
      {-1.0f, 0},
      {2147483648.0f, 127},          // 2^31
      {9223372036854775808.0f, 127},  // 2^63: lrintf's LONG_MIN
      {9.3e18f, 127},
      {1e30f, 127},
      {std::numeric_limits<float>::max(), 127},
      {kInf, 127},
      {-9223372036854775808.0f, 0},
      {-kInf, 0},
      {kNaN, 0},
      {-kNaN, 0},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.q, quantize_u8(c.v, 1.0f)) << "v=" << c.v;
  }
  // Overflow in the scale multiply itself saturates too.
  EXPECT_EQ(127, quantize_u8(1e30f, 1e10f));
  EXPECT_EQ(0, quantize_u8(-1e30f, 1e10f));
  // A finite scale maps the calibrated max to 127 and half of it to 64.
  EXPECT_EQ(127, quantize_u8(2.0f, 63.5f));
  EXPECT_EQ(64, quantize_u8(1.0f, 63.5f));
}

/// Naive per-tap quantized conv: quantize_u8 at every tap (padding taps are
/// 0), an exact int32 sum against the symmetric s8 weights, then one fmaf
/// dequant per output and an optional ReLU — the definition the fast path
/// (quantize once, byte im2col, int8 GEMM, fused epilogue) must reproduce.
Tensor reference_quant_conv(const nn::Conv2d& conv, const Tensor& x, float sx, bool relu) {
  const nn::Conv2dConfig& cfg = conv.config();
  const Tensor& w = conv.weight().value;
  const float* bias = conv.bias().value.data();
  float wmax = 0.0f;
  for (int64_t i = 0; i < w.numel(); ++i) wmax = std::fmax(wmax, std::fabs(w.data()[i]));
  const float sw = wmax > 0.0f ? wmax / 127.0f : 1.0f;
  const float inv_sx = 1.0f / sx;
  const float dequant = sx * sw;
  std::vector<int32_t> wq(static_cast<size_t>(w.numel()));
  for (int64_t i = 0; i < w.numel(); ++i) {
    const long q = std::lrintf(w.data()[i] / sw);
    wq[static_cast<size_t>(i)] = static_cast<int32_t>(q < -127 ? -127 : (q > 127 ? 127 : q));
  }
  const int64_t batch = x.dim(0), in_h = x.dim(2), in_w = x.dim(3);
  const int64_t out_h = conv.out_size(in_h, cfg.kernel_h);
  const int64_t out_w = conv.out_size(in_w, cfg.kernel_w);
  Tensor out({batch, cfg.out_channels, out_h, out_w});
  for (int64_t b = 0; b < batch; ++b) {
    for (int64_t oc = 0; oc < cfg.out_channels; ++oc) {
      for (int64_t oy = 0; oy < out_h; ++oy) {
        for (int64_t ox = 0; ox < out_w; ++ox) {
          int32_t acc = 0;
          for (int64_t c = 0; c < cfg.in_channels; ++c) {
            for (int64_t kh = 0; kh < cfg.kernel_h; ++kh) {
              for (int64_t kw = 0; kw < cfg.kernel_w; ++kw) {
                const int64_t iy = oy * cfg.stride - cfg.padding + kh;
                const int64_t ix = ox * cfg.stride - cfg.padding + kw;
                if (iy < 0 || iy >= in_h || ix < 0 || ix >= in_w) continue;
                const float v = x.data()[((b * cfg.in_channels + c) * in_h + iy) * in_w + ix];
                acc += static_cast<int32_t>(quantize_u8(v, inv_sx)) *
                       wq[static_cast<size_t>(((oc * cfg.in_channels + c) * cfg.kernel_h + kh) *
                                                  cfg.kernel_w +
                                              kw)];
              }
            }
          }
          float v = std::fmaf(static_cast<float>(acc), dequant, bias[oc]);
          if (relu) v = v > 0.0f ? v : 0.0f;
          out.data()[((b * cfg.out_channels + oc) * out_h + oy) * out_w + ox] = v;
        }
      }
    }
  }
  return out;
}

/// Random tensor with about one element in twelve replaced by a hostile
/// value: NaN, +-inf, or a magnitude that overflows the scale multiply.
Tensor salted_input(Rng& rng, Shape shape) {
  Tensor x = rng.uniform_tensor(std::move(shape), -0.5, 1.5);
  const float hostile[] = {kNaN, kInf, -kInf, 1e30f, -1e30f, 9.3e18f,
                           std::numeric_limits<float>::max()};
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (rng.uniform_int(0, 11) == 0) x.data()[i] = hostile[rng.uniform_int(0, 6)];
  }
  return x;
}

std::string describe(const nn::Conv2dConfig& cfg, const Tensor& x) {
  std::ostringstream os;
  os << "in_c=" << cfg.in_channels << " out_c=" << cfg.out_channels << " k=" << cfg.kernel_h
     << "x" << cfg.kernel_w << " stride=" << cfg.stride << " pad=" << cfg.padding
     << " input=" << shape_to_string(x.shape());
  return os.str();
}

TEST(QuantConvReference, RandomConfigsMatchPerTapReferenceBitExact) {
  test::Int8BandGuard guard;
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    nn::Conv2dConfig cfg;
    cfg.in_channels = rng.uniform_int(1, 20);
    cfg.out_channels = rng.uniform_int(1, 40);
    cfg.kernel_h = rng.uniform_int(1, 5);
    cfg.kernel_w = rng.uniform_int(1, 5);
    cfg.stride = rng.uniform_int(1, 2);
    cfg.padding = rng.uniform_int(0, 2);
    const int64_t in_h = rng.uniform_int(std::max<int64_t>(1, cfg.kernel_h - 2 * cfg.padding),
                                         cfg.kernel_h + 9);
    const int64_t in_w = rng.uniform_int(std::max<int64_t>(1, cfg.kernel_w - 2 * cfg.padding),
                                         cfg.kernel_w + 9);
    const int64_t batch = rng.uniform_int(1, 2);
    const Tensor weight = rng.uniform_tensor(
        {cfg.out_channels, cfg.in_channels, cfg.kernel_h, cfg.kernel_w}, -0.5, 0.5);
    const Tensor bias = rng.uniform_tensor({cfg.out_channels}, -0.3, 0.3);
    const Tensor x = salted_input(rng, {batch, cfg.in_channels, in_h, in_w});
    const float sx = static_cast<float>(rng.uniform(0.005, 0.05));
    SCOPED_TRACE(describe(cfg, x));

    // Unfused: the conv is the last layer. Fused: a ReLU follows it.
    nn::Sequential plain;
    plain.emplace<nn::Conv2d>(cfg, weight, bias);
    nn::Sequential fused;
    fused.emplace<nn::Conv2d>(cfg, weight, bias);
    fused.emplace<nn::ReLU>();
    const auto& conv = static_cast<const nn::Conv2d&>(plain.layer(0));
    const Tensor expect_conv = reference_quant_conv(conv, x, sx, false);
    const Tensor expect_relu = reference_quant_conv(conv, x, sx, true);
    const nn::QuantizedForward q_plain(plain, nn::QuantScales{{sx}});
    const nn::QuantizedForward q_fused(fused, nn::QuantScales{{sx}});

    for (const test::Int8Band& band : test::int8_bands()) {
      SCOPED_TRACE(test::int8_band_name(band));
      test::use_int8_band(band);
      ASSERT_TRUE(bitexact(expect_conv, q_plain.forward(x)));
      ASSERT_TRUE(bitexact(expect_relu, q_fused.forward(x)));
      const std::vector<Tensor> plain_slots = q_plain.forward_collect(x);
      ASSERT_EQ(1u, plain_slots.size());
      ASSERT_TRUE(bitexact(expect_conv, plain_slots[0]));
      const std::vector<Tensor> fused_slots = q_fused.forward_collect(x);
      ASSERT_EQ(2u, fused_slots.size());
      ASSERT_TRUE(bitexact(expect_conv, fused_slots[0]));
      ASSERT_TRUE(bitexact(expect_relu, fused_slots[1]));
    }
  }
}

TEST(QuantConvReference, CollectKeepsOneOutputPerLayerAndEndsAtForward) {
  // A PilotNet-shaped chain: fused conv/ReLU pairs, a conv followed by a
  // non-ReLU activation (not fused), flatten, fused dense/ReLU, and a head.
  Rng rng(77);
  nn::Sequential model;
  model.emplace<nn::Conv2d>(nn::Conv2dConfig{1, 8, 5, 5, 2, 0}, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Conv2d>(nn::Conv2dConfig{8, 12, 3, 3, 1, 1}, rng);
  model.emplace<nn::Sigmoid>();
  model.emplace<nn::Conv2d>(nn::Conv2dConfig{12, 20, 3, 3, 1, 1}, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Flatten>();
  model.emplace<nn::Dense>(20 * 6 * 12, 16, rng);
  model.emplace<nn::ReLU>();
  model.emplace<nn::Dense>(16, 1, rng);
  model.emplace<nn::Tanh>();

  const Tensor calib = rng.uniform_tensor({3, 1, 16, 28}, 0.0, 1.0);
  const nn::QuantizedForward quant(model, nn::QuantizedForward::calibrate(model, {&calib}));
  const Tensor x = salted_input(rng, {2, 1, 16, 28});

  test::Int8BandGuard guard;
  std::vector<Tensor> first;
  for (const test::Int8Band& band : test::int8_bands()) {
    SCOPED_TRACE(test::int8_band_name(band));
    test::use_int8_band(band);
    const std::vector<Tensor> slots = quant.forward_collect(x);
    ASSERT_EQ(model.size(), slots.size());
    ASSERT_TRUE(bitexact(quant.forward(x), slots.back()));
    for (size_t i = 1; i < model.size(); ++i) {
      if (model.layer(i).type_name() != "relu") continue;
      // Each ReLU slot is exactly ReLU::forward of the slot before it.
      ASSERT_TRUE(bitexact(nn::ReLU().forward(slots[i - 1], nn::Mode::kInfer), slots[i]))
          << "relu slot " << i;
    }
    if (first.empty()) {
      first = slots;
    } else {
      for (size_t i = 0; i < slots.size(); ++i) {
        ASSERT_TRUE(bitexact(first[i], slots[i])) << "slot " << i << " differs across bands";
      }
    }
  }
}

}  // namespace
}  // namespace salnov
