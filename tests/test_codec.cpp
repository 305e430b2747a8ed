#include "dataio/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <random>
#include <vector>

// Allocation cap for the tests that feed the codec dimensions it must reject:
// while armed, any single operator new request above the cap throws
// std::bad_alloc before reaching the allocator. A codec that sizes a buffer
// from unvalidated dimensions then fails the test instead of touching
// gigabytes. Replacing operator new affects this whole test binary; unarmed
// it only forwards to malloc/free.
namespace {
thread_local std::size_t g_alloc_cap = 0;  // 0: no cap
}  // namespace

// GCC pairs the inlined free() below with operator new at call sites and
// warns of a mismatch; the replacement pair is malloc/free, so it is not.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (g_alloc_cap != 0 && size > g_alloc_cap) throw std::bad_alloc();
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace adaptviz {
namespace {

/// Arms the allocation cap for its scope.
struct AllocationCap {
  explicit AllocationCap(std::size_t bytes) { g_alloc_cap = bytes; }
  ~AllocationCap() { g_alloc_cap = 0; }
  AllocationCap(const AllocationCap&) = delete;
  AllocationCap& operator=(const AllocationCap&) = delete;
};

FieldView view(const std::vector<double>& v, std::size_t nx, std::size_t ny) {
  return FieldView{v.data(), nx, ny};
}

constexpr CodecPrecision kF64 = CodecPrecision::kFloat64;
constexpr CodecPrecision kF32 = CodecPrecision::kFloat32;

// What the default (float32) precision makes of a double field: the
// narrowed values widened back, which is what decode_frame must return.
std::vector<double> narrowed32(const std::vector<double>& v) {
  std::vector<double> out(v.size());
  for (std::size_t k = 0; k < v.size(); ++k) {
    out[k] = static_cast<double>(static_cast<float>(v[k]));
  }
  return out;
}

std::vector<double> random_field(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  std::vector<double> f(n);
  for (double& x : f) x = dist(rng);
  return f;
}

// A spatially smooth AR(1) field: each point mixes its west/north neighbors
// with a small innovation, the standard stand-in for geophysical fields.
std::vector<double> ar1_field(std::size_t nx, std::size_t ny,
                              std::uint32_t seed, double rho = 0.995) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> noise(0.0, 1.0);
  std::vector<double> f(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double w = i > 0 ? f[j * nx + i - 1] : 0.0;
      const double n = j > 0 ? f[(j - 1) * nx + i] : 0.0;
      const double base = i > 0 && j > 0 ? 0.5 * (w + n) : (i > 0 ? w : n);
      f[j * nx + i] = rho * base + (1.0 - rho) * noise(rng);
    }
  }
  return f;
}

// ---- Exact roundtrip ----

TEST(Codec, RoundtripExactOnRandomFields) {
  for (std::uint32_t seed : {1u, 7u, 42u}) {
    const std::vector<double> cur = random_field(31 * 17, seed);
    const CompressedFrame frame = encode_frame(view(cur, 31, 17), nullptr, nullptr, kF64);
    EXPECT_EQ(decode_frame(frame, nullptr), cur) << "seed " << seed;
  }
}

TEST(Codec, RoundtripExactWithPreviousFrame) {
  const std::vector<double> prev = ar1_field(40, 25, 3);
  std::vector<double> cur = prev;
  std::mt19937 rng(11);
  std::normal_distribution<double> nudge(0.0, 1e-4);
  for (double& x : cur) x += nudge(rng);
  const FieldView pv = view(prev, 40, 25);
  const CompressedFrame frame = encode_frame(view(cur, 40, 25), &pv, nullptr, kF64);
  EXPECT_EQ(decode_frame(frame, &pv), cur);
}

TEST(Codec, RoundtripPreservesSpecialValues) {
  std::vector<double> cur = {0.0,
                             -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             1.0};
  const CompressedFrame frame = encode_frame(view(cur, 4, 2), nullptr, nullptr, kF64);
  const std::vector<double> got = decode_frame(frame, nullptr);
  ASSERT_EQ(got.size(), cur.size());
  for (std::size_t k = 0; k < cur.size(); ++k) {
    std::uint64_t a, b;
    std::memcpy(&a, &cur[k], 8);
    std::memcpy(&b, &got[k], 8);
    EXPECT_EQ(a, b) << "element " << k;  // bit compare: NaN != NaN as doubles
  }
}

// ---- Compression ratio ----

TEST(Codec, SmoothFieldCompressesAtLeastBreakEven) {
  const std::vector<double> cur = ar1_field(64, 48, 5);
  const CompressedFrame frame = encode_frame(view(cur, 64, 48), nullptr, nullptr, kF64);
  EXPECT_GE(frame.ratio(), 1.0);
  EXPECT_EQ(decode_frame(frame, nullptr), cur);
}

TEST(Codec, TemporalDeltaBeatsBreakEvenOnCorrelatedFrames) {
  const std::vector<double> prev = ar1_field(64, 48, 9);
  std::vector<double> cur = prev;
  for (double& x : cur) x *= 1.0 + 1e-6;  // slow, smooth evolution
  const FieldView pv = view(prev, 64, 48);
  const CompressedFrame frame = encode_frame(view(cur, 64, 48), &pv, nullptr, kF64);
  EXPECT_EQ(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_GE(frame.ratio(), 1.0);
  EXPECT_EQ(decode_frame(frame, &pv), cur);
}

TEST(Codec, IncompressibleInputIsBoundedByRawPlusHeader) {
  // Uniformly random 64-bit patterns: every byte plane is white noise, so
  // no predictor can help and the encoder must take the raw escape.
  std::mt19937_64 rng(13);
  std::vector<double> cur(50 * 50);
  for (double& x : cur) {
    const std::uint64_t b = rng();
    std::memcpy(&x, &b, sizeof x);
  }
  const CompressedFrame frame = encode_frame(view(cur, 50, 50), nullptr, nullptr, kF64);
  EXPECT_EQ(frame.mode, CompressedFrame::Mode::kRaw);
  EXPECT_LE(frame.encoded_bytes(), frame.raw_bytes() + 16);
  const std::vector<double> got = decode_frame(frame, nullptr);
  ASSERT_EQ(got.size(), cur.size());
  // memcmp, not ==: random bit patterns include NaNs.
  EXPECT_EQ(std::memcmp(got.data(), cur.data(), cur.size() * sizeof(double)),
            0);
}

// ---- Edge cases ----

TEST(Codec, EmptyField) {
  const std::vector<double> none;
  const CompressedFrame frame = encode_frame(view(none, 0, 0), nullptr);
  EXPECT_EQ(frame.raw_bytes(), 0u);
  EXPECT_DOUBLE_EQ(frame.ratio(), 1.0);
  EXPECT_TRUE(decode_frame(frame, nullptr).empty());
}

TEST(Codec, FirstFrameHasNoPreviousAndStillRoundtrips) {
  const std::vector<double> cur = ar1_field(20, 20, 21);
  const CompressedFrame frame = encode_frame(view(cur, 20, 20), nullptr, nullptr, kF64);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_EQ(decode_frame(frame, nullptr), cur);
}

TEST(Codec, ResolutionChangeDisablesTemporalDelta) {
  // Previous frame at a different shape: the encoder must not difference
  // across the resolution switch.
  const std::vector<double> prev = ar1_field(40, 40, 2);
  const std::vector<double> cur = ar1_field(20, 20, 2);
  const FieldView pv = view(prev, 40, 40);
  const CompressedFrame frame = encode_frame(view(cur, 20, 20), &pv, nullptr, kF64);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_EQ(decode_frame(frame, &pv), cur);
}

TEST(Codec, SingleRowAndSingleColumnFields) {
  const std::vector<double> row = ar1_field(33, 1, 4);
  const CompressedFrame fr = encode_frame(view(row, 33, 1), nullptr, nullptr, kF64);
  EXPECT_EQ(decode_frame(fr, nullptr), row);

  const std::vector<double> col = ar1_field(1, 33, 4);
  const CompressedFrame fc = encode_frame(view(col, 1, 33), nullptr, nullptr, kF64);
  EXPECT_EQ(decode_frame(fc, nullptr), col);
}

TEST(Codec, ConstantFieldCompressesHard) {
  const std::vector<double> cur(128 * 128, 3.25);
  const CompressedFrame frame = encode_frame(view(cur, 128, 128), nullptr, nullptr, kF64);
  EXPECT_GE(frame.ratio(), 100.0);
  EXPECT_EQ(decode_frame(frame, nullptr), cur);
}

// ---- Frame-file precision (float32, the default) ----

TEST(Codec, Float32RoundtripIsExactOnNarrowedValues) {
  for (std::uint32_t seed : {1u, 9u}) {
    const std::vector<double> cur = random_field(30 * 22, seed);
    const CompressedFrame frame =
        encode_frame(view(cur, 30, 22), nullptr, nullptr, kF32);
    EXPECT_EQ(frame.precision, CodecPrecision::kFloat32);
    EXPECT_EQ(frame.raw_bytes(), 30u * 22u * 4u);
    EXPECT_EQ(decode_frame(frame, nullptr), narrowed32(cur)) << "seed "
                                                             << seed;
  }
}

TEST(Codec, Float32DeltaRoundtripsAgainstDoublePrev) {
  const std::vector<double> prev = ar1_field(48, 32, 15);
  std::vector<double> cur = prev;
  for (double& x : cur) x *= 1.0 + 1e-5;
  const FieldView pv = view(prev, 48, 32);
  const CompressedFrame frame = encode_frame(view(cur, 48, 32), &pv, nullptr, kF32);
  EXPECT_EQ(decode_frame(frame, &pv), narrowed32(cur));
}

TEST(Codec, Float32SmoothFieldCompressesWell) {
  // Intra-only floor on a synthetic AR(1) field whose innovations are far
  // rougher than real simulation output; the >= 2x acceptance number is
  // measured by bench_codec on real consecutive frames, where the
  // second-order temporal predictor applies.
  const std::vector<double> cur = ar1_field(96, 64, 17);
  const CompressedFrame frame = encode_frame(view(cur, 96, 64), nullptr, nullptr, kF32);
  EXPECT_GE(frame.ratio(), 1.1);
  EXPECT_EQ(decode_frame(frame, nullptr), narrowed32(cur));
}

// ---- Second-order temporal prediction ----

TEST(Codec, Delta2WinsOnLinearlyEvolvingFrames) {
  // Three frames of a steadily advecting field: cur sits close to the
  // linear extrapolation 2*prev - prev2, so the second-order predictor
  // should beat both plain delta and intra.
  const std::vector<double> base = ar1_field(48, 40, 23);
  std::vector<double> prev2v = base, prevv = base, curv = base;
  for (std::size_t k = 0; k < base.size(); ++k) {
    const double trend = 1e-3 * base[k];
    prevv[k] += trend;
    curv[k] += 2.0 * trend;
  }
  const FieldView p2 = view(prev2v, 48, 40);
  const FieldView p1 = view(prevv, 48, 40);
  const CompressedFrame frame =
      encode_frame(view(curv, 48, 40), &p1, &p2, kF64);
  EXPECT_EQ(frame.mode, CompressedFrame::Mode::kDelta2);
  EXPECT_GE(frame.ratio(), 1.0);
  EXPECT_EQ(decode_frame(frame, &p1, &p2), curv);
}

TEST(Codec, Delta2RequiresBothHistoryFramesToDecode) {
  const std::vector<double> base = ar1_field(32, 32, 29);
  std::vector<double> prev2v = base, prevv = base, curv = base;
  for (std::size_t k = 0; k < base.size(); ++k) {
    prevv[k] += 1e-6;
    curv[k] += 2e-6;
  }
  const FieldView p2 = view(prev2v, 32, 32);
  const FieldView p1 = view(prevv, 32, 32);
  const CompressedFrame frame =
      encode_frame(view(curv, 32, 32), &p1, &p2, kF64);
  ASSERT_EQ(frame.mode, CompressedFrame::Mode::kDelta2);
  EXPECT_THROW(decode_frame(frame, &p1, nullptr), std::invalid_argument);
  EXPECT_THROW(decode_frame(frame, nullptr, &p2), std::invalid_argument);
  const FieldView wrong = view(prev2v, 64, 16);
  EXPECT_THROW(decode_frame(frame, &p1, &wrong), std::invalid_argument);
}

TEST(Codec, Prev2AloneNeverSelectsDelta2) {
  // A stale prev2 without a usable prev (e.g. the frame right after a
  // resolution change) must not enable temporal prediction.
  const std::vector<double> cur = ar1_field(24, 24, 31);
  const std::vector<double> old = ar1_field(24, 24, 32);
  const FieldView p2 = view(old, 24, 24);
  const CompressedFrame frame =
      encode_frame(view(cur, 24, 24), nullptr, &p2, kF64);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_NE(frame.mode, CompressedFrame::Mode::kDelta2);
  EXPECT_EQ(decode_frame(frame, nullptr, nullptr), cur);
}

// ---- Error handling ----

TEST(Codec, DecodeRejectsDeltaWithoutPrev) {
  const std::vector<double> prev = ar1_field(16, 16, 6);
  std::vector<double> cur = prev;
  for (double& x : cur) x += 1e-9;
  const FieldView pv = view(prev, 16, 16);
  CompressedFrame frame = encode_frame(view(cur, 16, 16), &pv, nullptr, kF64);
  ASSERT_EQ(frame.mode, CompressedFrame::Mode::kDelta);
  EXPECT_THROW(decode_frame(frame, nullptr), std::invalid_argument);
  const FieldView wrong = view(prev, 8, 32);
  EXPECT_THROW(decode_frame(frame, &wrong), std::invalid_argument);
}

TEST(Codec, DecodeRejectsCorruptPayload) {
  const std::vector<double> cur = ar1_field(16, 16, 8);
  CompressedFrame frame = encode_frame(view(cur, 16, 16), nullptr);
  CompressedFrame truncated = frame;
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_THROW(decode_frame(truncated, nullptr), std::invalid_argument);

  CompressedFrame bad_magic = frame;
  bad_magic.payload[0] = 'X';
  EXPECT_THROW(decode_frame(bad_magic, nullptr), std::invalid_argument);

  CompressedFrame empty;
  EXPECT_THROW(decode_frame(empty, nullptr), std::invalid_argument);
}

TEST(Codec, DecodeRejectsOversizedHeaderWithoutAllocating) {
  // A 19-byte payload (14-byte header + 5-byte body) claiming a
  // 65535 x 65535 float32 field: ~17 GB of values if believed. Every mode
  // must reject it from the body size alone, before sizing any buffer.
  for (const auto mode :
       {CompressedFrame::Mode::kRaw, CompressedFrame::Mode::kIntra,
        CompressedFrame::Mode::kDelta, CompressedFrame::Mode::kDelta2}) {
    CompressedFrame frame;
    frame.nx = 65535;
    frame.ny = 65535;
    frame.mode = mode;
    frame.precision = kF32;
    frame.payload = {'A', 'F', 'C', '1', static_cast<std::uint8_t>(mode), 0,
                     0xff, 0xff, 0, 0, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(frame.payload.size(), 19u);
    AllocationCap cap(1 << 20);
    EXPECT_THROW(decode_frame(frame, nullptr, nullptr), std::invalid_argument)
        << "mode " << static_cast<int>(mode);
  }
}

TEST(Codec, EncodeRejectsDimensionsTheHeaderCannotHold) {
  // The header stores u32 dimensions; larger ones must be rejected before a
  // single value is read, so a one-double buffer is enough.
  const double dummy = 1.0;
  const std::size_t max32 = std::numeric_limits<std::uint32_t>::max();
  AllocationCap cap(1 << 20);
  EXPECT_THROW(encode_frame(FieldView{&dummy, max32 + 1, 1}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(encode_frame(FieldView{&dummy, 1, max32 + 1}, nullptr),
               std::invalid_argument);
  // Both dimensions fit the header, but the field's raw size overflows.
  EXPECT_THROW(
      encode_frame(FieldView{&dummy, max32, max32}, nullptr, nullptr, kF64),
      std::invalid_argument);
}

// ---- Bitwise oracles ----

TEST(Codec, Delta2TieResolvesToDelta) {
  // With prev2 == prev the extrapolation 2*prev - prev2 is prev itself, so
  // the delta and delta2 residual streams are identical and code to the
  // same size. Ties resolve toward the simpler predictor: kDelta.
  const std::vector<double> prev = ar1_field(40, 30, 37);
  std::vector<double> cur = prev;
  for (double& x : cur) x *= 1.0 + 1e-6;
  const FieldView p1 = view(prev, 40, 30);
  for (const CodecPrecision precision : {kF32, kF64}) {
    const CompressedFrame frame =
        encode_frame(view(cur, 40, 30), &p1, &p1, precision);
    EXPECT_EQ(frame.mode, CompressedFrame::Mode::kDelta);
    const std::vector<double> want = precision == kF32 ? narrowed32(cur) : cur;
    EXPECT_EQ(decode_frame(frame, &p1, &p1), want);
  }
}

// Deterministic generators for the payload golden: built from raw mt19937
// words (whose sequence the standard fixes) and plain arithmetic, so the
// inputs do not depend on a standard library's distribution code.
double unit_noise(std::mt19937& rng) {
  return static_cast<double>(rng()) / 4294967296.0 - 0.5;
}

std::vector<double> golden_ar1(std::size_t nx, std::size_t ny,
                               std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<double> f(nx * ny);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double w = i > 0 ? f[j * nx + i - 1] : 0.0;
      const double n = j > 0 ? f[(j - 1) * nx + i] : 0.0;
      const double base = i > 0 && j > 0 ? 0.5 * (w + n) : (i > 0 ? w : n);
      f[j * nx + i] = 0.99 * base + 0.05 * unit_noise(rng) + 10.0;
    }
  }
  return f;
}

// Folds each encoded frame's mode and payload into an FNV-1a digest and
// counts the modes, so the golden also proves which paths it covers.
struct PayloadDigest {
  std::uint64_t h = 1469598103934665603ull;
  int modes[4] = {0, 0, 0, 0};

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void add(const CompressedFrame& f) {
    byte(static_cast<std::uint8_t>(f.mode));
    for (const std::uint8_t b : f.payload) byte(b);
    ++modes[static_cast<int>(f.mode)];
  }
};

TEST(Codec, PayloadsMatchGoldenDigest) {
  // Captured from the exhaustive encoder (every candidate fully coded,
  // smallest kept, ties toward intra, then delta, then delta2). Any change
  // to a payload byte or a chosen mode breaks it.
  constexpr std::uint64_t kGolden = 0x1456c78006a78350ull;
  PayloadDigest digest;
  for (const CodecPrecision precision : {kF32, kF64}) {
    const auto encode = [&](const std::vector<double>& cur, std::size_t nx,
                            std::size_t ny, const std::vector<double>* prev,
                            const std::vector<double>* prev2) {
      const FieldView p1 = prev ? view(*prev, nx, ny) : FieldView{};
      const FieldView p2 = prev2 ? view(*prev2, nx, ny) : FieldView{};
      const CompressedFrame frame =
          encode_frame(view(cur, nx, ny), prev ? &p1 : nullptr,
                       prev2 ? &p2 : nullptr, precision);
      digest.add(frame);
    };

    // AR(1) frames under a steady trend plus noise, encoded with the
    // history a run would hand over: intra, then delta, then delta2.
    const std::size_t nx = 37, ny = 23;
    const std::vector<double> base = golden_ar1(nx, ny, 101);
    std::mt19937 rng(202);
    std::vector<std::vector<double>> frames;
    for (int t = 0; t < 6; ++t) {
      std::vector<double> f(base.size());
      for (std::size_t k = 0; k < f.size(); ++k) {
        f[k] = base[k] * (1.0 + 1e-3 * t) + 1e-5 * unit_noise(rng);
      }
      frames.push_back(std::move(f));
    }
    for (std::size_t t = 0; t < frames.size(); ++t) {
      encode(frames[t], nx, ny, t >= 1 ? &frames[t - 1] : nullptr,
             t >= 2 ? &frames[t - 2] : nullptr);
    }
    // An unrelated frame with full history (intra should win), then a
    // small perturbation of it whose prev2 is stale (delta should win).
    const std::vector<double> fresh = golden_ar1(nx, ny, 303);
    encode(fresh, nx, ny, &frames[5], &frames[4]);
    std::vector<double> nudged = fresh;
    for (double& x : nudged) x += 1e-4 * unit_noise(rng);
    encode(nudged, nx, ny, &fresh, &frames[5]);

    // Random bit patterns (NaN-free at the coded width): the raw escape.
    std::vector<double> noise(40 * 40);
    for (double& x : noise) {
      if (precision == kF32) {
        std::uint32_t b = rng();
        if ((b & 0x7f800000u) == 0x7f800000u) b &= ~0x40000000u;
        float v;
        std::memcpy(&v, &b, sizeof v);
        x = v;
      } else {
        std::uint64_t b = (std::uint64_t{rng()} << 32) | rng();
        if ((b & 0x7ff0000000000000ull) == 0x7ff0000000000000ull) {
          b &= ~0x4000000000000000ull;
        }
        std::memcpy(&x, &b, sizeof x);
      }
    }
    encode(noise, 40, 40, nullptr, nullptr);

    // Constant, special values, and single-row/column fields.
    encode(std::vector<double>(64 * 64, 3.25), 64, 64, nullptr, nullptr);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<double> specials = {0.0, -0.0, nan,  inf,  -inf,
                                          1.0, -1.0, 0.0,  -0.0, nan,
                                          2.5, 1e-300, -1e300, 7.0, -0.0,
                                          0.0};
    encode(specials, 4, 4, nullptr, nullptr);
    encode(specials, 4, 4, &specials, nullptr);
    const std::vector<double> row = golden_ar1(61, 1, 404);
    encode(row, 61, 1, nullptr, nullptr);
    encode(row, 1, 61, nullptr, nullptr);
  }
  EXPECT_GT(digest.modes[static_cast<int>(CompressedFrame::Mode::kRaw)], 0);
  EXPECT_GT(digest.modes[static_cast<int>(CompressedFrame::Mode::kIntra)], 0);
  EXPECT_GT(digest.modes[static_cast<int>(CompressedFrame::Mode::kDelta)], 0);
  EXPECT_GT(digest.modes[static_cast<int>(CompressedFrame::Mode::kDelta2)], 0);
  EXPECT_EQ(digest.h, kGolden) << std::hex << "digest 0x" << digest.h;
}

// ---- Candidate pruning bound ----

// Replays the encoder's choice over AR(1) frames under a steady trend,
// where delta2 codes first and smallest, and counts the later candidates
// the bound alone rules out.
int pruned_on_ar1_trend() {
  constexpr std::size_t kHeader = 14;
  const std::size_t nx = 37, ny = 23;
  const std::vector<double> base = golden_ar1(nx, ny, 101);
  std::mt19937 rng(202);
  std::vector<std::vector<double>> frames;
  int pruned = 0;
  for (int t = 0; t < 6; ++t) {
    std::vector<double> f(base.size());
    for (std::size_t k = 0; k < f.size(); ++k) {
      f[k] = base[k] * (1.0 + 1e-3 * t) + 1e-5 * unit_noise(rng);
    }
    frames.push_back(std::move(f));
    if (t < 2) continue;
    const FieldView p1 = view(frames[t - 1], nx, ny);
    const FieldView p2 = view(frames[t - 2], nx, ny);
    for (const CodecPrecision precision : {kF32, kF64}) {
      std::size_t limit = nx * ny * (precision == kF32 ? 4 : 8) + kHeader;
      bool have_best = false;
      for (const detail::CandidateSize& c : detail::candidate_sizes(
               view(frames[t], nx, ny), &p1, &p2, precision)) {
        if (have_best &&
            static_cast<double>(kHeader) + c.lower_bound >
                static_cast<double>(limit)) {
          ++pruned;
        } else if (kHeader + c.body_bytes <= limit) {
          have_best = true;
          limit = kHeader + c.body_bytes;
        }
      }
    }
  }
  return pruned;
}

TEST(Codec, CodedSizeLowerBoundNeverExceedsCodedSize) {
  // Seeded fields of every kind the codec meets, each encoded with two
  // frames of history so that every residual kind is a candidate: the bound
  // the encoder skips candidates with must never exceed the body the range
  // coder actually emits. It must also be tight enough to rule out a
  // losing candidate on real-looking frames, or this would pass vacuously.
  std::mt19937 rng(2024);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto make_field = [&](int kind, std::size_t n, std::uint32_t seed) {
    std::mt19937 r(seed);
    std::vector<double> f(n);
    for (double& x : f) {
      switch (kind) {
        case 1:  // noise
          x = unit_noise(r) * 1e3;
          break;
        case 2: {  // random bits, NaNs included
          const std::uint64_t b = (std::uint64_t{r()} << 32) | r();
          std::memcpy(&x, &b, sizeof x);
          break;
        }
        case 3:  // constant
          x = -7.5;
          break;
        default: {  // NaN, +-0, +-inf and ordinary values
          const double specials[] = {nan, 0.0, -0.0, inf, -inf, 1.5, -2.0};
          x = specials[r() % 7];
        }
      }
    }
    return f;
  };

  int fields = 0;
  int modes[4] = {0, 0, 0, 0};
  for (std::uint32_t seed = 0; seed < 1100; ++seed) {
    std::size_t nx = 1 + rng() % 40;
    std::size_t ny = 1 + rng() % 30;
    if (seed % 7 == 0) nx = ny = 1;
    if (seed % 7 == 1) nx = 1;
    if (seed % 7 == 2) ny = 1;
    const int kind = static_cast<int>(seed % 5);
    std::vector<std::vector<double>> frames;
    if (kind == 0) {  // AR(1) under a trend plus noise
      const std::vector<double> base = golden_ar1(nx, ny, seed);
      for (int t = 0; t < 3; ++t) {
        std::vector<double> f(base.size());
        for (std::size_t k = 0; k < f.size(); ++k) {
          f[k] = base[k] * (1.0 + 1e-3 * t) + 1e-5 * unit_noise(rng);
        }
        frames.push_back(std::move(f));
      }
    } else {
      for (std::uint32_t t = 0; t < 3; ++t) {
        frames.push_back(make_field(kind, nx * ny, seed * 3 + t));
      }
    }
    const FieldView p2 = view(frames[0], nx, ny);
    const FieldView p1 = view(frames[1], nx, ny);
    for (const CodecPrecision precision : {kF32, kF64}) {
      ++fields;
      for (const detail::CandidateSize& c : detail::candidate_sizes(
               view(frames[2], nx, ny), &p1, &p2, precision)) {
        ++modes[static_cast<int>(c.mode)];
        EXPECT_LE(c.lower_bound, static_cast<double>(c.body_bytes))
            << "seed " << seed << " mode " << static_cast<int>(c.mode);
      }
    }
  }
  EXPECT_GE(fields, 2000);
  EXPECT_EQ(modes[static_cast<int>(CompressedFrame::Mode::kIntra)], fields);
  EXPECT_EQ(modes[static_cast<int>(CompressedFrame::Mode::kDelta)], fields);
  EXPECT_EQ(modes[static_cast<int>(CompressedFrame::Mode::kDelta2)], fields);
  EXPECT_GE(pruned_on_ar1_trend(), 1);
}

// ---- Damaged payloads ----

// A damaged payload must decode to nx*ny values or throw
// std::invalid_argument, without any allocation over 1 MB.
void expect_decodes_or_rejects(const CompressedFrame& frame,
                               const FieldView* prev, const FieldView* prev2,
                               const char* damage, std::size_t at) {
  AllocationCap cap(1 << 20);
  try {
    const std::vector<double> got = decode_frame(frame, prev, prev2);
    EXPECT_EQ(got.size(), std::size_t{frame.nx} * frame.ny)
        << damage << " at " << at;
  } catch (const std::invalid_argument&) {
  }
}

TEST(Codec, DecodeSurvivesTruncationAndBitFlips) {
  constexpr std::size_t kHeader = 14;
  const std::size_t nx = 16, ny = 12;
  const std::vector<double> base = golden_ar1(nx, ny, 505);
  std::mt19937 rng(606);
  std::vector<double> prev2v = base, prevv = base, curv = base;
  for (std::size_t k = 0; k < base.size(); ++k) {
    prevv[k] = base[k] * (1.0 + 1e-3) + 1e-6 * unit_noise(rng);
    curv[k] = base[k] * (1.0 + 2e-3) + 1e-6 * unit_noise(rng);
  }
  std::vector<double> nudged = base;
  for (double& x : nudged) x += 1e-7 * unit_noise(rng);
  const FieldView p2 = view(prev2v, nx, ny);
  const FieldView p1 = view(prevv, nx, ny);
  const FieldView b0 = view(base, nx, ny);

  for (const CodecPrecision precision : {kF32, kF64}) {
    const struct {
      CompressedFrame frame;
      const FieldView* prev;
      const FieldView* prev2;
      CompressedFrame::Mode want;
    } cases[] = {
        {encode_frame(b0, nullptr, nullptr, precision), nullptr, nullptr,
         CompressedFrame::Mode::kIntra},
        {encode_frame(view(nudged, nx, ny), &b0, nullptr, precision), &b0,
         nullptr, CompressedFrame::Mode::kDelta},
        {encode_frame(view(curv, nx, ny), &p1, &p2, precision), &p1, &p2,
         CompressedFrame::Mode::kDelta2},
    };
    for (const auto& c : cases) {
      ASSERT_EQ(c.frame.mode, c.want);
      const std::size_t size = c.frame.payload.size();
      ASSERT_GT(size, kHeader);
      for (std::size_t len = 0; len < size; ++len) {
        CompressedFrame damaged = c.frame;
        damaged.payload.resize(len);
        expect_decodes_or_rejects(damaged, c.prev, c.prev2, "truncation",
                                  len);
      }
      CompressedFrame damaged = c.frame;
      for (std::size_t bit = 8 * kHeader; bit < 8 * size; ++bit) {
        const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
        damaged.payload[bit / 8] ^= mask;
        expect_decodes_or_rejects(damaged, c.prev, c.prev2, "bit flip", bit);
        damaged.payload[bit / 8] ^= mask;
      }
    }
  }
}

}  // namespace
}  // namespace adaptviz
