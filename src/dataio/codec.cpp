#include "dataio/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"

namespace adaptviz {
namespace {

// Payload layout: 4-byte magic, 1-byte mode, 1-byte precision, two
// little-endian u32 dims, then the mode-specific body (raw values, or one
// range-coded stream covering every residual byte plane).
constexpr std::uint8_t kMagic[4] = {'A', 'F', 'C', '1'};
constexpr std::size_t kHeaderBytes = 4 + 1 + 1 + 4 + 4;

template <typename Float>
struct BitsOf;
template <>
struct BitsOf<float> {
  using type = std::uint32_t;
};
template <>
struct BitsOf<double> {
  using type = std::uint64_t;
};

template <typename Float>
typename BitsOf<Float>::type fbits(Float v) {
  typename BitsOf<Float>::type b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

template <typename Float>
Float bits_to_float(typename BitsOf<Float>::type b) {
  Float v;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

// Maps IEEE bit patterns to unsigned integers that preserve value order
// (negative floats descend as their bit patterns ascend), so subtraction
// of nearby values yields small residuals. Self-inverse modulo the branch.
template <typename UInt>
UInt order_map(UInt b) {
  constexpr UInt msb = UInt(1) << (8 * sizeof(UInt) - 1);
  return (b & msb) ? ~b : (b | msb);
}

template <typename UInt>
UInt order_unmap(UInt x) {
  constexpr UInt msb = UInt(1) << (8 * sizeof(UInt) - 1);
  return (x & msb) ? (x & ~msb) : ~x;
}

// Zigzag: small signed residuals (two's complement) to small unsigned
// codes, so zero-centered residuals concentrate in the low byte planes.
template <typename UInt>
UInt zigzag(UInt d) {
  return (d << 1) ^ (UInt(0) - (d >> (8 * sizeof(UInt) - 1)));
}

template <typename UInt>
UInt unzigzag(UInt z) {
  return (z >> 1) ^ (UInt(0) - (z & 1));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in, std::size_t pos) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) {
    v |= static_cast<std::uint32_t>(in[pos + k]) << (8 * k);
  }
  return v;
}

// ---- Entropy stage: adaptive order-0 range coder ----
//
// A carry-propagating (LZMA-style) byte range coder with one adaptive
// 256-symbol frequency model per byte plane. Unlike zero-run RLE this
// approaches the per-plane order-0 entropy: near-constant exponent planes
// cost fractions of a bit per value, fully random low-mantissa planes cost
// ~8 bits, and nothing in between is wasted on run-token framing.

constexpr std::uint32_t kTopValue = 1u << 24;
constexpr std::uint32_t kFreqIncrement = 32;
constexpr std::uint32_t kMaxTotal = 1u << 16;

struct ByteModel {
  std::uint16_t freq[256];
  std::uint32_t total;

  ByteModel() : total(256) {
    for (auto& f : freq) f = 1;
  }

  /// The one adaptation rule both sides share. Returns true when the
  /// counters were rescaled.
  bool update(int sym) {
    freq[sym] = static_cast<std::uint16_t>(freq[sym] + kFreqIncrement);
    total += kFreqIncrement;
    if (total <= kMaxTotal) return false;
    total = 0;
    for (auto& f : freq) {
      f = static_cast<std::uint16_t>((f + 1) >> 1);
      total += f;
    }
    return true;
  }
};

// Encoder-side model: ByteModel plus a Fenwick tree over its counters, so a
// symbol's cumulative frequency costs O(log 256) instead of a scan. The
// decoder searches by symbol, not by cumulative frequency, so it keeps block
// sums instead (BlockByteModel).
struct FenwickByteModel {
  ByteModel model;
  std::uint32_t tree[257];  // 1-based; tree[i] sums freq over (i - lsb(i), i]

  FenwickByteModel() { rebuild(); }

  /// Sum of freq[0..sym).
  std::uint32_t cum(int sym) const {
    std::uint32_t c = 0;
    for (int i = sym; i > 0; i &= i - 1) c += tree[i];
    return c;
  }

  void update(int sym) {
    if (model.update(sym)) {
      rebuild();
      return;
    }
    for (int i = sym + 1; i <= 256; i += i & -i) tree[i] += kFreqIncrement;
  }

 private:
  void rebuild() {
    for (int i = 1; i <= 256; ++i) tree[i] = model.freq[i - 1];
    for (int i = 1; i <= 256; ++i) {
      const int parent = i + (i & -i);
      if (parent <= 256) tree[parent] += tree[i];
    }
  }
};

// Decoder-side model: ByteModel plus the sums of its 16 blocks of 16
// counters, so finding the symbol under a target scans at most 16 block
// sums and then 16 counters instead of 256 counters.
struct BlockByteModel {
  static constexpr int kBlock = 16;
  ByteModel model;
  std::uint32_t block[256 / kBlock];

  BlockByteModel() { rebuild(); }

  void update(int sym) {
    if (model.update(sym)) {
      rebuild();
      return;
    }
    block[sym / kBlock] += kFreqIncrement;
  }

 private:
  void rebuild() {
    for (int b = 0; b < 256 / kBlock; ++b) {
      block[b] = 0;
      for (int s = b * kBlock; s < (b + 1) * kBlock; ++s) {
        block[b] += model.freq[s];
      }
    }
  }
};

// Upper bound on the symbols a range-coded body of `body_bytes` can carry,
// so a decoder can reject a header's dimensions before allocating for them.
// When a symbol is coded, total <= kMaxTotal and the other 255 symbols hold
// freq >= 1, so no symbol is likelier than (kMaxTotal - 255) / kMaxTotal;
// the coder's integer truncation only narrows the range further. Each
// symbol therefore consumes at least min_bits_per_symbol bits of range, and
// the decoder reads one byte per 8 bits consumed after its first 5.
std::size_t max_coded_symbols(std::size_t body_bytes) {
  static const double min_bits_per_symbol =
      -std::log2(static_cast<double>(kMaxTotal - 255) / kMaxTotal);
  static const auto symbols_per_byte =
      static_cast<std::size_t>(std::ceil(8.0 / min_bits_per_symbol));
  return (body_bytes + 5) * symbols_per_byte;
}

class RangeEncoder {
 public:
  explicit RangeEncoder(std::vector<std::uint8_t>& out) : out_(out) {}

  void encode(std::uint32_t cum, std::uint32_t freq, std::uint32_t total) {
    range_ /= total;
    low_ += static_cast<std::uint64_t>(cum) * range_;
    range_ *= freq;
    while (range_ < kTopValue) {
      range_ <<= 8;
      shift_low();
    }
  }

  void flush() {
    for (int k = 0; k < 5; ++k) shift_low();
  }

 private:
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xff000000u || (low_ >> 32) != 0) {
      std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
      do {
        out_.push_back(static_cast<std::uint8_t>(cache_ + carry));
        cache_ = 0xff;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = static_cast<std::uint32_t>(low_) << 8;
  }

  std::vector<std::uint8_t>& out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xffffffffu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
};

class RangeDecoder {
 public:
  RangeDecoder(const std::vector<std::uint8_t>& in, std::size_t pos)
      : in_(in), pos_(pos) {
    for (int k = 0; k < 5; ++k) code_ = (code_ << 8) | read_byte();
  }

  // Finds the symbol whose interval holds the target: first the block, then
  // the symbol within it. The block sums add up to total > target, so both
  // scans stop in range on any input, and at the symbol a scan over all 256
  // counters would pick.
  int decode(BlockByteModel& m) {
    const ByteModel& model = m.model;
    range_ /= model.total;
    std::uint32_t target = static_cast<std::uint32_t>(code_ / range_);
    if (target >= model.total) target = model.total - 1;
    std::uint32_t cum = 0;
    int b = 0;
    while (cum + m.block[b] <= target) cum += m.block[b++];
    int sym = b * BlockByteModel::kBlock;
    while (cum + model.freq[sym] <= target) cum += model.freq[sym++];
    code_ -= static_cast<std::uint64_t>(cum) * range_;
    range_ *= model.freq[sym];
    while (range_ < kTopValue) {
      code_ = (code_ << 8) | read_byte();
      range_ <<= 8;
    }
    return sym;
  }

 private:
  std::uint8_t read_byte() {
    if (pos_ >= in_.size()) {
      throw std::invalid_argument("codec: truncated range-coded stream");
    }
    return in_[pos_++];
  }

  const std::vector<std::uint8_t>& in_;
  std::size_t pos_;
  std::uint64_t code_ = 0;
  std::uint32_t range_ = 0xffffffffu;
};

// Codes the zigzagged residuals plane-major (all byte 0s, then byte 1s,
// ...), one adaptive model per plane; mirrors rc_decode_planes exactly.
// Returns false, leaving `out` partial, as soon as `out` holds more than
// `limit` bytes (checked every 1024 symbols and at each plane end): emitted
// bytes only grow and flush() only appends, so the finished stream would
// exceed `limit` too.
template <typename UInt>
bool rc_encode_planes(const std::vector<UInt>& resid, std::size_t limit,
                      std::vector<std::uint8_t>& out) {
  constexpr std::size_t kCheckEvery = 1024;
  RangeEncoder enc(out);
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    FenwickByteModel m;
    for (std::size_t k0 = 0; k0 < resid.size(); k0 += kCheckEvery) {
      const std::size_t k1 = std::min(resid.size(), k0 + kCheckEvery);
      for (std::size_t k = k0; k < k1; ++k) {
        const int sym = static_cast<int>((resid[k] >> (8 * p)) & 0xff);
        enc.encode(m.cum(sym), m.model.freq[sym], m.model.total);
        m.update(sym);
      }
      if (out.size() > limit) return false;
    }
  }
  enc.flush();
  return out.size() <= limit;
}

template <typename UInt>
void rc_decode_planes(const std::vector<std::uint8_t>& in, std::size_t pos,
                      std::size_t n, std::vector<UInt>& resid) {
  resid.assign(n, 0);
  RangeDecoder dec(in, pos);
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    BlockByteModel m;
    for (std::size_t k = 0; k < n; ++k) {
      const int sym = dec.decode(m);
      resid[k] |= static_cast<UInt>(sym) << (8 * p);
      m.update(sym);
    }
  }
}

// Lower bound, in bytes, on the body rc_encode_planes would code from
// `resid`, without range coding it (DESIGN.md §11):
// - Only the models' counters are replayed. Between two rescales a plane's
//   model is a Dirichlet-multinomial (alpha = freq / 32), so it gives the
//   segment's m symbols at most the segment's maximum-likelihood
//   probability: the ideal code length is at least L = sum m * H_emp bits.
// - The coder's integer truncation only shrinks the range, which starts
//   below 2^32 and ends at or above 2^24, so it shifts out S >= L/8 - 1
//   bytes, and the body is exactly S + 5 bytes.
// L carries a margin for floating-point rounding. The replay stops once the
// bound exceeds `stop_above`; the value returned is then still a bound.
template <typename UInt>
double coded_body_lower_bound(const std::vector<UInt>& resid,
                              double stop_above) {
  // A segment ends at the first rescale: total starts at 256 or more and
  // rescales once past kMaxTotal, so no segment holds more symbols than this.
  constexpr std::size_t kMaxSegment = (kMaxTotal - 256) / kFreqIncrement + 1;
  static const std::vector<double> xlog2x = [] {
    std::vector<double> t(kMaxSegment + 1, 0.0);
    for (std::size_t c = 2; c < t.size(); ++c) {
      t[c] = static_cast<double>(c) * std::log2(static_cast<double>(c));
    }
    return t;
  }();
  double bits = 0.0;
  const auto bound = [&bits] {
    return (bits * (1.0 - 1e-9) - 64.0) / 8.0 + 4.0;
  };
  for (std::size_t p = 0; p < sizeof(UInt); ++p) {
    ByteModel model;
    std::uint32_t count[256] = {};
    std::size_t m = 0;
    // Adds m * H_emp = m log m - sum c log c for the segment, then empties it.
    const auto close_segment = [&] {
      double segment = xlog2x[m];
      for (std::uint32_t& c : count) {
        segment -= xlog2x[c];
        c = 0;
      }
      bits += segment;
      m = 0;
    };
    for (const UInt r : resid) {
      const int sym = static_cast<int>((r >> (8 * p)) & 0xff);
      ++count[sym];
      ++m;
      if (model.update(sym)) {
        close_segment();
        if (bound() > stop_above) return bound();
      }
    }
    close_segment();
    if (bound() > stop_above) return bound();
  }
  return bound();
}

// Lorenzo predictor on the order-mapped lattice, from the west, north, and
// north-west neighbors already known to both sides. Wrapping unsigned
// arithmetic keeps the transform exactly invertible.
template <typename UInt>
UInt lorenzo_predict(const UInt* o, std::size_t nx, std::size_t i,
                     std::size_t j) {
  const std::size_t k = j * nx + i;
  if (i > 0 && j > 0) return o[k - 1] + o[k - nx] - o[k - nx - 1];
  if (i > 0) return o[k - 1];
  if (j > 0) return o[k - nx];
  return UInt(0);
}

// Replaces `out` with the payload header.
void write_header(std::vector<std::uint8_t>& out, CompressedFrame::Mode mode,
                  CodecPrecision precision, std::uint32_t nx,
                  std::uint32_t ny) {
  out.assign(kMagic, kMagic + 4);
  out.push_back(static_cast<std::uint8_t>(mode));
  out.push_back(static_cast<std::uint8_t>(precision));
  put_u32(out, nx);
  put_u32(out, ny);
}

// Narrow the double view to the coded value type (identity for double),
// then map to the order-preserving integer lattice.
template <typename Float>
std::vector<typename BitsOf<Float>::type> ordered(const FieldView& v) {
  std::vector<typename BitsOf<Float>::type> out(v.count());
  for (std::size_t k = 0; k < out.size(); ++k) {
    out[k] = order_map(fbits(static_cast<Float>(v.data[k])));
  }
  return out;
}

bool same_shape(const FieldView* p, const FieldView& cur) {
  return p != nullptr && p->data != nullptr && p->nx == cur.nx &&
         p->ny == cur.ny;
}

// Builds each available candidate's residuals in turn, best-first (delta2,
// delta, intra), and hands them to visit(mode, resid).
template <typename Float, typename Visit>
void for_each_candidate(FieldView cur, const FieldView* prev,
                        const FieldView* prev2, Visit&& visit) {
  using UInt = typename BitsOf<Float>::type;
  using Mode = CompressedFrame::Mode;
  const std::size_t n = cur.count();
  const std::vector<UInt> oc = ordered<Float>(cur);
  std::vector<UInt> resid(n);

  if (same_shape(prev, cur)) {
    const std::vector<UInt> o1 = ordered<Float>(*prev);
    // Second-order temporal extrapolation (2*prev - prev2): fields advect
    // smoothly between frames, so the linear-in-time prediction cancels
    // most of the first difference as well.
    if (same_shape(prev2, cur)) {
      const std::vector<UInt> o2 = ordered<Float>(*prev2);
      for (std::size_t k = 0; k < n; ++k) {
        const UInt pred = static_cast<UInt>(2 * o1[k] - o2[k]);
        resid[k] = zigzag(static_cast<UInt>(oc[k] - pred));
      }
      visit(Mode::kDelta2, resid);
    }
    for (std::size_t k = 0; k < n; ++k) {
      resid[k] = zigzag(static_cast<UInt>(oc[k] - o1[k]));
    }
    visit(Mode::kDelta, resid);
  }

  // Spatial (intra) prediction: always available.
  for (std::size_t j = 0; j < cur.ny; ++j) {
    for (std::size_t i = 0; i < cur.nx; ++i) {
      const std::size_t k = j * cur.nx + i;
      resid[k] = zigzag(
          static_cast<UInt>(oc[k] - lorenzo_predict(oc.data(), cur.nx, i, j)));
    }
  }
  visit(Mode::kIntra, resid);
}

// Keeps the smallest candidate payload, ties going to intra, then delta,
// then delta2, and stores raw when even that exceeds raw size + header.
// Candidates run best-first; a later one replaces the best when it is no
// larger, which keeps that tie-break. Once a best exists, a candidate whose
// lower bound already exceeds it is skipped uncoded, and every other is
// coded only until it outgrows the best so far (or the raw bound).
template <typename Float>
CompressedFrame encode_at(FieldView cur, const FieldView* prev,
                          const FieldView* prev2, CodecPrecision precision) {
  using UInt = typename BitsOf<Float>::type;
  using Mode = CompressedFrame::Mode;
  const std::size_t n = cur.count();
  CompressedFrame frame;
  frame.nx = static_cast<std::uint32_t>(cur.nx);
  frame.ny = static_cast<std::uint32_t>(cur.ny);
  frame.precision = precision;
  frame.mode = Mode::kRaw;

  std::vector<std::uint8_t> best, trial;
  std::size_t limit = n * sizeof(Float) + kHeaderBytes;
  for_each_candidate<Float>(
      cur, prev, prev2, [&](Mode mode, const std::vector<UInt>& resid) {
        const auto body_limit = static_cast<double>(limit - kHeaderBytes);
        if (!best.empty() &&
            coded_body_lower_bound(resid, body_limit) > body_limit) {
          return;
        }
        write_header(trial, mode, precision, frame.nx, frame.ny);
        if (rc_encode_planes(resid, limit, trial)) {
          best.swap(trial);
          limit = best.size();
          frame.mode = mode;
        }
      });

  // Escape hatch: incompressible input is stored verbatim, bounding the
  // worst case at raw size + header.
  if (frame.mode == Mode::kRaw) {
    write_header(best, Mode::kRaw, precision, frame.nx, frame.ny);
    for (std::size_t k = 0; k < n; ++k) {
      const UInt b = fbits(static_cast<Float>(cur.data[k]));
      for (std::size_t p = 0; p < sizeof(Float); ++p) {
        best.push_back(static_cast<std::uint8_t>(b >> (8 * p)));
      }
    }
  }
  frame.payload = std::move(best);
  return frame;
}

template <typename Float>
std::vector<double> decode_at(const CompressedFrame& frame,
                              const FieldView* prev, const FieldView* prev2,
                              std::uint32_t nx, std::uint32_t ny) {
  using UInt = typename BitsOf<Float>::type;
  const std::vector<std::uint8_t>& in = frame.payload;
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  // The header's dimensions are checked against the body before any buffer
  // is sized from them.
  const std::size_t body = in.size() - kHeaderBytes;
  if (frame.mode == CompressedFrame::Mode::kRaw) {
    if (body % sizeof(Float) != 0 || body / sizeof(Float) != n) {
      throw std::invalid_argument("decode_frame: bad raw body size");
    }
    std::vector<double> out(n);
    for (std::size_t k = 0; k < n; ++k) {
      UInt b = 0;
      for (std::size_t p = 0; p < sizeof(Float); ++p) {
        b |= static_cast<UInt>(in[kHeaderBytes + k * sizeof(Float) + p])
             << (8 * p);
      }
      out[k] = static_cast<double>(bits_to_float<Float>(b));
    }
    return out;
  }
  if (n > max_coded_symbols(body) / sizeof(UInt)) {
    throw std::invalid_argument(
        "decode_frame: body too short for the header's dimensions");
  }
  std::vector<UInt> oc(n);

  switch (frame.mode) {
    case CompressedFrame::Mode::kIntra: {
      std::vector<UInt> resid;
      rc_decode_planes(in, kHeaderBytes, n, resid);
      for (std::size_t j = 0; j < ny; ++j) {
        for (std::size_t i = 0; i < nx; ++i) {
          const std::size_t k = j * nx + i;
          oc[k] = static_cast<UInt>(unzigzag(resid[k]) +
                                    lorenzo_predict(oc.data(), nx, i, j));
        }
      }
      break;
    }
    case CompressedFrame::Mode::kDelta: {
      if (prev == nullptr || prev->data == nullptr || prev->nx != nx ||
          prev->ny != ny) {
        throw std::invalid_argument(
            "decode_frame: delta frame needs the matching previous frame");
      }
      const std::vector<UInt> o1 = ordered<Float>(*prev);
      std::vector<UInt> resid;
      rc_decode_planes(in, kHeaderBytes, n, resid);
      for (std::size_t k = 0; k < n; ++k) {
        oc[k] = static_cast<UInt>(unzigzag(resid[k]) + o1[k]);
      }
      break;
    }
    case CompressedFrame::Mode::kDelta2: {
      if (prev == nullptr || prev->data == nullptr || prev->nx != nx ||
          prev->ny != ny || prev2 == nullptr || prev2->data == nullptr ||
          prev2->nx != nx || prev2->ny != ny) {
        throw std::invalid_argument(
            "decode_frame: delta2 frame needs the two previous frames");
      }
      const std::vector<UInt> o1 = ordered<Float>(*prev);
      const std::vector<UInt> o2 = ordered<Float>(*prev2);
      std::vector<UInt> resid;
      rc_decode_planes(in, kHeaderBytes, n, resid);
      for (std::size_t k = 0; k < n; ++k) {
        const UInt pred = static_cast<UInt>(2 * o1[k] - o2[k]);
        oc[k] = static_cast<UInt>(unzigzag(resid[k]) + pred);
      }
      break;
    }
    default:
      throw std::invalid_argument("decode_frame: unknown mode");
  }

  std::vector<double> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = static_cast<double>(bits_to_float<Float>(order_unmap(oc[k])));
  }
  return out;
}

template <typename Float>
std::vector<detail::CandidateSize> candidate_sizes_at(FieldView cur,
                                                      const FieldView* prev,
                                                      const FieldView* prev2) {
  using UInt = typename BitsOf<Float>::type;
  std::vector<detail::CandidateSize> out;
  std::vector<std::uint8_t> body;
  for_each_candidate<Float>(
      cur, prev, prev2,
      [&](CompressedFrame::Mode mode, const std::vector<UInt>& resid) {
        body.clear();
        rc_encode_planes(resid, std::numeric_limits<std::size_t>::max(), body);
        out.push_back(detail::CandidateSize{
            mode,
            coded_body_lower_bound(resid,
                                   std::numeric_limits<double>::infinity()),
            body.size()});
      });
  return out;
}

}  // namespace

namespace detail {

std::vector<CandidateSize> candidate_sizes(FieldView cur,
                                           const FieldView* prev,
                                           const FieldView* prev2,
                                           CodecPrecision precision) {
  if (cur.count() == 0) return {};
  return precision == CodecPrecision::kFloat32
             ? candidate_sizes_at<float>(cur, prev, prev2)
             : candidate_sizes_at<double>(cur, prev, prev2);
}

}  // namespace detail

CompressedFrame encode_frame(FieldView cur, const FieldView* prev,
                             const FieldView* prev2,
                             CodecPrecision precision) {
  // The header holds u32 dimensions, and the raw size must be
  // representable for the raw escape.
  constexpr std::size_t kMaxDim = std::numeric_limits<std::uint32_t>::max();
  constexpr std::size_t kMaxValues =
      (std::numeric_limits<std::size_t>::max() - kHeaderBytes) /
      sizeof(double);
  if (cur.nx > kMaxDim || cur.ny > kMaxDim ||
      (cur.ny != 0 && cur.nx > kMaxValues / cur.ny)) {
    throw std::invalid_argument(
        "encode_frame: dimensions exceed the frame header");
  }
  const std::size_t n = cur.count();
  if (n > 0 && cur.data == nullptr) {
    throw std::invalid_argument("encode_frame: null data with nonzero dims");
  }
  if (n == 0) {
    CompressedFrame frame;
    frame.nx = static_cast<std::uint32_t>(cur.nx);
    frame.ny = static_cast<std::uint32_t>(cur.ny);
    frame.precision = precision;
    frame.mode = CompressedFrame::Mode::kRaw;
    write_header(frame.payload, frame.mode, precision, frame.nx, frame.ny);
    return frame;
  }
  return precision == CodecPrecision::kFloat32
             ? encode_at<float>(cur, prev, prev2, precision)
             : encode_at<double>(cur, prev, prev2, precision);
}

std::vector<double> decode_frame(const CompressedFrame& frame,
                                 const FieldView* prev,
                                 const FieldView* prev2) {
  const std::vector<std::uint8_t>& in = frame.payload;
  if (in.size() < kHeaderBytes || std::memcmp(in.data(), kMagic, 4) != 0) {
    throw std::invalid_argument("decode_frame: bad header");
  }
  const auto mode = static_cast<CompressedFrame::Mode>(in[4]);
  const auto precision = static_cast<CodecPrecision>(in[5]);
  const std::uint32_t nx = get_u32(in, 6);
  const std::uint32_t ny = get_u32(in, 10);
  if (mode != frame.mode || precision != frame.precision ||
      nx != frame.nx || ny != frame.ny) {
    throw std::invalid_argument("decode_frame: header/frame mismatch");
  }
  if (precision != CodecPrecision::kFloat32 &&
      precision != CodecPrecision::kFloat64) {
    throw std::invalid_argument("decode_frame: unknown precision");
  }
  const std::size_t n = static_cast<std::size_t>(nx) * ny;
  if (n == 0) {
    if (in.size() != kHeaderBytes) {
      throw std::invalid_argument("decode_frame: empty frame with body");
    }
    return {};
  }
  return precision == CodecPrecision::kFloat32
             ? decode_at<float>(frame, prev, prev2, nx, ny)
             : decode_at<double>(frame, prev, prev2, nx, ny);
}

// ---- FrameFieldCodec ----

namespace {

// True when `back` holds `cur`'s values at the coded precision, compared
// through their bit patterns so that NaNs and signed zeros must survive.
bool reconstructs(const std::vector<double>& back, FieldView cur,
                  CodecPrecision precision) {
  if (back.size() != cur.count()) return false;
  for (std::size_t k = 0; k < back.size(); ++k) {
    if (precision == CodecPrecision::kFloat32) {
      if (fbits(static_cast<float>(back[k])) !=
          fbits(static_cast<float>(cur.data[k]))) {
        return false;
      }
    } else {
      if (fbits(back[k]) != fbits(cur.data[k])) return false;
    }
  }
  return true;
}

}  // namespace

FrameFieldCodec::FrameFieldCodec(CodecOptions options) : options_(options) {}

void FrameFieldCodec::reset_history() { slots_.clear(); }

double FrameFieldCodec::cumulative_ratio() const {
  return total_raw_ == 0 || total_encoded_ == 0
             ? 1.0
             : static_cast<double>(total_raw_) /
                   static_cast<double>(total_encoded_);
}

CodecFrameReport FrameFieldCodec::encode_frame_fields(
    const std::vector<FieldView>& fields) {
  static thread_local obs::HotHistogram encode_hist("dataio.codec_encode");
  static thread_local obs::HotHistogram verify_hist("dataio.codec_verify");
  if (fields.size() > slots_.size()) slots_.resize(fields.size());
  // Calls fn(prev, prev2) with slot s's retained frames, null where the
  // slot has none yet.
  const auto with_history = [this](std::size_t s, auto&& fn) {
    const Slot& slot = slots_[s];
    const FieldView prev{slot.prev.data(), slot.prev_nx, slot.prev_ny};
    const FieldView prev2{slot.prev2.data(), slot.prev2_nx, slot.prev2_ny};
    return fn(slot.prev.empty() ? nullptr : &prev,
              slot.prev2.empty() ? nullptr : &prev2);
  };

  std::vector<CompressedFrame> encoded(fields.size());
  {
    obs::ScopedSpan span("dataio.codec_encode", encode_hist);
    for (std::size_t s = 0; s < fields.size(); ++s) {
      encoded[s] = with_history(s, [&](const FieldView* p1,
                                       const FieldView* p2) {
        return encode_frame(fields[s], p1, p2, options_.precision);
      });
    }
  }
  if (options_.verify_roundtrip) {
    obs::ScopedSpan span("dataio.codec_verify", verify_hist);
    for (std::size_t s = 0; s < fields.size(); ++s) {
      const std::vector<double> back = with_history(
          s, [&](const FieldView* p1, const FieldView* p2) {
            return decode_frame(encoded[s], p1, p2);
          });
      if (!reconstructs(back, fields[s], options_.precision)) {
        throw std::logic_error(
            "FrameFieldCodec: decoded frame does not reconstruct the "
            "encoded values bit-for-bit");
      }
    }
  }

  CodecFrameReport report;
  for (std::size_t s = 0; s < fields.size(); ++s) {
    report.raw_bytes += encoded[s].raw_bytes();
    report.encoded_bytes += encoded[s].encoded_bytes();
    ++report.fields;

    Slot& slot = slots_[s];
    const FieldView cur = fields[s];
    slot.prev2 = std::move(slot.prev);
    slot.prev2_nx = slot.prev_nx;
    slot.prev2_ny = slot.prev_ny;
    slot.prev.assign(cur.data, cur.data + cur.count());
    slot.prev_nx = cur.nx;
    slot.prev_ny = cur.ny;
  }

  total_raw_ += report.raw_bytes;
  total_encoded_ += report.encoded_bytes;
  last_ratio_ = report.ratio();
  return report;
}

}  // namespace adaptviz
