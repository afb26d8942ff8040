#include "zfpl/zfpl.h"

#include <algorithm>
#include <cmath>

#include "common/bitstream.h"
#include "common/error.h"

namespace szsec::zfpl {

namespace {

constexpr uint32_t kMagic = 0x505A5A53;  // "SZZP"
constexpr uint32_t kNbMask = 0xAAAAAAAAu;
constexpr int kEmaxBias = 300;  // ilogb(|v|) in [-300, 210] fits 10 bits
constexpr unsigned kEmaxBits = 10;

// Fixed-point fraction bits.  28 (not 31) so the lifting transform's
// intermediate sums never overflow int32 across three axes.
constexpr int kFracBits = 28;

// Block flags.
enum : unsigned { kBlockZero = 0, kBlockCoded = 1, kBlockRaw = 2 };

// Conservative accuracy budget, split half/half between two sources:
//  * conversion + lifting roundoff: the fixed-point cast costs < 1 unit
//    (2^(emax-kFracBits)), and the fwd/inv lifting pair — like real
//    ZFP's — is only approximately inverse in integer arithmetic,
//    observed <= ~16 units; kRoundoffBits = 5 (32 units) covers both and
//    is enforced <= tol/2 by the raw-block fallback;
//  * truncated planes: dropping below min_plane costs < 2^(min_plane+1)
//    units per coefficient, amplified < 2^4 through the inverse lifting,
//    kept <= tol/2 by the plane cutoff.
constexpr int kRoundoffBits = 5;
constexpr int kPlaneMargin = kFracBits - 6;  // = -1 (tol/2) - 5 (gain)

struct Shape {
  size_t nt, nz, ny, nx;
  int rank3;  // effective block dimensionality: 1, 2, or 3
};

Shape normalize(const Dims& dims) {
  switch (dims.rank()) {
    case 1:
      return {1, 1, 1, dims[0], 1};
    case 2:
      return {1, 1, dims[0], dims[1], 2};
    case 3:
      return {1, dims[0], dims[1], dims[2], 3};
    default:
      return {dims[0], dims[1], dims[2], dims[3], 3};
  }
}

// ZFP's exactly-invertible integer lifting pair (Lindstrom 2014).
inline void fwd_lift(int32_t& x, int32_t& y, int32_t& z, int32_t& w) {
  x += w;
  x >>= 1;
  w -= x;
  z += y;
  z >>= 1;
  y -= z;
  x += z;
  x >>= 1;
  z -= x;
  w += y;
  w >>= 1;
  y -= w;
  w += y >> 1;
  y -= w >> 1;
}

inline void inv_lift(int32_t& x, int32_t& y, int32_t& z, int32_t& w) {
  y += w >> 1;
  w -= y >> 1;
  y += w;
  w <<= 1;
  w -= y;
  z += x;
  x <<= 1;
  x -= z;
  y += z;
  z <<= 1;
  z -= y;
  w += x;
  x <<= 1;
  x -= w;
}

// Sequency (total-degree) coefficient order for a 4^d block.
std::vector<int> sequency_order(int d) {
  const int n = 1 << (2 * d);
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  auto degree = [d](int idx) {
    int sum = 0;
    for (int a = 0; a < d; ++a) {
      sum += (idx >> (2 * a)) & 3;
    }
    return sum;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return degree(a) < degree(b); });
  return order;
}

const std::vector<int>& perm_for(int d) {
  static const std::vector<int> p1 = sequency_order(1);
  static const std::vector<int> p2 = sequency_order(2);
  static const std::vector<int> p3 = sequency_order(3);
  switch (d) {
    case 1:
      return p1;
    case 2:
      return p2;
    default:
      return p3;
  }
}

inline uint32_t to_negabinary(int32_t i) {
  return (static_cast<uint32_t>(i) + kNbMask) ^ kNbMask;
}

inline int32_t from_negabinary(uint32_t u) {
  return static_cast<int32_t>((u ^ kNbMask) - kNbMask);
}

void fwd_transform(int32_t* b, int d) {
  // Along x (stride 1), then y (stride 4), then z (stride 16).
  for (int axis = 0; axis < d; ++axis) {
    const int stride = 1 << (2 * axis);
    const int lines = 1 << (2 * (d - 1));
    for (int line = 0; line < lines; ++line) {
      // Base index of this line: distribute `line` over the other axes.
      int base = 0, rem = line;
      for (int a = 0; a < d; ++a) {
        if (a == axis) continue;
        base += (rem & 3) << (2 * a);
        rem >>= 2;
      }
      fwd_lift(b[base], b[base + stride], b[base + 2 * stride],
               b[base + 3 * stride]);
    }
  }
}

void inv_transform(int32_t* b, int d) {
  for (int axis = d - 1; axis >= 0; --axis) {
    const int stride = 1 << (2 * axis);
    const int lines = 1 << (2 * (d - 1));
    for (int line = 0; line < lines; ++line) {
      int base = 0, rem = line;
      for (int a = 0; a < d; ++a) {
        if (a == axis) continue;
        base += (rem & 3) << (2 * a);
        rem >>= 2;
      }
      inv_lift(b[base], b[base + stride], b[base + 2 * stride],
               b[base + 3 * stride]);
    }
  }
}

// Embedded bitplane encoder with ZFP-style group testing.
void encode_planes(LsbBitWriter& w, const uint32_t* u, int n_coeff,
                   int min_plane) {
  int n = 0;  // significant prefix length
  for (int p = 31; p >= min_plane; --p) {
    for (int k = 0; k < n; ++k) w.put_bits((u[k] >> p) & 1, 1);
    while (n < n_coeff) {
      bool any = false;
      for (int j = n; j < n_coeff && !any; ++j) any = (u[j] >> p) & 1;
      w.put_bits(any ? 1 : 0, 1);
      if (!any) break;
      while (true) {
        const unsigned bit = (u[n] >> p) & 1;
        w.put_bits(bit, 1);
        ++n;
        if (bit) break;
      }
    }
  }
}

void decode_planes(LsbBitReader& r, uint32_t* u, int n_coeff,
                   int min_plane) {
  std::fill(u, u + n_coeff, 0u);
  int n = 0;
  for (int p = 31; p >= min_plane; --p) {
    for (int k = 0; k < n; ++k) {
      u[k] |= static_cast<uint32_t>(r.get_bit()) << p;
    }
    while (n < n_coeff) {
      if (!r.get_bit()) break;
      while (true) {
        SZSEC_CHECK_FORMAT(n < n_coeff, "zfpl significance overrun");
        const unsigned bit = r.get_bit();
        u[n] |= static_cast<uint32_t>(bit) << p;
        ++n;
        if (bit) break;
      }
    }
  }
}

// Gathers a 4^d block with edge-clamped indices (ZFP-style padding).
void gather(const float* vol, size_t nz, size_t ny, size_t nx, size_t z0,
            size_t y0, size_t x0, int d, float* out) {
  const int side_z = d >= 3 ? 4 : 1;
  const int side_y = d >= 2 ? 4 : 1;
  int idx = 0;
  for (int z = 0; z < side_z; ++z) {
    const size_t gz = std::min(z0 + static_cast<size_t>(z), nz - 1);
    for (int y = 0; y < side_y; ++y) {
      const size_t gy = std::min(y0 + static_cast<size_t>(y), ny - 1);
      for (int x = 0; x < 4; ++x) {
        const size_t gx = std::min(x0 + static_cast<size_t>(x), nx - 1);
        out[idx++] = vol[(gz * ny + gy) * nx + gx];
      }
    }
  }
}

void scatter(const float* block, float* vol, size_t nz, size_t ny,
             size_t nx, size_t z0, size_t y0, size_t x0, int d) {
  const int side_z = d >= 3 ? 4 : 1;
  const int side_y = d >= 2 ? 4 : 1;
  int idx = 0;
  for (int z = 0; z < side_z; ++z) {
    for (int y = 0; y < side_y; ++y) {
      for (int x = 0; x < 4; ++x, ++idx) {
        const size_t gz = z0 + static_cast<size_t>(z);
        const size_t gy = y0 + static_cast<size_t>(y);
        const size_t gx = x0 + static_cast<size_t>(x);
        if (gz < nz && gy < ny && gx < nx) {
          vol[(gz * ny + gy) * nx + gx] = block[idx];
        }
      }
    }
  }
}

int planes_cutoff(int emax, double tolerance) {
  // Keep planes down to min_plane; dropping below it keeps the
  // reconstruction within tolerance (see kPlaneMargin).
  const int log2_tol =
      static_cast<int>(std::floor(std::log2(tolerance)));
  const int min_plane = log2_tol - emax + kPlaneMargin;
  return std::clamp(min_plane, 0, 32);
}

void encode_block(LsbBitWriter& w, const float* vals, int d,
                  double tolerance) {
  const int n_coeff = 1 << (2 * d);
  // Classify.
  float max_abs = 0;
  bool finite = true;
  for (int i = 0; i < n_coeff; ++i) {
    if (!std::isfinite(vals[i])) finite = false;
    max_abs = std::max(max_abs, std::abs(vals[i]));
  }
  if (!finite) {
    w.put_bits(kBlockRaw, 2);
    for (int i = 0; i < n_coeff; ++i) {
      w.put_bits(std::bit_cast<uint32_t>(vals[i]), 32);
    }
    return;
  }
  if (max_abs <= tolerance) {
    w.put_bits(kBlockZero, 2);
    return;
  }
  const int emax = std::ilogb(max_abs) + 1;  // |v| < 2^emax
  // Raw fallback when fixed-point roundoff alone would exceed tol/2
  // (large values with a very tight bound) — exactness beats best effort.
  if (std::ldexp(1.0, emax - kFracBits + kRoundoffBits) >
      tolerance * 0.5) {
    w.put_bits(kBlockRaw, 2);
    for (int i = 0; i < n_coeff; ++i) {
      w.put_bits(std::bit_cast<uint32_t>(vals[i]), 32);
    }
    return;
  }
  w.put_bits(kBlockCoded, 2);
  w.put_bits(static_cast<uint32_t>(emax + kEmaxBias), kEmaxBits);

  const double scale = std::ldexp(1.0, kFracBits - emax);
  int32_t ints[64];
  for (int i = 0; i < n_coeff; ++i) {
    ints[i] = static_cast<int32_t>(vals[i] * scale);
  }
  fwd_transform(ints, d);
  const std::vector<int>& perm = perm_for(d);
  uint32_t u[64];
  for (int i = 0; i < n_coeff; ++i) u[i] = to_negabinary(ints[perm[i]]);
  encode_planes(w, u, n_coeff, planes_cutoff(emax, tolerance));
}

void decode_block(LsbBitReader& r, float* vals, int d, double tolerance) {
  const int n_coeff = 1 << (2 * d);
  const unsigned flag = static_cast<unsigned>(r.get_bits(2));
  if (flag == kBlockZero) {
    std::fill(vals, vals + n_coeff, 0.0f);
    return;
  }
  if (flag == kBlockRaw) {
    for (int i = 0; i < n_coeff; ++i) {
      vals[i] =
          std::bit_cast<float>(static_cast<uint32_t>(r.get_bits(32)));
    }
    return;
  }
  SZSEC_CHECK_FORMAT(flag == kBlockCoded, "bad zfpl block flag");
  const int emax =
      static_cast<int>(r.get_bits(kEmaxBits)) - kEmaxBias;
  SZSEC_CHECK_FORMAT(emax > -kEmaxBias && emax < 400, "bad zfpl exponent");

  uint32_t u[64];
  decode_planes(r, u, n_coeff, planes_cutoff(emax, tolerance));
  const std::vector<int>& perm = perm_for(d);
  int32_t ints[64];
  for (int i = 0; i < n_coeff; ++i) ints[perm[i]] = from_negabinary(u[i]);
  inv_transform(ints, d);
  const double inv_scale = std::ldexp(1.0, emax - kFracBits);
  for (int i = 0; i < n_coeff; ++i) {
    vals[i] = static_cast<float>(ints[i] * inv_scale);
  }
}

}  // namespace

Bytes compress(std::span<const float> data, const Dims& dims,
               double tolerance) {
  SZSEC_REQUIRE(data.size() == dims.count(), "data size mismatch");
  SZSEC_REQUIRE(tolerance > 0 && std::isfinite(tolerance),
                "tolerance must be positive and finite");
  const Shape s = normalize(dims);

  LsbBitWriter bits;
  const size_t vol = s.nz * s.ny * s.nx;
  float block[64];
  for (size_t t = 0; t < s.nt; ++t) {
    const float* v = data.data() + t * vol;
    for (size_t z0 = 0; z0 < s.nz; z0 += 4) {
      for (size_t y0 = 0; y0 < s.ny; y0 += 4) {
        for (size_t x0 = 0; x0 < s.nx; x0 += 4) {
          gather(v, s.nz, s.ny, s.nx, z0, y0, x0, s.rank3, block);
          encode_block(bits, block, s.rank3, tolerance);
        }
      }
    }
  }

  ByteWriter w;
  w.put_u32(kMagic);
  w.put_f64(tolerance);
  w.put_u8(static_cast<uint8_t>(dims.rank()));
  for (size_t i = 0; i < dims.rank(); ++i) w.put_varint(dims[i]);
  w.put_blob(BytesView(bits.finish()));
  return w.take();
}

Dims stream_dims(BytesView stream) {
  ByteReader r(stream);
  SZSEC_CHECK_FORMAT(r.get_u32() == kMagic, "bad zfpl magic");
  (void)r.get_f64();
  return read_dims(r);
}

std::vector<float> decompress(BytesView stream) {
  ByteReader r(stream);
  SZSEC_CHECK_FORMAT(r.get_u32() == kMagic, "bad zfpl magic");
  const double tolerance = r.get_f64();
  SZSEC_CHECK_FORMAT(tolerance > 0 && std::isfinite(tolerance),
                     "bad zfpl tolerance");
  const Dims dims = read_dims(r);
  const BytesView payload = r.get_blob();
  SZSEC_CHECK_FORMAT(r.done(), "trailing bytes in zfpl stream");

  const Shape s = normalize(dims);
  std::vector<float> out(dims.count());
  LsbBitReader bits(payload);
  const size_t vol = s.nz * s.ny * s.nx;
  float block[64];
  for (size_t t = 0; t < s.nt; ++t) {
    float* v = out.data() + t * vol;
    for (size_t z0 = 0; z0 < s.nz; z0 += 4) {
      for (size_t y0 = 0; y0 < s.ny; y0 += 4) {
        for (size_t x0 = 0; x0 < s.nx; x0 += 4) {
          decode_block(bits, block, s.rank3, tolerance);
          scatter(block, v, s.nz, s.ny, s.nx, z0, y0, x0, s.rank3);
        }
      }
    }
  }
  return out;
}

}  // namespace szsec::zfpl
