#include "testing/mutators.h"

#include "archive/chunked.h"
#include "common/crc32.h"
#include "core/container.h"
#include "core/secure_compressor.h"
#include "parallel/slab.h"

namespace szsec::testing {

namespace {

/// Flips a random bit inside [begin, end) of `in` (no-op span rejected
/// by the callers).
Bytes flip_in_region(BytesView in, size_t begin, size_t end, PropRng& rng) {
  const size_t bit = begin * 8 + rng.below((end - begin) * 8);
  return flip_bit(in, bit);
}

void add_flip(std::vector<Mutant>& out, BytesView base,
              const std::string& label, size_t begin, size_t end,
              PropRng& rng) {
  if (end > begin && end <= base.size()) {
    out.push_back({label, flip_in_region(base, begin, end, rng)});
  }
}

void add_truncate(std::vector<Mutant>& out, BytesView base,
                  const std::string& label, size_t len) {
  if (len < base.size()) out.push_back({label, truncate_to(base, len)});
}

}  // namespace

ContainerMap map_container(BytesView container) {
  const core::Header h = core::peek_header(container);
  ContainerMap m;
  m.header_end = core::write_header(h).size();
  // The serialized header ends with IV (16) | payload_crc (4) |
  // payload_size (8); see core/container.h write_header.
  m.size_begin = m.header_end - sizeof(uint64_t);
  m.crc_begin = m.size_begin - sizeof(uint32_t);
  m.iv_begin = m.crc_begin - 16;
  m.body_begin = m.header_end;
  const bool authed = (h.flags & core::kFlagAuthenticated) != 0;
  m.tag_begin = authed ? container.size() - 32 : container.size();
  m.body_end = m.tag_begin;
  SZSEC_REQUIRE(m.body_begin <= m.body_end, "container smaller than header");
  return m;
}

std::vector<Mutant> mutate_container(BytesView container, PropRng& rng) {
  const ContainerMap m = map_container(container);
  std::vector<Mutant> out;

  // Truncations at every structural boundary plus mid-region cuts.
  add_truncate(out, container, "truncate:empty", 0);
  add_truncate(out, container, "truncate:mid-magic", 3);
  add_truncate(out, container, "truncate:mid-header", m.header_end / 2);
  add_truncate(out, container, "truncate:header-only", m.header_end);
  add_truncate(out, container, "truncate:mid-body",
               m.body_begin + (m.body_end - m.body_begin) / 2);
  add_truncate(out, container, "truncate:last-byte", container.size() - 1);
  if (m.tag_begin < container.size()) {
    add_truncate(out, container, "truncate:tag-cut", m.tag_begin + 1);
  }

  // One bit flip per structural region.
  add_flip(out, container, "flip:magic", 0, 4, rng);
  add_flip(out, container, "flip:header-semantic", 4, m.iv_begin, rng);
  add_flip(out, container, "flip:iv", m.iv_begin, m.iv_begin + 16, rng);
  add_flip(out, container, "flip:payload-crc", m.crc_begin, m.crc_begin + 4,
           rng);
  add_flip(out, container, "flip:payload-size", m.size_begin,
           m.size_begin + 8, rng);
  add_flip(out, container, "flip:body", m.body_begin, m.body_end, rng);
  add_flip(out, container, "flip:mac-tag", m.tag_begin, container.size(),
           rng);

  // Length-field lies: the decoder must bound-check payload_size against
  // the actual buffer, and detect an in-bounds lie through the CRC.
  {
    Bytes huge(container.begin(), container.end());
    for (size_t i = 0; i < 8; ++i) huge[m.size_begin + i] = 0xFF;
    out.push_back({"lie:payload-size-huge", std::move(huge)});

    Bytes zero(container.begin(), container.end());
    for (size_t i = 0; i < 8; ++i) zero[m.size_begin + i] = 0;
    out.push_back({"lie:payload-size-zero", std::move(zero)});
  }

  // CRC wiped outright (not just flipped).
  {
    Bytes wiped(container.begin(), container.end());
    for (size_t i = 0; i < 4; ++i) wiped[m.crc_begin + i] = 0;
    out.push_back({"lie:payload-crc-zeroed", std::move(wiped)});
  }

  // Body splice: swap the two halves of the payload in place (valid
  // lengths, scrambled content).
  if (m.body_end - m.body_begin >= 2) {
    Bytes spliced(container.begin(), container.end());
    const size_t half = (m.body_end - m.body_begin) / 2;
    std::rotate(spliced.begin() + static_cast<std::ptrdiff_t>(m.body_begin),
                spliced.begin() + static_cast<std::ptrdiff_t>(m.body_begin +
                                                              half),
                spliced.begin() + static_cast<std::ptrdiff_t>(m.body_end));
    out.push_back({"splice:body-halves", std::move(spliced)});
  }

  // Junk insertion mid-body (shifts everything behind it).
  {
    const Bytes junk = rng.bytes(7);
    out.push_back(
        {"insert:mid-body",
         insert_bytes(container,
                      m.body_begin + (m.body_end - m.body_begin) / 2,
                      BytesView(junk))});
  }
  return out;
}

std::vector<Mutant> mutate_archive(BytesView archive, PropRng& rng) {
  const archive::ChunkIndex ix = archive::read_chunk_index(archive);
  std::vector<Mutant> out;

  // Truncation at every frame boundary, mid-prelude, and mid-frame.
  add_truncate(out, archive, "truncate:mid-index", ix.body_start / 2);
  add_truncate(out, archive, "truncate:prelude-only", ix.body_start);
  for (size_t i = 0; i < ix.entries.size(); ++i) {
    add_truncate(out, archive,
                 "truncate:frame-" + std::to_string(i) + "-start",
                 static_cast<size_t>(ix.entries[i].offset));
    add_truncate(out, archive, "truncate:frame-" + std::to_string(i) + "-mid",
                 static_cast<size_t>(ix.entries[i].offset +
                                     ix.entries[i].frame_len / 2));
  }
  add_truncate(out, archive, "truncate:last-byte", archive.size() - 1);

  // Frame splices via the shared fault primitives (index left stale on
  // purpose — that is exactly the damage salvage must survive).
  for (size_t i = 0; i < ix.entries.size(); ++i) {
    out.push_back({"splice:drop-chunk-" + std::to_string(i),
                   drop_chunk(archive, i)});
  }
  out.push_back({"splice:duplicate-chunk-0", duplicate_chunk(archive, 0)});
  if (ix.entries.size() >= 2) {
    out.push_back({"splice:swap-first-last",
                   swap_chunks(archive, 0, ix.entries.size() - 1)});
  }

  // Index CRC (the u32 directly before the first frame).
  add_flip(out, archive, "flip:index-crc", ix.body_start - 4, ix.body_start,
           rng);
  // Prelude dims/index region.
  add_flip(out, archive, "flip:prelude", 4, ix.body_start - 4, rng);

  // Per-frame structural damage: resync marker, frame header varints +
  // container CRC, embedded container bytes.
  for (size_t i = 0; i < ix.entries.size(); ++i) {
    const size_t begin = static_cast<size_t>(ix.entries[i].offset);
    const size_t end =
        static_cast<size_t>(ix.entries[i].offset + ix.entries[i].frame_len);
    const std::string n = std::to_string(i);

    // Locate the embedded container by parsing the frame header.
    ByteReader r(archive.subspan(begin, end - begin));
    r.get_u64();     // resync marker
    r.get_varint();  // chunk id
    r.get_varint();  // row start
    r.get_varint();  // row extent
    const size_t len_field = begin + r.pos();
    r.get_varint();  // container length
    r.get_u32();     // container CRC
    const size_t embedded = begin + r.pos();

    add_flip(out, archive, "flip:marker-" + n, begin, begin + 8, rng);
    add_flip(out, archive, "flip:frame-header-" + n, begin + 8, embedded,
             rng);
    add_flip(out, archive, "lie:frame-len-" + n, len_field, len_field + 1,
             rng);
    add_flip(out, archive, "flip:chunk-container-" + n, embedded, end, rng);
  }
  return out;
}

namespace {

/// The forged container behind huge_dims_v3_archive / _v1_archive.
Bytes huge_dims_container() {
  const Dims dims{2, 8};
  std::vector<float> f(dims.count());
  for (size_t i = 0; i < f.size(); ++i) {
    f[i] = 0.125f * static_cast<float>(i) - 4.0f;
  }
  sz::Params params;
  params.abs_error_bound = 1e-3;
  crypto::CtrDrbg drbg(0x416E);
  const core::SecureCompressor c(params, core::Scheme::kNone, {},
                                 crypto::Mode::kCbc, &drbg);
  const Bytes honest = c.compress(std::span<const float>(f), dims).container;

  core::Header h = core::peek_header(BytesView(honest));
  const size_t header_size = core::write_header(h).size();
  const BytesView payload = BytesView(honest).subspan(header_size);
  h.dims = Dims{2, size_t{1} << 39};
  h.payload_crc =
      crc32(payload, crc32(BytesView(core::header_semantic_bytes(h))));
  Bytes container = core::write_header(h);
  container.insert(container.end(), payload.begin(), payload.end());
  return container;
}

}  // namespace

Bytes huge_dims_v3_archive() {
  const Bytes container = huge_dims_container();
  const Dims huge = core::peek_header(BytesView(container)).dims;
  ByteWriter fw;
  fw.put_u64(archive::kResyncMarker);
  fw.put_varint(0);                    // chunk id
  fw.put_varint(0), fw.put_varint(2);  // rows [0, 2)
  fw.put_varint(container.size());
  fw.put_u32(crc32(BytesView(container)));
  fw.put_bytes(BytesView(container));
  const Bytes frame = fw.take();

  ByteWriter w;
  w.put_u32(archive::kChunkedMagic);
  w.put_u8(archive::kChunkedVersion);
  w.put_u8(2);
  w.put_varint(huge[0]), w.put_varint(huge[1]);
  w.put_varint(1);                              // one chunk
  w.put_varint(0), w.put_varint(frame.size());  // offset, frame_len
  w.put_varint(0), w.put_varint(2);             // rows [0, 2)
  w.put_u32(crc32(BytesView(w.bytes())));
  w.put_bytes(BytesView(frame));
  return w.take();
}

Bytes huge_dims_v1_archive() {
  const Bytes container = huge_dims_container();
  const Dims huge = core::peek_header(BytesView(container)).dims;
  ByteWriter w;
  w.put_u32(parallel::kArchiveMagic);
  w.put_u8(parallel::kArchiveVersion);
  w.put_u8(2);
  w.put_varint(huge[0]), w.put_varint(huge[1]);
  w.put_varint(1);  // one slab
  w.put_blob(BytesView(container));
  return w.take();
}

}  // namespace szsec::testing
