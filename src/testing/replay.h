// Shared fuzz-replay entry points: one function per attack surface,
// called both by the libFuzzer harnesses under fuzz/ and by the
// corpus-replay test that walks tests/corpus/ on every plain ctest run.
// Keeping the bodies here (rather than in each harness) guarantees the
// corpus is replayed through *exactly* the code path the fuzzer
// explored when it minimized the entry.
//
// Contract for every replay_* function: arbitrary input bytes either
// decode successfully or raise szsec::Error — no crash, no hang, no
// out-of-bounds access (the sanitize tier runs these under ASan/UBSan).
#pragma once

#include <string>

#include "common/bytestream.h"

namespace szsec::testing {

/// Deterministic key of `n` bytes shared by the harnesses and the
/// seed-corpus generator, so checked-in corpus entries decrypt and the
/// fuzzers reach past the cipher into the deep decode path.
Bytes replay_key(size_t n);

/// Arbitrary bytes into the v2 container decoder (header peek, then a
/// full decode keyed per the header's cipher kind) — or, for input with
/// the v1 slab-archive magic, into the slab decoder — then through
/// strict and salvage sans-io decoder Contexts fed and drained at split
/// points derived from the input; where the one-shot decode succeeds,
/// both Contexts must reproduce its bytes, and any non-szsec::Error
/// exception aborts.
void replay_decode(BytesView input);

/// Framed input ([count u16][tree_len u16][tree][codewords]) into the
/// canonical-Huffman table deserializer and symbol decoder.
void replay_huffman(BytesView input);

/// Arbitrary bytes into the DEFLATE decoder; a successful inflate must
/// additionally survive a deflate/inflate round trip bit-identically.
void replay_zlite(BytesView input);

/// Arbitrary bytes into the v3 chunked-archive surfaces: strict index
/// parse, strict f32/f64 decode, salvage decode, and the same split-point
/// Context differential as replay_decode (against the strict decode).
void replay_chunked(BytesView input);

/// Dispatches to the replay function for a corpus family name
/// ("decode", "huffman", "zlite", "chunked"); unknown names run the
/// input through every surface.
void replay_family(const std::string& family, BytesView input);

}  // namespace szsec::testing
