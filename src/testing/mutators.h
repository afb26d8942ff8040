// Structure-aware container mutators.
//
// Random byte fuzzing mostly dies in the magic check; these mutators
// parse the container first and then damage *specific* structures — a
// length field, a CRC, the IV, one frame of a chunked archive — so every
// decoder branch past the cheap validations gets exercised.  Built on
// the byte-level fault primitives in testing/fault_injection.h (the same
// harness the hand-written robustness suites use).
//
// Contract checked by the mutation tests (tests/container_mutation_test):
// every mutant fed to a strict decoder either throws szsec::Error or
// decodes to output bit-identical to the unmutated baseline (semantically
// inert bits exist in any DEFLATE-style stream); salvage decoding never
// throws and its SalvageReport stays consistent with the injected damage.
#pragma once

#include <string>
#include <vector>

#include "testing/fault_injection.h"
#include "testing/rng.h"

namespace szsec::testing {

/// One damaged variant of a container/archive, labelled with the exact
/// structural fault so failures name the decoder path that broke.
struct Mutant {
  std::string label;
  Bytes bytes;
};

/// Byte map of a v2 container (offsets into the container buffer).
/// The trailing fixed-size header fields are located from the back of
/// the serialized header; everything before them is the variable-length
/// semantic prefix (magic, scheme, dims, params...).
struct ContainerMap {
  size_t header_end = 0;   ///< first body byte
  size_t iv_begin = 0;     ///< 16-byte IV
  size_t crc_begin = 0;    ///< u32 payload CRC
  size_t size_begin = 0;   ///< u64 payload size
  size_t body_begin = 0;
  size_t body_end = 0;     ///< == tag_begin when authenticated
  size_t tag_begin = 0;    ///< 32-byte HMAC tag; == container size if none
};

/// Parses a well-formed v2 container into its byte map.  Throws Error on
/// malformed input (mutators only ever start from valid containers).
ContainerMap map_container(BytesView container);

/// Structure-aware mutants of one v2 container: truncations at every
/// structural boundary, per-region bit flips (semantic header prefix,
/// IV, payload CRC, payload size, body, MAC tag), length-field lies, and
/// body splices.  `rng` picks intra-region offsets; the set of regions
/// covered is deterministic.
std::vector<Mutant> mutate_container(BytesView container, PropRng& rng);

/// Structure-aware mutants of a v3 chunked archive: truncation at every
/// frame boundary (and mid-prelude/mid-frame), dropped / duplicated /
/// swapped chunk frames, index CRC corruption, per-region bit flips of a
/// frame header vs. its embedded container, resync-marker damage, and
/// frame-length lies.
std::vector<Mutant> mutate_archive(BytesView archive, PropRng& rng);

/// Forged-dims regression inputs.  A 2x8 float32 field (Scheme::kNone,
/// fixed IV seed) whose container header is rewritten to claim 2 x 2^39
/// elements, the payload CRC re-sealed as an attacker would; every
/// index, prelude and frame CRC around it is valid too, so only the
/// codec's own check (code count against dims) can reject it.  A
/// decoder that sizes its output from any of these claims asks for
/// 2^40 elements before that check runs.
/// The v3 form: one frame under an index claiming the same dims.
Bytes huge_dims_v3_archive();
/// The v1 form: one slab under a prelude claiming the same dims.
Bytes huge_dims_v1_archive();

}  // namespace szsec::testing
