/*
 * szsec — secure error-bounded lossy compression, stable C ABI.
 *
 * This is the one header an embedding application needs.  It wraps the
 * sans-io context core (src/core/sansio.h): a context is fed input
 * buffers and drained into caller-provided output buffers, and the
 * library performs no I/O of its own — no file descriptors, no
 * sockets, no temp files.  The same loop drives files, pipes, event
 * loops, and language bindings (wrappers/python ships a ctypes binding
 * over exactly these functions).
 *
 * ABI rules (see docs/EMBEDDING.md for the full policy):
 *  - Every exported symbol is prefixed `szsec_`; nothing else is
 *    exported from the shared library.
 *  - SZSEC_ABI_VERSION bumps on any incompatible change (symbol
 *    removal, struct layout change, error-code renumbering); the
 *    shared library's SONAME carries the same number.
 *  - Structs passed across the boundary start with a `struct_size`
 *    member, set by their `_init` function; future versions may append
 *    members, never reorder or remove them.
 *  - Error codes are negative, stable, and never reused.  Status codes
 *    are non-negative.  No C++ exceptions or types cross the boundary.
 *  - Functions returning buffers allocate them with the library's
 *    allocator; release with szsec_buffer_free(), never free().
 *
 * Minimal compression loop:
 *
 *   szsec_options o;
 *   szsec_options_init(&o);
 *   o.scheme = SZSEC_SCHEME_ENCR_HUFFMAN;
 *   o.rank = 3; o.dims[0] = 100; o.dims[1] = 500; o.dims[2] = 500;
 *   szsec_ctx *ctx = NULL;
 *   int rc = szsec_encoder_new(&o, key, 16, &ctx);
 *   while (rc >= 0 && rc != SZSEC_DONE) {
 *     if (rc == SZSEC_HAVE_OUTPUT) {
 *       size_t n = 0;
 *       rc = szsec_pull(ctx, buf, sizeof buf, &n);
 *       ...write n bytes anywhere...
 *     } else if (have more field bytes) {
 *       size_t n = 0;
 *       rc = szsec_feed(ctx, chunk, chunk_len, &n);
 *       ...advance the chunk by n...
 *     } else {
 *       rc = szsec_finish(ctx);
 *     }
 *   }
 *   if (rc < 0) fprintf(stderr, "%s\n", szsec_last_error_message());
 *   szsec_ctx_free(ctx);
 */
#ifndef SZSEC_H
#define SZSEC_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Incompatible-change counter; also the shared library's SOVERSION. */
#define SZSEC_ABI_VERSION 1

#ifndef SZSEC_API
#if defined(_WIN32)
#define SZSEC_API
#else
#define SZSEC_API __attribute__((visibility("default")))
#endif
#endif

/* ------------------------------------------------------------------ */
/* Status codes (non-negative): what the state machine wants next.    */

#define SZSEC_OK 0          /* success (calls with no machine state)   */
#define SZSEC_NEED_INPUT 1  /* feed more bytes (or finish)             */
#define SZSEC_HAVE_OUTPUT 2 /* pull ready bytes                        */
#define SZSEC_DONE 3        /* complete; szsec_ctx_info() is valid     */

/* ------------------------------------------------------------------ */
/* Error codes (negative, stable, never reused).                      */
/* szsec_last_error_message() holds detail for the calling thread.    */

#define SZSEC_E_ARG (-1)     /* NULL pointer / malformed argument      */
#define SZSEC_E_STATE (-2)   /* state-machine misuse (feed after
                                finish, reuse after error)             */
#define SZSEC_E_INVALID (-3) /* invalid configuration (bad key size,
                                scheme/cipher mismatch, bad dims)      */
#define SZSEC_E_CORRUPT (-4) /* damaged or forged container bytes      */
#define SZSEC_E_CRYPTO (-5)  /* cryptographic failure (MAC mismatch,
                                undecryptable payload)                 */
#define SZSEC_E_IO (-6)      /* byte stream failed permanently (e.g.
                                input ended mid-field)                 */
#define SZSEC_E_IO_TRANSIENT (-7) /* byte stream failed but a retry
                                may succeed (IoError::transient())     */
#define SZSEC_E_NOMEM (-8)    /* allocation failure                    */
#define SZSEC_E_INTERNAL (-9) /* unrecognized internal failure         */

/* ------------------------------------------------------------------ */
/* Enumerations (plain ints; values mirror the on-disk format codes   */
/* and are as stable as the containers themselves).                   */

#define SZSEC_SCHEME_NONE 0          /* compress only (paper baseline) */
#define SZSEC_SCHEME_CMPR_ENCR 1     /* compress, then encrypt stream  */
#define SZSEC_SCHEME_ENCR_QUANT 2    /* encrypt quantization array     */
#define SZSEC_SCHEME_ENCR_HUFFMAN 3  /* encrypt Huffman tree only      */

#define SZSEC_CIPHER_AES128 0
#define SZSEC_CIPHER_AES192 1
#define SZSEC_CIPHER_AES256 2
#define SZSEC_CIPHER_DES 3        /* breakable; measurement baseline   */
#define SZSEC_CIPHER_3DES 4
#define SZSEC_CIPHER_CHACHA20 5

#define SZSEC_MODE_CBC 0
#define SZSEC_MODE_CTR 1
#define SZSEC_MODE_ECB 2 /* insecure; kept for the paper's ablations   */

#define SZSEC_DTYPE_F32 0
#define SZSEC_DTYPE_F64 1

#define SZSEC_CONTAINER_V2_SINGLE 0  /* one container                  */
#define SZSEC_CONTAINER_V3_CHUNKED 1 /* fault-tolerant chunked archive */
#define SZSEC_CONTAINER_V1_SLAB 2    /* slab archive                   */

#define SZSEC_FILL_ZEROS 0 /* salvage: lost regions become 0.0        */
#define SZSEC_FILL_NAN 1   /* salvage: lost regions become NaN        */

#define SZSEC_MAX_RANK 4

/* ------------------------------------------------------------------ */
/* Configuration                                                      */

typedef struct szsec_ctx szsec_ctx; /* opaque */

/*
 * Shared option block for encoders, decoders, and the one-shot calls.
 * Always initialize with szsec_options_init() before setting fields —
 * it stamps struct_size (how the library versions this struct) and the
 * defaults.  Encoders read everything; decoders read only threads,
 * salvage, and salvage_fill (a container describes itself).
 */
typedef struct szsec_options {
  size_t struct_size; /* set by szsec_options_init()                  */

  /* Encoding: what to build. */
  int scheme;       /* SZSEC_SCHEME_*                                  */
  int cipher_kind;  /* SZSEC_CIPHER_*                                  */
  int cipher_mode;  /* SZSEC_MODE_*                                    */
  int authenticate; /* append + verify an HMAC-SHA256 tag              */
  int dtype;        /* SZSEC_DTYPE_*                                   */
  int container;    /* SZSEC_CONTAINER_*                               */
  int seek_table;   /* v3: append the random-access footer             */
  int rank;         /* 1..SZSEC_MAX_RANK                               */
  uint64_t dims[SZSEC_MAX_RANK]; /* extents, slowest-varying first     */
  double abs_error_bound;        /* pointwise absolute error bound     */
  uint32_t quant_bins;           /* linear-scale quantization bins     */
  uint32_t block_side;           /* predictor block side               */
  uint64_t chunks;  /* v3 chunk / v1 slab count (0 = library default;
                       pin it for byte-reproducible archives)          */
  uint32_t threads; /* codec worker threads (0 = library default;
                       never changes the emitted bytes)                */

  /* Decoding: strictness. */
  int salvage;      /* best-effort decode of damaged v3 archives       */
  int salvage_fill; /* SZSEC_FILL_* for unrecoverable regions          */

  /* Reproducibility: seed the IV generator instead of using fresh
   * process randomness.  Compression output becomes a pure function
   * of (options, key, field bytes).                                   */
  int has_drbg_seed;
  uint64_t drbg_seed;
} szsec_options;

SZSEC_API void szsec_options_init(szsec_options *opts);

/* ------------------------------------------------------------------ */
/* Library identity                                                   */

/* Human-readable release version, e.g. "1.0.0".  Static storage.     */
SZSEC_API const char *szsec_version(void);

/* The SZSEC_ABI_VERSION this library was built with.  Check it at
 * startup when loading dynamically.                                  */
SZSEC_API int szsec_abi_version(void);

/* Stable identifier for a status or error code ("SZSEC_E_CORRUPT"),
 * or "SZSEC_E_UNKNOWN" for a value this build does not know.  Static
 * storage.                                                           */
SZSEC_API const char *szsec_error_name(int code);

/* Detail message of the calling thread's most recent failed szsec_*
 * call.  Valid until that thread's next failed call; never NULL.     */
SZSEC_API const char *szsec_last_error_message(void);

/* ------------------------------------------------------------------ */
/* Streaming contexts                                                 */

/*
 * Creates an encoding context.  Input: exactly
 * dims[0]*...*dims[rank-1] elements of raw little-endian dtype bytes,
 * row-major.  Output: the finished container/archive bytes.  `key`
 * may be NULL iff key_len is 0 (required for encrypting schemes and
 * for authenticate).  On success *out_ctx is owned by the caller
 * (szsec_ctx_free); on failure *out_ctx is NULL and the negative
 * error code is returned.
 */
SZSEC_API int szsec_encoder_new(const szsec_options *opts,
                                const uint8_t *key, size_t key_len,
                                szsec_ctx **out_ctx);

/*
 * Creates a decoding context.  Input: container/archive bytes of any
 * supported family (v1 slab, v2 single, v3 chunked — sniffed from the
 * first four bytes).  Output: raw little-endian element bytes.
 */
SZSEC_API int szsec_decoder_new(const szsec_options *opts,
                                const uint8_t *key, size_t key_len,
                                szsec_ctx **out_ctx);

/*
 * Offers `len` bytes to the machine; *consumed (may be NULL) receives
 * how many were accepted — fewer than len when output is backed up
 * (pull, then re-offer the rest).  Returns the machine's status
 * (SZSEC_NEED_INPUT / SZSEC_HAVE_OUTPUT / SZSEC_DONE) or a negative
 * error.  After an error the context is dead: further calls return
 * SZSEC_E_STATE.
 */
SZSEC_API int szsec_feed(szsec_ctx *ctx, const uint8_t *data, size_t len,
                         size_t *consumed);

/*
 * Drains up to `cap` ready bytes into `out`; *produced (may be NULL)
 * receives the count (0 is normal when the machine needs input —
 * this call never blocks waiting for feed).  Returns status or error.
 */
SZSEC_API int szsec_pull(szsec_ctx *ctx, uint8_t *out, size_t cap,
                         size_t *produced);

/*
 * Declares end of input.  Remaining output stays pullable.  Calling
 * it twice is SZSEC_E_STATE; input ending mid-field is SZSEC_E_IO.
 */
SZSEC_API int szsec_finish(szsec_ctx *ctx);

/* The machine's current status without moving any bytes.            */
SZSEC_API int szsec_status(szsec_ctx *ctx);

/* Releases a context (NULL is a no-op).  Safe at any state; an
 * unfinished run is aborted.                                        */
SZSEC_API void szsec_ctx_free(szsec_ctx *ctx);

/* Outcome of a finished context (status SZSEC_DONE).                */
typedef struct szsec_info {
  size_t struct_size; /* set by the library                           */
  int container;      /* SZSEC_CONTAINER_*                            */
  int dtype;          /* SZSEC_DTYPE_*                                */
  int rank;
  uint64_t dims[SZSEC_MAX_RANK];
  uint64_t elements;    /* field elements moved                       */
  uint64_t bytes_in;    /* bytes accepted via feed                    */
  uint64_t bytes_out;   /* bytes drained via pull                     */
  uint64_t chunk_count; /* v3 chunks / v1 slabs (0 for v2)            */
  double compression_ratio; /* encode only; 0 otherwise               */
  int salvage_used;         /* decode ran in salvage mode             */
  uint64_t chunks_expected;  /* salvage only                          */
  uint64_t chunks_recovered; /* salvage only                          */
} szsec_info;

/* Fills *info for a context in status SZSEC_DONE (else
 * SZSEC_E_STATE).  info->struct_size must be set by the caller (use
 * sizeof); the library fills what both sides know.                  */
SZSEC_API int szsec_ctx_info(szsec_ctx *ctx, szsec_info *info);

/* ------------------------------------------------------------------ */
/* One-shot conveniences (implemented over the streaming contexts)    */

/*
 * Compresses `data_len` bytes of raw field data per `opts` into a
 * freshly allocated buffer (*out, *out_len).  Release *out with
 * szsec_buffer_free().
 */
SZSEC_API int szsec_compress(const szsec_options *opts, const uint8_t *key,
                             size_t key_len, const uint8_t *data,
                             size_t data_len, uint8_t **out,
                             size_t *out_len);

/*
 * Decompresses a container/archive into a freshly allocated buffer of
 * raw little-endian element bytes.  `opts` may be NULL for strict
 * defaults.  `info` (may be NULL) receives the outcome; set its
 * struct_size first.
 */
SZSEC_API int szsec_decompress(const szsec_options *opts,
                               const uint8_t *key, size_t key_len,
                               const uint8_t *container, size_t len,
                               uint8_t **out, size_t *out_len,
                               szsec_info *info);

/*
 * Structural integrity check without decoding (v2/v3; see
 * src/archive/verify.h).  `key` is only used to check HMAC tags.
 * Returns SZSEC_OK when a strict decode would pass every visible
 * check, SZSEC_E_CORRUPT (message names the first failure) when not.
 */
SZSEC_API int szsec_verify(const uint8_t *container, size_t len,
                           const uint8_t *key, size_t key_len);

/* Releases a buffer returned by szsec_compress/szsec_decompress.    */
SZSEC_API void szsec_buffer_free(uint8_t *buf);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* SZSEC_H */
