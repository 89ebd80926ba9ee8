//! The wire protocol (DESIGN.md §12): compact, length-prefixed,
//! checksummed binary frames.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! offset  size  field
//!      0     2  magic `b"HN"`
//!      2     1  protocol version (1 or 2 — see "Versioning" below)
//!      3     1  opcode
//!      4     4  sequence number (LE u32, echoed in the response)
//!      8     4  payload length N (LE u32, at most MAX_FRAME_PAYLOAD)
//!     12     N  payload (opcode-specific)
//!   12+N     4  CRC-32/IEEE (LE u32) over bytes [2, 12+N)
//! ```
//!
//! # Versioning
//!
//! The server negotiates per frame, not per connection: every version in
//! [`MIN_VERSION`]..=[`VERSION`] is accepted, and responses echo the
//! request frame's version, so a v1 client talking to a v2 server sees
//! pure v1 traffic. Version 2 adds two things (DESIGN.md §16):
//!
//! * an **optional trace-context tail** on `RunModel` payloads (a flags
//!   byte plus 16 bytes of [`TraceContext`]); a v2 frame without the
//!   tail is byte-identical to the v1 form;
//! * the **`Traces` opcode** (0x09), dumping the server's flight
//!   recorder as JSON. A v1 frame carrying it gets a typed protocol
//!   error naming both versions ([`WireError::VersionTooOld`]) — the
//!   connection stays usable.
//!
//! The checksum covers everything after the magic, so a flipped bit in
//! the version, opcode, sequence, length, or payload is detected. Errors
//! split into two classes: **fatal** ones (bad magic, oversized length,
//! truncated stream) mean the byte stream can no longer be framed and
//! the connection must close; **recoverable** ones (checksum mismatch,
//! unsupported version, unknown opcode, malformed payload) leave the
//! stream framed, so the server replies with a typed error frame and the
//! connection stays usable.
//!
//! All multi-byte integers are little-endian. `f64` values travel as
//! their IEEE-754 bit patterns, so NaN payloads and infinities round-trip
//! bit-exactly. Strings are UTF-8 with a `u16` length prefix; tensor keys
//! are additionally validated (non-empty, at most
//! [`hpcnet_runtime::store::MAX_KEY_BYTES`] bytes) at decode time.

use std::io::{Read, Write};

use hpcnet_runtime::store::{MAX_DENSE_ELEMS, MAX_KEY_BYTES};
use hpcnet_runtime::RuntimeError;
use hpcnet_telemetry::trace::TRACE_CONTEXT_WIRE_LEN;
use hpcnet_telemetry::TraceContext;
use hpcnet_tensor::Csr;

/// Frame preamble: "HN" for HPCnet.
pub const MAGIC: [u8; 2] = *b"HN";

/// Current protocol version: v2 adds the optional trace-context tail on
/// `RunModel` and the `Traces` opcode.
pub const VERSION: u8 = 2;

/// Oldest version still served. Frames carrying any version in
/// `MIN_VERSION..=VERSION` are accepted and answered in kind; anything
/// outside the range gets a protocol-error frame naming both bounds.
pub const MIN_VERSION: u8 = 1;

/// First protocol version that carries the `Traces` opcode.
pub const TRACES_MIN_VERSION: u8 = 2;

/// `RunModel` tail flag bit: a 16-byte [`TraceContext`] follows.
pub const RUN_MODEL_FLAG_TRACE: u8 = 0x01;

/// Fixed bytes before the payload.
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame payload (64 MiB ≈ an 8M-element f64 tensor).
/// Larger declared lengths are treated as stream desynchronization.
pub const MAX_FRAME_PAYLOAD: usize = 64 << 20;

// What the runtime agrees to densify for a `GET_TENSOR` must be a payload
// a `TENSOR` reply can carry — up to the reply's 4-byte count, which the
// bound in `encode_frame` catches.
const _: () = assert!(MAX_DENSE_ELEMS <= MAX_FRAME_PAYLOAD / 8);

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial): carry-less folding where the
// CPU has it, slicing-by-8 everywhere else (DESIGN.md §12).
// ---------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k]`
/// advances a byte through `k` further zero bytes, so eight lookups
/// retire eight input bytes per step instead of one.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// Fold `data` into the running (pre-inversion) CRC state `c`: by
/// carry-less multiplication where the CPU can (which itself leaves
/// inputs under 64 bytes to the sliced path), by slicing-by-8 elsewhere.
/// Same state in, same state out, whichever runs.
fn crc32_update(c: u32, data: &[u8]) -> u32 {
    crc32_update_folded(c, data).unwrap_or_else(|| crc32_update_sliced(c, data))
}

/// [`crc32_update`] by slicing-by-8: the path of every CPU without
/// `pclmulqdq`, of short inputs, and of the bytes behind the last whole
/// 16-byte lane of a folded input.
pub(crate) fn crc32_update_sliced(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// [`crc32_update`] by carry-less folding, at any input length; `None`
/// where this CPU (or this build: another architecture, Miri) has no
/// folded path.
#[cfg(all(target_arch = "x86_64", not(miri)))]
pub(crate) fn crc32_update_folded(c: u32, data: &[u8]) -> Option<u32> {
    if is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1") {
        // SAFETY: `folded::update` is safe code throughout; what makes the
        // call unsafe is that it is compiled for `pclmulqdq` and `sse4.1`,
        // and the line above has just found both on the running CPU.
        return Some(unsafe { folded::update(c, data) });
    }
    None
}

/// No folded path in this build.
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
pub(crate) fn crc32_update_folded(_c: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// CRC-32 by folding with `PCLMULQDQ` (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009), for the reflected IEEE polynomial.
///
/// The message is a polynomial over GF(2) and its CRC the remainder
/// modulo P. Split it anywhere, `M = H·x^n + L`: then
/// `M ≡ H·(x^n mod P) + L (mod P)`, so multiplying the high part by the
/// *constant* `x^n mod P` — one carry-less multiply — and adding it onto
/// the low part leaves the remainder as it was. Four 128-bit lanes walk
/// the input 64 bytes at a time, each folded 512 bits forward onto the
/// next block; the four fold into one, that one over any further 16-byte
/// chunks, and 128 bits reduce to 64, then to 32 with a Barrett step in
/// place of a division.
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod folded {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    use super::crc32_update_sliced;

    // `x^n mod P`, bit-reflected like the data and shifted left by one
    // (a carry-less product of two reflected operands comes out one bit
    // low); `crc32_fold_constants_are_what_their_names_say` recomputes
    // each from its definition.
    /// n = 4·128 + 32: a lane's low half, folded four lanes ahead.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    /// n = 4·128 − 32: a lane's high half, folded four lanes ahead.
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// n = 128 + 32: the low half, folded one lane ahead.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    /// n = 128 − 32: the high half, folded one lane ahead.
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// n = 64: the 96 → 64 bit step.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// P itself, all 33 bits, reflected.
    pub(super) const POLY: i64 = 0x1_DB71_0641;
    /// μ = ⌊x^64 / P⌋, 33 bits, reflected: Barrett's stand-in for 1/P.
    pub(super) const MU: i64 = 0x1_F701_1641;

    /// Sixteen input bytes as one lane (compiles to an unaligned load).
    #[inline]
    #[target_feature(enable = "sse2")]
    fn lane(bytes: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*bytes);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    /// Move `x` forward by the distance `k` stands for and add it onto
    /// `onto`: the low half times the low constant, the high half times
    /// the high one.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold(x: __m128i, k: __m128i, onto: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), onto)
    }

    /// [`super::crc32_update`] for a CPU with `pclmulqdq` and `sse4.1`.
    /// Folds the longest prefix that is a whole number of 16-byte lanes,
    /// if that is at least the four lanes the fold starts from; the rest
    /// (at most 15 bytes then) goes through the sliced path.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(c: u32, data: &[u8]) -> u32 {
        let (blocks, rest) = data.as_chunks::<64>();
        let Some((first, blocks)) = blocks.split_first() else {
            return crc32_update_sliced(c, data);
        };
        let lanes = |block: &[u8; 64]| -> [__m128i; 4] {
            let (l, _) = block.as_chunks::<16>();
            [lane(&l[0]), lane(&l[1]), lane(&l[2]), lane(&l[3])]
        };

        // The running state enters as the CRC always does: xor-ed onto
        // the first four message bytes.
        let [mut x0, mut x1, mut x2, mut x3] = lanes(first);
        x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(c as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for block in blocks {
            let [y0, y1, y2, y3] = lanes(block);
            x0 = fold(x0, k1k2, y0);
            x1 = fold(x1, k1k2, y1);
            x2 = fold(x2, k1k2, y2);
            x3 = fold(x3, k1k2, y3);
        }

        // Four lanes into one, then that one over what whole lanes are
        // left behind the last 64-byte block.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x0, k3k4, x1);
        x = fold(x, k3k4, x2);
        x = fold(x, k3k4, x3);
        let (singles, tail) = rest.as_chunks::<16>();
        for chunk in singles {
            x = fold(x, k3k4, lane(chunk));
        }

        // 128 → 64 bits: the low half moves up by 64 (times `K4`) onto
        // the high half. 96 → 64: the low 32 bits move up by 64 (`K5`).
        let low32 = _mm_set_epi32(0, -1, 0, -1);
        let x = _mm_xor_si128(
            _mm_srli_si128::<8>(x),
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
        );
        let x = _mm_xor_si128(
            _mm_srli_si128::<4>(x),
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
        );

        // Barrett: the quotient by P is (x·μ)'s low 32 bits; the
        // remainder is x minus quotient·P, read from bits 32..64.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), poly_mu);
        let qp = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, low32), poly_mu);
        let c = _mm_extract_epi32::<1>(_mm_xor_si128(x, qp)) as u32;
        crc32_update_sliced(c, tail)
    }
}

/// CRC-32/IEEE over a contiguous buffer.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_parts(&[data])
}

/// CRC-32/IEEE over the concatenation of `parts` (without copying): the
/// running state carries across parts, so any split of a buffer yields
/// the checksum of the whole.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        c = crc32_update(c, part);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Opcodes
// ---------------------------------------------------------------------

/// Request opcodes occupy 0x01–0x7F, responses 0x80–0xFF.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Store a dense tensor.
    PutTensor = 0x01,
    /// Store a sparse (CSR) tensor.
    PutSparse = 0x02,
    /// Fetch a tensor, densified.
    GetTensor = 0x03,
    /// Run a registered model, with an optional deadline.
    RunModel = 0x04,
    /// Delete a tensor.
    Del = 0x05,
    /// Serving statistics as JSON text.
    Stats = 0x06,
    /// Prometheus text exposition of the server's telemetry.
    Metrics = 0x07,
    /// Liveness probe; the payload is echoed back.
    Ping = 0x08,
    /// Flight-recorder dump as JSON text (protocol ≥ 2).
    Traces = 0x09,
    /// Success with no payload.
    Ok = 0x81,
    /// A dense tensor payload.
    Tensor = 0x82,
    /// Result of a `Del`: whether the key existed.
    Deleted = 0x83,
    /// UTF-8 text payload (`Stats` / `Metrics` replies).
    Text = 0x84,
    /// `Ping` reply, echoing the request payload.
    Pong = 0x85,
    /// A typed error frame.
    Error = 0xEE,
}

impl Opcode {
    /// Parse a wire byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        Some(match b {
            0x01 => Opcode::PutTensor,
            0x02 => Opcode::PutSparse,
            0x03 => Opcode::GetTensor,
            0x04 => Opcode::RunModel,
            0x05 => Opcode::Del,
            0x06 => Opcode::Stats,
            0x07 => Opcode::Metrics,
            0x08 => Opcode::Ping,
            0x09 => Opcode::Traces,
            0x81 => Opcode::Ok,
            0x82 => Opcode::Tensor,
            0x83 => Opcode::Deleted,
            0x84 => Opcode::Text,
            0x85 => Opcode::Pong,
            0xEE => Opcode::Error,
            _ => return None,
        })
    }

    /// Stable lowercase name (telemetry label, error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Opcode::PutTensor => "put_tensor",
            Opcode::PutSparse => "put_sparse",
            Opcode::GetTensor => "get_tensor",
            Opcode::RunModel => "run_model",
            Opcode::Del => "del",
            Opcode::Stats => "stats",
            Opcode::Metrics => "metrics",
            Opcode::Ping => "ping",
            Opcode::Traces => "traces",
            Opcode::Ok => "ok",
            Opcode::Tensor => "tensor",
            Opcode::Deleted => "deleted",
            Opcode::Text => "text",
            Opcode::Pong => "pong",
            Opcode::Error => "error",
        }
    }
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Everything that can go wrong turning bytes into frames and frames
/// into messages.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed or ended mid-frame.
    Io(std::io::Error),
    /// The first two bytes were not [`MAGIC`] — the stream is not (or no
    /// longer) speaking this protocol.
    BadMagic([u8; 2]),
    /// The frame declared an implausible payload length.
    Oversize(u32),
    /// The frame arrived intact but carries an unsupported version.
    BadVersion(u8),
    /// The opcode needs a newer protocol version than the frame carries
    /// (e.g. a v1 frame asking for the v2-only `Traces` dump).
    VersionTooOld {
        /// Stable opcode name.
        op: &'static str,
        /// Minimum version the opcode requires.
        needs: u8,
        /// Version the frame carried.
        got: u8,
    },
    /// The checksum did not match the received bytes.
    Checksum {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried by the frame.
        received: u32,
    },
    /// The opcode byte is not assigned (or not valid in this direction).
    UnknownOpcode(u8),
    /// The payload did not decode as the opcode's schema.
    Malformed(String),
    /// A tensor key of zero length (always invalid).
    EmptyKey,
}

impl WireError {
    /// Fatal errors desynchronize the byte stream: the connection cannot
    /// be trusted to frame correctly afterwards and must close.
    /// Everything else is answerable with an error frame.
    pub fn is_fatal(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::BadMagic(_) | WireError::Oversize(_)
        )
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::Oversize(n) => write!(f, "declared payload of {n} bytes exceeds limit"),
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this side speaks {MIN_VERSION} through {VERSION})"
                )
            }
            WireError::VersionTooOld { op, needs, got } => write!(
                f,
                "`{op}` requires protocol version {needs}, but the frame carries version {got}"
            ),
            WireError::Checksum { computed, received } => write!(
                f,
                "checksum mismatch: computed {computed:08x}, frame carries {received:08x}"
            ),
            WireError::UnknownOpcode(b) => write!(f, "unknown opcode 0x{b:02x}"),
            WireError::Malformed(m) => write!(f, "malformed payload: {m}"),
            WireError::EmptyKey => write!(f, "zero-length tensor key"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Wire faults map onto the runtime's typed errors: stream-level faults
/// are transport problems, everything else is a protocol violation.
impl From<WireError> for RuntimeError {
    fn from(e: WireError) -> Self {
        match &e {
            WireError::Io(_) => RuntimeError::Transport(e.to_string()),
            _ => RuntimeError::Protocol(e.to_string()),
        }
    }
}

/// Fixed-width slice → array conversion for slices whose length is
/// already guaranteed by `take`/`chunks_exact`/const-width indexing.
fn to_array<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(bytes);
    out
}

// ---------------------------------------------------------------------
// Requests and responses
// ---------------------------------------------------------------------

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store a dense tensor under `key`.
    PutTensor {
        /// Destination key.
        key: String,
        /// Row values.
        values: Vec<f64>,
    },
    /// Store a sparse tensor under `key` without densification.
    PutSparse {
        /// Destination key.
        key: String,
        /// The CSR payload.
        tensor: Csr,
    },
    /// Fetch the tensor under `key`, densified.
    GetTensor {
        /// Source key.
        key: String,
    },
    /// Run `model` over `in_key`, storing the output under `out_key`.
    RunModel {
        /// Registered model name.
        model: String,
        /// Input tensor key.
        in_key: String,
        /// Output tensor key.
        out_key: String,
        /// Per-request deadline in microseconds; 0 means "use the
        /// server's default" (or none, when the server has none).
        deadline_micros: u64,
        /// Propagated trace context (protocol ≥ 2): the server's request
        /// span joins the caller's trace instead of starting a new one.
        /// `None` encodes to the v1 payload form, byte for byte.
        trace: Option<TraceContext>,
    },
    /// Delete the tensor under `key`.
    Del {
        /// Key to delete.
        key: String,
    },
    /// Serving statistics (JSON text reply).
    Stats,
    /// Prometheus exposition (text reply).
    Metrics,
    /// Liveness probe; `payload` is echoed back verbatim.
    Ping {
        /// Opaque bytes to echo.
        payload: Vec<u8>,
    },
    /// Flight-recorder dump (JSON text reply; protocol ≥ 2).
    Traces,
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::PutTensor { .. } => Opcode::PutTensor,
            Request::PutSparse { .. } => Opcode::PutSparse,
            Request::GetTensor { .. } => Opcode::GetTensor,
            Request::RunModel { .. } => Opcode::RunModel,
            Request::Del { .. } => Opcode::Del,
            Request::Stats => Opcode::Stats,
            Request::Metrics => Opcode::Metrics,
            Request::Ping { .. } => Opcode::Ping,
            Request::Traces => Opcode::Traces,
        }
    }

    /// Encode the payload bytes (header excluded).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_payload(&mut buf);
        buf
    }

    /// Append this request to `buf` as one complete frame; returns the
    /// frame's wire length — 0, with `buf` as it was, for a request whose
    /// payload is over [`MAX_FRAME_PAYLOAD`].
    pub fn encode_frame(&self, buf: &mut Vec<u8>, version: u8, seq: u32) -> usize {
        encode_frame(buf, version, self.opcode(), seq, |buf| {
            self.write_payload(buf)
        })
        .unwrap_or(0)
    }

    fn write_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Request::PutTensor { key, values } => payload::put_tensor(buf, key, values),
            Request::PutSparse { key, tensor } => payload::put_sparse(buf, key, tensor),
            Request::GetTensor { key } | Request::Del { key } => payload::key(buf, key),
            Request::RunModel {
                model,
                in_key,
                out_key,
                deadline_micros,
                trace,
            } => payload::run_model(buf, model, in_key, out_key, *deadline_micros, *trace),
            Request::Stats | Request::Metrics | Request::Traces => {}
            Request::Ping { payload } => buf.extend_from_slice(payload),
        }
    }
}

/// Request payload encoders over *borrowed* parts: the one place each
/// payload schema is written. [`Request::encode`] goes through them, and
/// the clients call them directly so a `put_tensor(&[f64])` is encoded
/// straight into its frame buffer without first being copied into an
/// owned [`Request`].
pub(crate) mod payload {
    use super::{Csr, PayloadWriter, TraceContext, CRC_LEN, RUN_MODEL_FLAG_TRACE};

    /// `PutTensor`: key, then a counted run of `f64` bit patterns.
    pub fn put_tensor(buf: &mut Vec<u8>, key: &str, values: &[f64]) {
        let mut w = PayloadWriter::new(buf);
        w.str16(key);
        w.u32(values.len() as u32);
        w.reserve(values.len() * 8 + CRC_LEN);
        w.f64_run(values);
    }

    /// `PutSparse`: key, shape, then the three CSR arrays.
    pub fn put_sparse(buf: &mut Vec<u8>, key: &str, tensor: &Csr) {
        let mut w = PayloadWriter::new(buf);
        w.str16(key);
        w.u32(tensor.nrows() as u32);
        w.u32(tensor.ncols() as u32);
        w.u32(tensor.nnz() as u32);
        w.reserve((tensor.indptr().len() + tensor.nnz()) * 4 + tensor.nnz() * 8 + CRC_LEN);
        w.u32_run(tensor.indptr());
        w.u32_run(tensor.indices());
        w.f64_run(tensor.values());
    }

    /// `GetTensor` / `Del`: just the key.
    pub fn key(buf: &mut Vec<u8>, key: &str) {
        PayloadWriter::new(buf).str16(key);
    }

    /// `RunModel`: three strings, the deadline, and the optional v2 tail.
    pub fn run_model(
        buf: &mut Vec<u8>,
        model: &str,
        in_key: &str,
        out_key: &str,
        deadline_micros: u64,
        trace: Option<TraceContext>,
    ) {
        let mut w = PayloadWriter::new(buf);
        w.str16(model);
        w.str16(in_key);
        w.str16(out_key);
        w.u64(deadline_micros);
        // The v2 tail is only emitted when there is a context to carry,
        // so a trace-less v2 frame stays v1-identical.
        if let Some(ctx) = trace {
            w.u8(RUN_MODEL_FLAG_TRACE);
            w.bytes(&ctx.to_wire());
        }
    }
}

/// An error frame's contents, mirroring [`RuntimeError`] across the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// One of the [`err_code`] constants.
    pub code: u8,
    /// Code-specific detail (the queue depth for `OVERLOADED`, else 0).
    pub detail: u32,
    /// Human-readable context (the missing key, the model name, ...).
    pub message: String,
}

/// Wire error codes carried by [`ErrorFrame::code`].
pub mod err_code {
    /// [`RuntimeError::MissingTensor`](hpcnet_runtime::RuntimeError::MissingTensor).
    pub const MISSING_TENSOR: u8 = 1;
    /// [`RuntimeError::MissingModel`](hpcnet_runtime::RuntimeError::MissingModel).
    pub const MISSING_MODEL: u8 = 2;
    /// [`RuntimeError::Inference`](hpcnet_runtime::RuntimeError::Inference).
    pub const INFERENCE: u8 = 3;
    /// [`RuntimeError::InvalidKey`](hpcnet_runtime::RuntimeError::InvalidKey).
    pub const INVALID_KEY: u8 = 4;
    /// [`RuntimeError::Overloaded`](hpcnet_runtime::RuntimeError::Overloaded)
    /// — `detail` carries the queue depth.
    pub const OVERLOADED: u8 = 5;
    /// [`RuntimeError::DeadlineExceeded`](hpcnet_runtime::RuntimeError::DeadlineExceeded).
    pub const DEADLINE_EXCEEDED: u8 = 6;
    /// [`RuntimeError::ShuttingDown`](hpcnet_runtime::RuntimeError::ShuttingDown).
    pub const SHUTTING_DOWN: u8 = 7;
    /// [`RuntimeError::QualityRejected`](hpcnet_runtime::RuntimeError::QualityRejected).
    pub const QUALITY_REJECTED: u8 = 8;
    /// [`RuntimeError::Disconnected`](hpcnet_runtime::RuntimeError::Disconnected).
    pub const DISCONNECTED: u8 = 9;
    /// [`RuntimeError::Protocol`](hpcnet_runtime::RuntimeError::Protocol)
    /// — the peer sent an unusable frame.
    pub const PROTOCOL: u8 = 10;
    /// [`RuntimeError::Transport`](hpcnet_runtime::RuntimeError::Transport).
    pub const TRANSPORT: u8 = 11;
}

impl ErrorFrame {
    /// The wire form of a [`RuntimeError`].
    pub fn from_runtime(e: &RuntimeError) -> ErrorFrame {
        let (code, detail, message) = match e {
            RuntimeError::MissingTensor(k) => (err_code::MISSING_TENSOR, 0, k.clone()),
            RuntimeError::MissingModel(m) => (err_code::MISSING_MODEL, 0, m.clone()),
            RuntimeError::Inference(m) => (err_code::INFERENCE, 0, m.clone()),
            RuntimeError::InvalidKey(m) => (err_code::INVALID_KEY, 0, m.clone()),
            RuntimeError::Overloaded { queue_depth } => {
                (err_code::OVERLOADED, *queue_depth as u32, String::new())
            }
            RuntimeError::DeadlineExceeded => (err_code::DEADLINE_EXCEEDED, 0, String::new()),
            RuntimeError::ShuttingDown => (err_code::SHUTTING_DOWN, 0, String::new()),
            RuntimeError::QualityRejected(m) => (err_code::QUALITY_REJECTED, 0, m.clone()),
            RuntimeError::Disconnected => (err_code::DISCONNECTED, 0, String::new()),
            RuntimeError::Protocol(m) => (err_code::PROTOCOL, 0, m.clone()),
            RuntimeError::Transport(m) => (err_code::TRANSPORT, 0, m.clone()),
        };
        ErrorFrame {
            code,
            detail,
            message,
        }
    }

    /// Decode back into the typed [`RuntimeError`] — the inverse of
    /// [`ErrorFrame::from_runtime`], so remote callers can match on the
    /// same variants as in-process ones.
    pub fn to_runtime(&self) -> RuntimeError {
        match self.code {
            err_code::MISSING_TENSOR => RuntimeError::MissingTensor(self.message.clone()),
            err_code::MISSING_MODEL => RuntimeError::MissingModel(self.message.clone()),
            err_code::INFERENCE => RuntimeError::Inference(self.message.clone()),
            err_code::INVALID_KEY => RuntimeError::InvalidKey(self.message.clone()),
            err_code::OVERLOADED => RuntimeError::Overloaded {
                queue_depth: self.detail as usize,
            },
            err_code::DEADLINE_EXCEEDED => RuntimeError::DeadlineExceeded,
            err_code::SHUTTING_DOWN => RuntimeError::ShuttingDown,
            err_code::QUALITY_REJECTED => RuntimeError::QualityRejected(self.message.clone()),
            err_code::DISCONNECTED => RuntimeError::Disconnected,
            err_code::TRANSPORT => RuntimeError::Transport(self.message.clone()),
            // PROTOCOL and anything a newer peer might add.
            _ => RuntimeError::Protocol(self.message.clone()),
        }
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with nothing to return.
    Ok,
    /// A densified tensor.
    Tensor(Vec<f64>),
    /// Whether the deleted key existed.
    Deleted(bool),
    /// UTF-8 text (stats JSON or Prometheus exposition).
    Text(String),
    /// Ping echo.
    Pong(Vec<u8>),
    /// A typed error.
    Error(ErrorFrame),
}

impl Response {
    /// The opcode this response travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Response::Ok => Opcode::Ok,
            Response::Tensor(_) => Opcode::Tensor,
            Response::Deleted(_) => Opcode::Deleted,
            Response::Text(_) => Opcode::Text,
            Response::Pong(_) => Opcode::Pong,
            Response::Error(_) => Opcode::Error,
        }
    }

    /// Encode the payload bytes (header excluded).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.write_payload(&mut buf);
        buf
    }

    /// Append this response to `buf` as one complete frame; returns the
    /// frame's wire length. A response whose payload is over
    /// [`MAX_FRAME_PAYLOAD`] — a frame the peer would hang up on — goes
    /// out as the typed protocol error saying so instead.
    pub fn encode_frame(&self, buf: &mut Vec<u8>, version: u8, seq: u32) -> usize {
        let mut encode = |response: &Response| {
            encode_frame(buf, version, response.opcode(), seq, |buf| {
                response.write_payload(buf)
            })
        };
        encode(self)
            .or_else(|e| encode(&Response::Error(ErrorFrame::from_runtime(&e.into()))))
            .unwrap_or(0)
    }

    fn write_payload(&self, buf: &mut Vec<u8>) {
        let mut w = PayloadWriter::new(buf);
        match self {
            Response::Ok => {}
            Response::Tensor(values) => {
                w.u32(values.len() as u32);
                w.reserve(values.len() * 8 + CRC_LEN);
                w.f64_run(values);
            }
            Response::Deleted(existed) => w.u8(u8::from(*existed)),
            Response::Text(text) => w.bytes(text.as_bytes()),
            Response::Pong(payload) => w.bytes(payload),
            Response::Error(e) => {
                w.u8(e.code);
                w.u32(e.detail);
                w.str16(&e.message);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Frame I/O
// ---------------------------------------------------------------------

/// A validated frame: consistent header, matching checksum, supported
/// version. The payload is not yet interpreted.
#[derive(Debug, Clone, PartialEq)]
pub struct RawFrame {
    /// The protocol version the frame carried (within
    /// [`MIN_VERSION`]..=[`VERSION`] — [`read_frame`] checks). Servers
    /// echo it in the response so old clients see old-version traffic.
    pub version: u8,
    /// The opcode byte (possibly unassigned — decoding checks).
    pub opcode: u8,
    /// Correlation id, echoed by responses.
    pub seq: u32,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

/// What reading one frame yielded: a usable frame, or a frame-shaped
/// region of the stream that failed validation but left the stream
/// framed (reply with an error, keep the connection).
#[derive(Debug)]
pub enum FrameOutcome {
    /// A well-formed frame.
    Frame(RawFrame),
    /// Header was consistent but the frame is unusable.
    Corrupt {
        /// Sequence number from the (checksum-unverified) header, so the
        /// error reply can still correlate.
        seq: u32,
        /// Why the frame was rejected.
        reason: WireError,
    },
}

/// Bytes after the payload: the CRC-32.
const CRC_LEN: usize = 4;

/// Append one complete frame to `buf`: the header with the length left
/// open, whatever payload `body` appends, the length patched in, and the
/// checksum. The frame is built in place — every frame this crate sends
/// is assembled here, so a payload is written once and never copied into
/// a second buffer. Returns the frame's wire length; a payload over
/// [`MAX_FRAME_PAYLOAD`] is [`WireError::Oversize`] and leaves `buf` as
/// it was.
pub(crate) fn encode_frame(
    buf: &mut Vec<u8>,
    version: u8,
    opcode: Opcode,
    seq: u32,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<usize, WireError> {
    let start = buf.len();
    buf.extend_from_slice(&MAGIC);
    buf.push(version);
    buf.push(opcode as u8);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&[0; 4]);
    body(buf);
    let len = buf.len() - start - HEADER_LEN;
    if len > MAX_FRAME_PAYLOAD {
        buf.truncate(start);
        return Err(WireError::Oversize(u32::try_from(len).unwrap_or(u32::MAX)));
    }
    buf[start + 8..start + HEADER_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&buf[start + 2..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf.len() - start)
}

/// Serialize one frame at the current [`VERSION`]. Returns the total
/// bytes written (for byte accounting).
pub fn write_frame(
    w: &mut impl Write,
    opcode: Opcode,
    seq: u32,
    payload: &[u8],
) -> Result<usize, WireError> {
    write_frame_with_version(w, VERSION, opcode, seq, payload)
}

/// Serialize one frame carrying an explicit protocol version — how tests
/// craft old-version frames from already-encoded payload bytes.
pub fn write_frame_with_version(
    w: &mut impl Write,
    version: u8,
    opcode: Opcode,
    seq: u32,
    payload: &[u8],
) -> Result<usize, WireError> {
    let mut buf = Vec::with_capacity(frame_len(payload.len()));
    let n = encode_frame(&mut buf, version, opcode, seq, |buf| {
        buf.extend_from_slice(payload)
    })?;
    w.write_all(&buf)?;
    Ok(n)
}

/// Read and validate one frame. `Err` is fatal (close the connection);
/// [`FrameOutcome::Corrupt`] is recoverable (reply with an error frame).
pub fn read_frame(r: &mut impl Read) -> Result<FrameOutcome, WireError> {
    let mut head = [0u8; HEADER_LEN];
    r.read_exact(&mut head)?;
    if head[0..2] != MAGIC {
        return Err(WireError::BadMagic([head[0], head[1]]));
    }
    let version = head[2];
    let opcode = head[3];
    let seq = u32::from_le_bytes(to_array(&head[4..8]));
    let len = u32::from_le_bytes(to_array(&head[8..12]));
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    // One allocation: payload and checksum land together, the checksum
    // is cut off below and the buffer becomes the frame's payload.
    let mut rest = vec![0u8; len as usize + CRC_LEN];
    r.read_exact(&mut rest)?;
    let payload = &rest[..len as usize];
    let received = u32::from_le_bytes(to_array(&rest[len as usize..]));
    let computed = crc32_parts(&[&head[2..], payload]);
    if computed != received {
        return Ok(FrameOutcome::Corrupt {
            seq,
            reason: WireError::Checksum { computed, received },
        });
    }
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Ok(FrameOutcome::Corrupt {
            seq,
            reason: WireError::BadVersion(version),
        });
    }
    rest.truncate(len as usize);
    Ok(FrameOutcome::Frame(RawFrame {
        version,
        opcode,
        seq,
        payload: rest,
    }))
}

/// Does `buf` start with a complete frame, so that [`read_frame`] on a
/// reader holding these bytes returns without touching the underlying
/// stream? `false` as well for a prefix `read_frame` would reject as
/// fatal (bad magic, oversize) — that verdict belongs to the next
/// blocking read.
pub(crate) fn frame_buffered(buf: &[u8]) -> bool {
    if buf.len() < HEADER_LEN || buf[0..2] != MAGIC {
        return false;
    }
    let len = u32::from_le_bytes(to_array(&buf[8..12])) as usize;
    len <= MAX_FRAME_PAYLOAD && buf.len() >= frame_len(len)
}

/// Total wire bytes of a frame with an `n`-byte payload.
pub fn frame_len(n: usize) -> usize {
    HEADER_LEN + n + CRC_LEN
}

/// Decode a validated frame as a request (server side).
pub fn decode_request(frame: &RawFrame) -> Result<Request, WireError> {
    let op = Opcode::from_u8(frame.opcode).ok_or(WireError::UnknownOpcode(frame.opcode))?;
    let mut r = PayloadReader::new(&frame.payload);
    let req = match op {
        Opcode::PutTensor => {
            let key = r.key()?;
            let values = r.f64_vec()?;
            Request::PutTensor { key, values }
        }
        Opcode::PutSparse => {
            let key = r.key()?;
            let nrows = r.u32()? as usize;
            let ncols = r.u32()? as usize;
            let nnz = r.u32()? as usize;
            let indptr = r.usize_vec_u32(
                nrows
                    .checked_add(1)
                    .ok_or_else(|| WireError::Malformed("sparse row count overflows".into()))?,
            )?;
            let indices = r.usize_vec_u32(nnz)?;
            let values = r.f64_exact(nnz)?;
            let tensor = Csr::from_raw(nrows, ncols, indptr, indices, values)
                .map_err(|e| WireError::Malformed(format!("invalid CSR: {e}")))?;
            Request::PutSparse { key, tensor }
        }
        Opcode::GetTensor => Request::GetTensor { key: r.key()? },
        Opcode::RunModel => {
            let model = r.str16()?;
            let in_key = r.key()?;
            let out_key = r.key()?;
            let deadline_micros = r.u64()?;
            // The trace tail exists only on v2+ frames; on v1 frames any
            // trailing bytes are garbage and fail `finish()` below.
            let trace = if frame.version >= 2 && r.has_remaining() {
                let flags = r.u8()?;
                if flags & RUN_MODEL_FLAG_TRACE != 0 {
                    TraceContext::from_wire(&to_array(r.take(TRACE_CONTEXT_WIRE_LEN)?))
                } else {
                    None
                }
            } else {
                None
            };
            Request::RunModel {
                model,
                in_key,
                out_key,
                deadline_micros,
                trace,
            }
        }
        Opcode::Del => Request::Del { key: r.key()? },
        Opcode::Stats => Request::Stats,
        Opcode::Metrics => Request::Metrics,
        Opcode::Ping => Request::Ping {
            payload: r.remaining(),
        },
        Opcode::Traces => {
            if frame.version < TRACES_MIN_VERSION {
                return Err(WireError::VersionTooOld {
                    op: Opcode::Traces.name(),
                    needs: TRACES_MIN_VERSION,
                    got: frame.version,
                });
            }
            Request::Traces
        }
        Opcode::Ok
        | Opcode::Tensor
        | Opcode::Deleted
        | Opcode::Text
        | Opcode::Pong
        | Opcode::Error => return Err(WireError::UnknownOpcode(frame.opcode)),
    };
    r.finish()?;
    Ok(req)
}

/// Decode a validated frame as a response (client side).
pub fn decode_response(frame: &RawFrame) -> Result<Response, WireError> {
    let op = Opcode::from_u8(frame.opcode).ok_or(WireError::UnknownOpcode(frame.opcode))?;
    let mut r = PayloadReader::new(&frame.payload);
    let resp = match op {
        Opcode::Ok => Response::Ok,
        Opcode::Tensor => Response::Tensor(r.f64_vec()?),
        Opcode::Deleted => Response::Deleted(r.u8()? != 0),
        Opcode::Text => Response::Text(
            String::from_utf8(r.remaining())
                .map_err(|_| WireError::Malformed("text reply is not UTF-8".into()))?,
        ),
        Opcode::Pong => Response::Pong(r.remaining()),
        Opcode::Error => {
            let code = r.u8()?;
            let detail = r.u32()?;
            let message = r.str16()?;
            Response::Error(ErrorFrame {
                code,
                detail,
                message,
            })
        }
        Opcode::PutTensor
        | Opcode::PutSparse
        | Opcode::GetTensor
        | Opcode::RunModel
        | Opcode::Del
        | Opcode::Stats
        | Opcode::Metrics
        | Opcode::Ping
        | Opcode::Traces => return Err(WireError::UnknownOpcode(frame.opcode)),
    };
    r.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Payload cursors
// ---------------------------------------------------------------------

/// Appends payload fields to a frame (or bare payload) buffer.
struct PayloadWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> PayloadWriter<'a> {
    fn new(buf: &'a mut Vec<u8>) -> Self {
        PayloadWriter { buf }
    }

    /// Make room for a bulk run (and the checksum behind it) up front, so
    /// a large payload grows its buffer once.
    fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// u16 length prefix + UTF-8 bytes. Strings longer than `u16::MAX`
    /// bytes never occur (keys are capped far below; model names are
    /// short) — truncating would corrupt, so panic loudly in debug.
    fn str16(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize);
        self.buf.extend_from_slice(&(s.len() as u16).to_le_bytes());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Raw little-endian `f64` bit patterns, appended as one block (the
    /// fixed-width chunk loop compiles to a straight copy on
    /// little-endian targets).
    fn f64_run(&mut self, values: &[f64]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 8, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(8).zip(values) {
            dst.copy_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Indices as little-endian `u32`s, appended as one block.
    fn u32_run(&mut self, values: &[usize]) {
        let start = self.buf.len();
        self.buf.resize(start + values.len() * 4, 0);
        for (dst, v) in self.buf[start..].chunks_exact_mut(4).zip(values) {
            dst.copy_from_slice(&(*v as u32).to_le_bytes());
        }
    }
}

struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::Malformed("payload truncated".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(to_array(self.take(2)?)))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(to_array(self.take(4)?)))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(to_array(self.take(8)?)))
    }

    fn str16(&mut self) -> Result<String, WireError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    /// A validated tensor key: non-empty, within the store's bound.
    fn key(&mut self) -> Result<String, WireError> {
        let s = self.str16()?;
        if s.is_empty() {
            return Err(WireError::EmptyKey);
        }
        if s.len() > MAX_KEY_BYTES {
            return Err(WireError::Malformed(format!(
                "key is {} bytes, max {MAX_KEY_BYTES}",
                s.len()
            )));
        }
        Ok(s)
    }

    /// u32 count prefix + that many f64s. The count is validated against
    /// the remaining bytes before allocation.
    fn f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.u32()? as usize;
        self.f64_exact(n)
    }

    fn f64_exact(&mut self, n: usize) -> Result<Vec<f64>, WireError> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or_else(|| WireError::Malformed("element count overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(to_array(c))))
            .collect())
    }

    fn usize_vec_u32(&mut self, n: usize) -> Result<Vec<usize>, WireError> {
        let bytes = self.take(
            n.checked_mul(4)
                .ok_or_else(|| WireError::Malformed("element count overflows".into()))?,
        )?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(to_array(c)) as usize)
            .collect())
    }

    /// Whether unconsumed bytes remain (gates optional payload tails).
    fn has_remaining(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Everything not yet consumed.
    fn remaining(&mut self) -> Vec<u8> {
        let rest = self.buf[self.pos..].to_vec();
        self.pos = self.buf.len();
        rest
    }

    /// Reject trailing garbage: a well-formed payload is fully consumed.
    fn finish(self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_buffered_is_true_exactly_from_the_last_byte_on() {
        let req = Request::Ping {
            payload: b"0123456789".to_vec(),
        };
        let mut wire = Vec::new();
        let n = req.encode_frame(&mut wire, VERSION, 7);
        assert_eq!(n, wire.len());
        for cut in 0..n {
            assert!(!frame_buffered(&wire[..cut]), "{cut} of {n} bytes");
        }
        assert!(frame_buffered(&wire));
        // More bytes behind a complete frame do not matter.
        wire.extend_from_slice(b"HN");
        assert!(frame_buffered(&wire));
        // What `read_frame` rejects as fatal is left to `read_frame`.
        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        assert!(!frame_buffered(&bad_magic));
        let mut oversize = wire.clone();
        oversize[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(!frame_buffered(&oversize));
    }
    use std::io::Cursor;

    fn roundtrip_request(req: Request) -> Request {
        let payload = req.encode();
        let mut wire = Vec::new();
        let n = write_frame(&mut wire, req.opcode(), 7, &payload).unwrap();
        assert_eq!(n, wire.len());
        assert_eq!(n, frame_len(payload.len()));
        let out = read_frame(&mut Cursor::new(&wire)).unwrap();
        let FrameOutcome::Frame(raw) = out else {
            panic!("frame did not validate");
        };
        assert_eq!(raw.seq, 7);
        decode_request(&raw).unwrap()
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC, kept as the reference the sliced and the
    /// folded one must agree with. Takes and returns the running state.
    fn crc32_update_bytewise(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// Seeded bytes (splitmix64), so failures reproduce.
    fn seeded_bytes(seed: u64, n: usize) -> Vec<u8> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) as u8
            })
            .collect()
    }

    /// `update` == the bytewise reference: at every length across the
    /// 8-byte stride, the 16-byte lane and several 64-byte blocks, with
    /// every tail length, at every start alignment; then on seeded
    /// buffers up to 1 MiB from arbitrary running states. (Miri
    /// interprets, and has no folded path: a shorter sweep covers the
    /// sliced strides.)
    fn assert_equals_bytewise(update: impl Fn(u32, &[u8]) -> u32) {
        let (max_len, starts) = if cfg!(miri) { (70, 8) } else { (600, 16) };
        let buf = seeded_bytes(1, max_len + starts);
        for start in 0..starts {
            for len in 0..=max_len {
                let data = &buf[start..start + len];
                assert_eq!(
                    update(0xFFFF_FFFF, data),
                    crc32_update_bytewise(0xFFFF_FFFF, data),
                    "start {start} len {len}"
                );
            }
        }
        let sizes: &[usize] = if cfg!(miri) {
            &[71, 1_000]
        } else {
            &[71, 1_000, 4_097, 65_535, 65_536, 1 << 20]
        };
        for (seed, &len) in sizes.iter().enumerate() {
            let data = seeded_bytes(seed as u64 + 2, len);
            let c = 0x9E37_79B9u32.wrapping_mul(seed as u32 + 1);
            assert_eq!(
                update(c, &data),
                crc32_update_bytewise(c, &data),
                "seed {seed} len {len}"
            );
        }
    }

    // Both implementations are called directly, so the sliced one stays
    // tested on a machine whose `crc32` dispatches to folding.
    #[test]
    fn sliced_crc32_equals_the_bytewise_reference() {
        assert_equals_bytewise(crc32_update_sliced);
    }

    #[test]
    fn folded_crc32_equals_the_bytewise_reference() {
        if crc32_update_folded(0, &[]).is_none() {
            return; // no `pclmulqdq` here: the sliced path is all there is
        }
        assert_equals_bytewise(|c, data| crc32_update_folded(c, data).expect("detected above"));
    }

    #[test]
    fn crc32_parts_is_invariant_under_every_split() {
        // 300 bytes: splits leave parts on either side of the 64 bytes
        // folding starts at, so a folded part both receives a running
        // state from the part before it and hands one to the part behind.
        let data = seeded_bytes(7, if cfg!(miri) { 67 } else { 300 });
        let whole = crc32_update_bytewise(0xFFFF_FFFF, &data) ^ 0xFFFF_FFFF;
        assert_eq!(crc32(&data), whole);
        for i in 0..=data.len() {
            assert_eq!(crc32_parts(&[&data[..i], &data[i..]]), whole, "split {i}");
            for j in i..=data.len() {
                assert_eq!(
                    crc32_parts(&[&data[..i], &data[i..j], &data[j..]]),
                    whole,
                    "splits {i}, {j}"
                );
            }
        }
    }

    /// The folding constants, recomputed from their definitions: powers
    /// of x modulo P by shift-and-subtract, μ by long division.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn crc32_fold_constants_are_what_their_names_say() {
        use super::folded::{K1, K2, K3, K4, K5, MU, POLY};
        /// P = x^32 + x^26 + … + 1, most significant coefficient first.
        const P: u64 = 0x1_04C1_1DB7;
        /// `(x^n mod P)`, reflected and shifted left by one.
        fn x_pow_mod_p(n: u32) -> i64 {
            let mut r: u64 = 1;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            i64::from((r as u32).reverse_bits()) << 1
        }
        /// The low 33 bits of `v`, reflected.
        fn reflect33(v: u64) -> i64 {
            (v.reverse_bits() >> 31) as i64
        }
        assert_eq!(K1, x_pow_mod_p(4 * 128 + 32));
        assert_eq!(K2, x_pow_mod_p(4 * 128 - 32));
        assert_eq!(K3, x_pow_mod_p(128 + 32));
        assert_eq!(K4, x_pow_mod_p(128 - 32));
        assert_eq!(K5, x_pow_mod_p(64));
        assert_eq!(POLY, reflect33(P));
        // ⌊x^64 / P⌋: divide, collecting one quotient bit per step.
        let (mut rem, mut quotient): (u128, u64) = (1 << 64, 0);
        for shift in (0..=32).rev() {
            if (rem >> (shift + 32)) & 1 != 0 {
                rem ^= u128::from(P) << shift;
                quotient |= 1 << shift;
            }
        }
        assert!(rem < 1 << 32);
        assert_eq!(MU, reflect33(quotient));
    }

    #[test]
    fn every_request_roundtrips() {
        let reqs = vec![
            Request::PutTensor {
                key: "k".into(),
                values: vec![1.5, -2.25, f64::INFINITY],
            },
            Request::GetTensor { key: "k2".into() },
            Request::RunModel {
                model: "net".into(),
                in_key: "in".into(),
                out_key: "out".into(),
                deadline_micros: 5_000_000,
                trace: None,
            },
            Request::RunModel {
                model: "net".into(),
                in_key: "in".into(),
                out_key: "out".into(),
                deadline_micros: 0,
                trace: TraceContext::from_wire(&{
                    let mut b = [0u8; TRACE_CONTEXT_WIRE_LEN];
                    b[..8].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
                    b[8..].copy_from_slice(&42u64.to_le_bytes());
                    b
                }),
            },
            Request::Traces,
            Request::Del { key: "k".into() },
            Request::Stats,
            Request::Metrics,
            Request::Ping {
                payload: b"hello".to_vec(),
            },
        ];
        for req in reqs {
            assert_eq!(roundtrip_request(req.clone()), req);
        }
    }

    #[test]
    fn sparse_request_roundtrips() {
        let mut coo = hpcnet_tensor::Coo::new(2, 6);
        coo.push(0, 1, 2.5);
        coo.push(1, 5, -0.125);
        let req = Request::PutSparse {
            key: "sp".into(),
            tensor: coo.to_csr(),
        };
        assert_eq!(roundtrip_request(req.clone()), req);
    }

    #[test]
    fn nan_payloads_roundtrip_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_DEAD_BEEF_0001); // a payloaded NaN
        let req = Request::PutTensor {
            key: "nan".into(),
            values: vec![weird, f64::NAN, f64::NEG_INFINITY, -0.0],
        };
        let Request::PutTensor { values, .. } = roundtrip_request(req) else {
            panic!("wrong variant");
        };
        assert_eq!(values[0].to_bits(), 0x7FF8_DEAD_BEEF_0001);
        assert!(values[1].is_nan());
        assert_eq!(values[2], f64::NEG_INFINITY);
        assert_eq!(values[3].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn every_response_roundtrips() {
        let resps = vec![
            Response::Ok,
            Response::Tensor(vec![0.5, f64::NAN]),
            Response::Deleted(true),
            Response::Deleted(false),
            Response::Text("hpcnet_serving_requests_total 4\n".into()),
            Response::Pong(b"echo".to_vec()),
            Response::Error(ErrorFrame {
                code: err_code::OVERLOADED,
                detail: 64,
                message: String::new(),
            }),
        ];
        for resp in resps {
            let mut wire = Vec::new();
            write_frame(&mut wire, resp.opcode(), 3, &resp.encode()).unwrap();
            let FrameOutcome::Frame(raw) = read_frame(&mut Cursor::new(&wire)).unwrap() else {
                panic!("frame did not validate");
            };
            let back = decode_response(&raw).unwrap();
            match (&resp, &back) {
                // NaN != NaN, so compare tensors bitwise.
                (Response::Tensor(a), Response::Tensor(b)) => {
                    assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        assert_eq!(x.to_bits(), y.to_bits());
                    }
                }
                _ => assert_eq!(resp, back),
            }
        }
    }

    #[test]
    fn error_frames_mirror_runtime_errors() {
        use hpcnet_runtime::RuntimeError as E;
        let errors = vec![
            E::MissingTensor("k".into()),
            E::MissingModel("m".into()),
            E::Inference("shape".into()),
            E::InvalidKey("empty key".into()),
            E::Overloaded { queue_depth: 128 },
            E::DeadlineExceeded,
            E::ShuttingDown,
            E::QualityRejected("residual".into()),
            E::Disconnected,
            E::Transport("refused".into()),
            E::Protocol("bad frame".into()),
        ];
        for e in errors {
            assert_eq!(ErrorFrame::from_runtime(&e).to_runtime(), e);
        }
    }

    #[test]
    fn zero_length_keys_are_rejected() {
        let mut payload = Vec::new();
        PayloadWriter::new(&mut payload).str16("");
        let frame = RawFrame {
            version: VERSION,
            opcode: Opcode::GetTensor as u8,
            seq: 0,
            payload,
        };
        assert!(matches!(decode_request(&frame), Err(WireError::EmptyKey)));
        // And RunModel validates both of its keys.
        let mut payload = Vec::new();
        let mut w = PayloadWriter::new(&mut payload);
        w.str16("model");
        w.str16("");
        w.str16("out");
        w.u64(0);
        let frame = RawFrame {
            version: VERSION,
            opcode: Opcode::RunModel as u8,
            seq: 0,
            payload,
        };
        assert!(matches!(decode_request(&frame), Err(WireError::EmptyKey)));
    }

    #[test]
    fn corrupted_and_truncated_frames_classify_correctly() {
        let req = Request::Ping {
            payload: b"abc".to_vec(),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, req.opcode(), 1, &req.encode()).unwrap();

        // Flip a payload bit: recoverable checksum failure, seq survives.
        let mut bad = wire.clone();
        bad[HEADER_LEN] ^= 0x40;
        match read_frame(&mut Cursor::new(&bad)).unwrap() {
            FrameOutcome::Corrupt { seq, reason } => {
                assert_eq!(seq, 1);
                assert!(matches!(reason, WireError::Checksum { .. }));
                assert!(!reason.is_fatal());
            }
            FrameOutcome::Frame(_) => panic!("corruption undetected"),
        }

        // Truncate: fatal.
        let cut = &wire[..wire.len() - 3];
        let err = read_frame(&mut Cursor::new(cut)).unwrap_err();
        assert!(matches!(err, WireError::Io(_)));
        assert!(err.is_fatal());

        // Wrong magic: fatal.
        let mut magic = wire.clone();
        magic[0] = b'X';
        assert!(read_frame(&mut Cursor::new(&magic)).unwrap_err().is_fatal());

        // Implausible length: fatal (checksum never consulted).
        let mut huge = wire.clone();
        huge[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut Cursor::new(&huge)).unwrap_err(),
            WireError::Oversize(_)
        ));

        // Unsupported version: recoverable (the checksum is recomputed
        // over what was sent, so re-sign the frame).
        let mut vers = wire.clone();
        vers[2] = VERSION + 1;
        let crc = crc32(&vers[2..wire.len() - 4]);
        let n = vers.len();
        vers[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match read_frame(&mut Cursor::new(&vers)).unwrap() {
            FrameOutcome::Corrupt { reason, .. } => {
                assert!(matches!(reason, WireError::BadVersion(_)))
            }
            FrameOutcome::Frame(_) => panic!("version mismatch undetected"),
        }
    }

    #[test]
    fn a_payload_over_the_frame_bound_never_reaches_the_wire() {
        // At the bound: the frame goes out as itself.
        let mut payload = vec![0u8; MAX_FRAME_PAYLOAD];
        let mut out = b"sent before".to_vec();
        let n = Response::Pong(payload.clone()).encode_frame(&mut out, VERSION, 9);
        assert_eq!(n, frame_len(MAX_FRAME_PAYLOAD));
        assert_eq!(out.len(), 11 + n);

        // One byte over: a reply degrades to the typed error that says so,
        // appended behind what the buffer already held...
        payload.push(0);
        out.truncate(11);
        let n = Response::Pong(payload.clone()).encode_frame(&mut out, 1, 9);
        assert_eq!(&out[..11], b"sent before");
        assert_eq!(out.len(), 11 + n);
        let FrameOutcome::Frame(raw) = read_frame(&mut Cursor::new(&out[11..])).unwrap() else {
            panic!("the error frame did not validate");
        };
        assert_eq!((raw.version, raw.seq), (1, 9));
        let Response::Error(e) = decode_response(&raw).unwrap() else {
            panic!("not an error frame");
        };
        assert_eq!(e.code, err_code::PROTOCOL);
        assert!(e.message.contains("exceeds"), "{}", e.message);

        // ...and a request is not encoded at all.
        out.truncate(11);
        let ping = Request::Ping { payload };
        assert_eq!(ping.encode_frame(&mut out, VERSION, 1), 0);
        assert_eq!(out, b"sent before");
        let Request::Ping { payload } = ping else {
            unreachable!()
        };
        assert!(matches!(
            write_frame(&mut out, Opcode::Ping, 1, &payload),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut payload = Request::Del { key: "k".into() }.encode();
        payload.push(0xAB);
        let frame = RawFrame {
            version: VERSION,
            opcode: Opcode::Del as u8,
            seq: 0,
            payload,
        };
        assert!(matches!(
            decode_request(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn response_opcodes_are_not_requests_and_vice_versa() {
        let frame = RawFrame {
            version: VERSION,
            opcode: Opcode::Pong as u8,
            seq: 0,
            payload: Vec::new(),
        };
        assert!(matches!(
            decode_request(&frame),
            Err(WireError::UnknownOpcode(_))
        ));
        let frame = RawFrame {
            version: VERSION,
            opcode: Opcode::Ping as u8,
            seq: 0,
            payload: Vec::new(),
        };
        assert!(matches!(
            decode_response(&frame),
            Err(WireError::UnknownOpcode(_))
        ));
        assert!(Opcode::from_u8(0x42).is_none());
    }

    #[test]
    fn v1_frames_are_still_served() {
        // A v1 client's RunModel frame: same payload bytes, version 1.
        let req = Request::RunModel {
            model: "net".into(),
            in_key: "in".into(),
            out_key: "out".into(),
            deadline_micros: 1_000,
            trace: None,
        };
        let mut wire = Vec::new();
        write_frame_with_version(&mut wire, 1, req.opcode(), 9, &req.encode()).unwrap();
        let FrameOutcome::Frame(raw) = read_frame(&mut Cursor::new(&wire)).unwrap() else {
            panic!("v1 frame did not validate");
        };
        assert_eq!(raw.version, 1);
        assert_eq!(decode_request(&raw).unwrap(), req);
    }

    #[test]
    fn traceless_v2_run_model_payload_is_v1_identical() {
        let with_none = Request::RunModel {
            model: "net".into(),
            in_key: "in".into(),
            out_key: "out".into(),
            deadline_micros: 7,
            trace: None,
        }
        .encode();
        // The v1 form: three strings + deadline, nothing after.
        let mut v1 = Vec::new();
        let mut w = PayloadWriter::new(&mut v1);
        w.str16("net");
        w.str16("in");
        w.str16("out");
        w.u64(7);
        assert_eq!(with_none, v1);
    }

    #[test]
    fn run_model_trace_context_roundtrips() {
        let ctx = TraceContext::from_wire(&{
            let mut b = [0u8; TRACE_CONTEXT_WIRE_LEN];
            b[..8].copy_from_slice(&0x1234_5678_9ABC_DEF0u64.to_le_bytes());
            b[8..].copy_from_slice(&0xFEEDu64.to_le_bytes());
            b
        });
        assert!(ctx.is_some());
        let req = Request::RunModel {
            model: "net".into(),
            in_key: "in".into(),
            out_key: "out".into(),
            deadline_micros: 0,
            trace: ctx,
        };
        assert_eq!(roundtrip_request(req.clone()), req);
    }

    #[test]
    fn v1_traces_request_gets_typed_version_error_not_a_hangup() {
        let mut wire = Vec::new();
        write_frame_with_version(&mut wire, 1, Opcode::Traces, 4, &[]).unwrap();
        let FrameOutcome::Frame(raw) = read_frame(&mut Cursor::new(&wire)).unwrap() else {
            panic!("v1 frame did not validate");
        };
        let err = decode_request(&raw).unwrap_err();
        match &err {
            WireError::VersionTooOld { op, needs, got } => {
                assert_eq!(*op, "traces");
                assert_eq!(*needs, TRACES_MIN_VERSION);
                assert_eq!(*got, 1);
            }
            other => panic!("expected VersionTooOld, got {other:?}"),
        }
        // Recoverable: the server answers with an error frame and keeps
        // the connection; the message names both versions.
        assert!(!err.is_fatal());
        let msg = err.to_string();
        assert!(msg.contains('1') && msg.contains('2'), "message: {msg}");
    }

    #[test]
    fn v1_run_model_with_trailing_trace_bytes_is_malformed() {
        // A trace tail on a v1 frame is not parsed — it's trailing
        // garbage, rejected rather than silently ignored.
        let req = Request::RunModel {
            model: "net".into(),
            in_key: "in".into(),
            out_key: "out".into(),
            deadline_micros: 0,
            trace: TraceContext::from_wire(&[0xAA; TRACE_CONTEXT_WIRE_LEN]),
        };
        let mut wire = Vec::new();
        write_frame_with_version(&mut wire, 1, req.opcode(), 2, &req.encode()).unwrap();
        let FrameOutcome::Frame(raw) = read_frame(&mut Cursor::new(&wire)).unwrap() else {
            panic!("frame did not validate");
        };
        assert!(matches!(decode_request(&raw), Err(WireError::Malformed(_))));
    }
}
