//! Seeded mutate / truncate / extend loop over valid frames.
//!
//! For every case `read_frame` + `decode_request` / `decode_response`
//! must not panic, must classify the bytes exactly as an independent
//! reading of the framing rules does (fatal: short stream, bad magic,
//! oversize; recoverable: checksum, version; payload faults are
//! recoverable `decode_*` errors), and must never allocate more than the
//! bytes it was given justify — a nested element count is checked
//! against the remaining payload *before* anything is allocated for it.
//!
//! The whole loop is one test on one thread, so the per-thread allocation
//! high-water mark below sees only the decoder's own allocations.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Cursor;

use hpcnet_net::protocol::{
    decode_request, decode_response, err_code, read_frame, ErrorFrame, FrameOutcome, Request,
    Response, WireError, HEADER_LEN, MAX_FRAME_PAYLOAD, MIN_VERSION, VERSION,
};
use hpcnet_telemetry::TraceContext;
use hpcnet_tensor::Coo;

thread_local! {
    /// Largest single allocation this thread requested since the last reset.
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, noting each request's size on the way through.
struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a store to a `const`
// thread-local `Cell<usize>`, which neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(size)));
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// splitmix64: seeded, so a failing case reproduces from its number.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Bit-at-a-time CRC-32/IEEE: shares nothing with the crate's tables.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// Recompute the checksum of a frame whose length field is consistent.
fn resign(frame: &mut [u8]) {
    let n = frame.len();
    let crc = crc32_reference(&frame[2..n - 4]);
    frame[n - 4..].copy_from_slice(&crc.to_le_bytes());
}

/// What the framing rules say about a byte string, read independently of
/// the crate's `read_frame`.
#[derive(Debug, PartialEq)]
enum Expected {
    FatalIo,
    FatalBadMagic,
    FatalOversize,
    CorruptChecksum,
    CorruptVersion,
    Frame { consumed: usize },
}

fn expected(bytes: &[u8]) -> Expected {
    if bytes.len() < HEADER_LEN {
        return Expected::FatalIo;
    }
    if &bytes[..2] != b"HN" {
        return Expected::FatalBadMagic;
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Expected::FatalOversize;
    }
    let end = HEADER_LEN + len + 4;
    if bytes.len() < end {
        return Expected::FatalIo;
    }
    let carried = u32::from_le_bytes(bytes[end - 4..end].try_into().unwrap());
    if crc32_reference(&bytes[2..end - 4]) != carried {
        return Expected::CorruptChecksum;
    }
    if !(MIN_VERSION..=VERSION).contains(&bytes[2]) {
        return Expected::CorruptVersion;
    }
    Expected::Frame { consumed: end }
}

enum Message {
    Request(Request),
    Response(Response),
}

fn corpus() -> Vec<(Message, Vec<u8>)> {
    let mut coo = Coo::new(3, 40);
    for (r, c, v) in [(0, 1, 2.5), (0, 39, -1.0), (2, 7, 0.125), (2, 8, 8.0)] {
        coo.push(r, c, v);
    }
    let mut ctx = [0u8; 16];
    ctx[..8].copy_from_slice(&0xFEED_FACE_CAFE_BEEFu64.to_le_bytes());
    ctx[8..].copy_from_slice(&77u64.to_le_bytes());
    let run = |trace| Request::RunModel {
        model: "surrogate".into(),
        in_key: "{t}/in3".into(),
        out_key: "{t}/out3".into(),
        deadline_micros: 250_000,
        trace,
    };
    let requests = vec![
        (
            Request::PutTensor {
                key: "dense".into(),
                values: (0..37).map(|i| i as f64 * 0.25 - 3.0).collect(),
            },
            VERSION,
        ),
        (
            Request::PutSparse {
                key: "sparse".into(),
                tensor: coo.to_csr(),
            },
            VERSION,
        ),
        (run(None), 1),
        (run(None), VERSION),
        (run(TraceContext::from_wire(&ctx)), VERSION),
        (Request::GetTensor { key: "out".into() }, 1),
        (Request::Del { key: "out".into() }, VERSION),
        (
            Request::Ping {
                payload: b"nonce".to_vec(),
            },
            VERSION,
        ),
        (Request::Stats, VERSION),
        (Request::Traces, VERSION),
    ];
    let responses = vec![
        (Response::Ok, 1),
        (
            Response::Tensor((0..19).map(|i| (i as f64).sqrt()).collect()),
            VERSION,
        ),
        (Response::Deleted(true), VERSION),
        (Response::Text("hpcnet_net_connections 1\n".into()), VERSION),
        (Response::Pong(b"nonce".to_vec()), VERSION),
        (
            Response::Error(ErrorFrame {
                code: err_code::MISSING_TENSOR,
                detail: 0,
                message: "absent".into(),
            }),
            1,
        ),
    ];
    let mut corpus = Vec::new();
    for (i, (req, version)) in requests.into_iter().enumerate() {
        let mut wire = Vec::new();
        req.encode_frame(&mut wire, version, i as u32);
        corpus.push((Message::Request(req), wire));
    }
    for (i, (resp, version)) in responses.into_iter().enumerate() {
        let mut wire = Vec::new();
        resp.encode_frame(&mut wire, version, 100 + i as u32);
        corpus.push((Message::Response(resp), wire));
    }
    corpus
}

/// One mutated case. Returns the bytes and whether they still are the
/// original frame (possibly followed by other bytes).
fn mutate(rng: &mut Rng, frame: &[u8]) -> (Vec<u8>, bool) {
    let mut bytes = frame.to_vec();
    let payload_len = frame.len() - HEADER_LEN - 4;
    match rng.below(7) {
        // Untouched, or followed by garbage: the frame itself stands.
        0 => (bytes, true),
        1 => {
            for _ in 0..1 + rng.below(40) {
                bytes.push(rng.next() as u8);
            }
            (bytes, true)
        }
        // One flipped bit anywhere.
        2 => {
            let at = rng.below(bytes.len());
            bytes[at] ^= 1 << rng.below(8);
            (bytes, false)
        }
        // Cut short anywhere.
        3 => {
            bytes.truncate(rng.below(bytes.len()));
            (bytes, false)
        }
        // A lying length field.
        4 => {
            let len = match rng.below(3) {
                0 => rng.below(payload_len + 1) as u32,
                1 => payload_len as u32 + 1 + rng.below(1 << 20) as u32,
                _ => rng.next() as u32,
            };
            bytes[8..12].copy_from_slice(&len.to_le_bytes());
            (bytes, false)
        }
        // Header or payload damage under a *valid* checksum: these reach
        // the payload decoders. Overwriting four bytes plants absurd
        // nested counts; the version and opcode bytes wander too.
        5 if payload_len > 0 => {
            let at = HEADER_LEN + rng.below(payload_len);
            let word = match rng.below(3) {
                0 => u32::MAX,
                1 => (MAX_FRAME_PAYLOAD as u32 / 8) + rng.below(1 << 16) as u32,
                _ => rng.next() as u32,
            };
            for (b, w) in bytes[at..HEADER_LEN + payload_len]
                .iter_mut()
                .zip(word.to_le_bytes())
            {
                *b = w;
            }
            resign(&mut bytes);
            (bytes, false)
        }
        _ => {
            let at = 2 + rng.below(2); // version or opcode
            bytes[at] = rng.next() as u8;
            // A shorter or longer payload under a valid checksum.
            if rng.below(2) == 0 {
                let keep = rng.below(payload_len + 1);
                bytes.truncate(HEADER_LEN + keep);
                for _ in 0..rng.below(9) {
                    bytes.push(rng.next() as u8);
                }
                let len = (bytes.len() - HEADER_LEN) as u32;
                bytes[8..12].copy_from_slice(&len.to_le_bytes());
                bytes.extend_from_slice(&[0; 4]);
            }
            resign(&mut bytes);
            (bytes, false)
        }
    }
}

#[test]
fn mutated_frames_never_panic_overallocate_or_misclassify() {
    const CASES: usize = 12_000;
    let corpus = corpus();
    let mut rng = Rng(0x5EED);
    let mut seen = [0usize; 5];
    for case in 0..CASES {
        let (message, frame) = &corpus[case % corpus.len()];
        let (bytes, intact) = mutate(&mut rng, frame);
        let want = expected(&bytes);

        LARGEST_ALLOC.with(|m| m.set(0));
        let mut cursor = Cursor::new(bytes.as_slice());
        let got = read_frame(&mut cursor);
        let read_alloc = LARGEST_ALLOC.with(Cell::get);

        let raw = match (got, &want) {
            (Err(e @ WireError::Io(_)), Expected::FatalIo)
            | (Err(e @ WireError::BadMagic(_)), Expected::FatalBadMagic)
            | (Err(e @ WireError::Oversize(_)), Expected::FatalOversize) => {
                assert!(e.is_fatal(), "case {case}: {e}");
                seen[0] += 1;
                continue;
            }
            (Ok(FrameOutcome::Corrupt { seq, reason }), want) => {
                assert!(
                    matches!(
                        (&reason, want),
                        (WireError::Checksum { .. }, Expected::CorruptChecksum)
                            | (WireError::BadVersion(_), Expected::CorruptVersion)
                    ),
                    "case {case}: {reason} but expected {want:?}"
                );
                assert!(!reason.is_fatal(), "case {case}");
                // The sequence number still correlates the error reply.
                assert_eq!(seq.to_le_bytes(), bytes[4..8], "case {case}");
                seen[1] += 1;
                continue;
            }
            (Ok(FrameOutcome::Frame(raw)), Expected::Frame { consumed }) => {
                assert_eq!(cursor.position() as usize, *consumed, "case {case}");
                // One buffer for payload + checksum, nothing larger.
                assert!(
                    read_alloc <= raw.payload.len() + 4,
                    "case {case}: read_frame allocated {read_alloc} for a {}-byte payload",
                    raw.payload.len()
                );
                raw
            }
            (got, want) => panic!("case {case}: read_frame gave {got:?}, expected {want:?}"),
        };

        // A validated frame: both decoders must answer without panicking,
        // with a recoverable error or a message, and without allocating
        // more than the payload can back. Decoded `u32` indices widen to
        // `usize` (at most twice the wire bytes); error text is small.
        let budget = 2 * raw.payload.len() + 256;
        LARGEST_ALLOC.with(|m| m.set(0));
        let request = decode_request(&raw);
        let response = decode_response(&raw);
        let decode_alloc = LARGEST_ALLOC.with(Cell::get);
        assert!(
            decode_alloc <= budget,
            "case {case}: decoding a {}-byte payload allocated {decode_alloc}",
            raw.payload.len()
        );
        for err in [request.as_ref().err(), response.as_ref().err()]
            .into_iter()
            .flatten()
        {
            assert!(!err.is_fatal(), "case {case}: {err} must be recoverable");
        }
        if intact {
            match message {
                Message::Request(req) => assert_eq!(request.as_ref().ok(), Some(req)),
                Message::Response(resp) => assert_eq!(response.as_ref().ok(), Some(resp)),
            }
            seen[2] += 1;
        } else if request.is_ok() || response.is_ok() {
            seen[3] += 1;
        } else {
            seen[4] += 1;
        }
    }
    // The loop reached every class it is meant to cover.
    assert!(
        seen.iter().all(|&n| n > CASES / 100),
        "fatal / corrupt / intact / damaged-but-decodable / malformed = {seen:?}"
    );
}
