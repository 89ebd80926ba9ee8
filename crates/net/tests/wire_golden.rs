//! Golden-bytes tests: hand-written frames pin the wire format (both
//! protocol versions), byte for byte. The checksums were computed with an
//! independent CRC-32 (zlib), not with this crate.
//!
//! Each request must leave every encoder as exactly these bytes — the
//! in-place frame encoder ([`Request::encode_frame`]) and the
//! payload-then-frame wrappers ([`Request::encode`] +
//! [`write_frame_with_version`]) — and decode back to itself.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::io::Cursor;

use hpcnet_net::protocol::{
    decode_request, decode_response, err_code, frame_len, read_frame, write_frame,
    write_frame_with_version, ErrorFrame, FrameOutcome, RawFrame, Request, Response, VERSION,
};
use hpcnet_telemetry::TraceContext;
use hpcnet_tensor::Coo;

/// Bytes of a whitespace-separated hex dump.
fn hex(dump: &str) -> Vec<u8> {
    dump.split_whitespace()
        .map(|b| u8::from_str_radix(b, 16).expect("hex byte"))
        .collect()
}

fn read_one(wire: &[u8]) -> RawFrame {
    let mut cursor = Cursor::new(wire);
    let FrameOutcome::Frame(raw) = read_frame(&mut cursor).expect("frame reads") else {
        panic!("golden frame did not validate");
    };
    assert_eq!(cursor.position() as usize, wire.len(), "frame length");
    raw
}

fn check_request(req: &Request, version: u8, seq: u32, dump: &str) {
    let golden = hex(dump);
    let mut in_place = vec![0xAA]; // appended to, never overwritten
    let n = req.encode_frame(&mut in_place, version, seq);
    assert_eq!(n, golden.len());
    assert_eq!(&in_place[1..], golden.as_slice(), "encode_frame");
    let payload = req.encode();
    assert_eq!(frame_len(payload.len()), golden.len());
    let mut wrapped = Vec::new();
    write_frame_with_version(&mut wrapped, version, req.opcode(), seq, &payload).unwrap();
    assert_eq!(wrapped, golden, "encode + write_frame_with_version");
    if version == VERSION {
        let mut current = Vec::new();
        write_frame(&mut current, req.opcode(), seq, &payload).unwrap();
        assert_eq!(current, golden, "encode + write_frame");
    }
    let raw = read_one(&golden);
    assert_eq!((raw.version, raw.seq), (version, seq));
    assert_eq!(&decode_request(&raw).unwrap(), req);
}

fn check_response(resp: &Response, version: u8, seq: u32, dump: &str) {
    let golden = hex(dump);
    let mut in_place = Vec::new();
    assert_eq!(resp.encode_frame(&mut in_place, version, seq), golden.len());
    assert_eq!(in_place, golden, "encode_frame");
    let mut wrapped = Vec::new();
    write_frame_with_version(&mut wrapped, version, resp.opcode(), seq, &resp.encode()).unwrap();
    assert_eq!(wrapped, golden, "encode + write_frame_with_version");
    let raw = read_one(&golden);
    assert_eq!((raw.version, raw.seq), (version, seq));
    assert_eq!(&decode_response(&raw).unwrap(), resp);
}

#[test]
fn put_tensor_frame_is_pinned() {
    check_request(
        &Request::PutTensor {
            key: "k".into(),
            values: vec![1.5, -2.0],
        },
        2,
        7,
        "48 4e 02 01 07 00 00 00 17 00 00 00
         01 00 6b
         02 00 00 00
         00 00 00 00 00 00 f8 3f  00 00 00 00 00 00 00 c0
         1f 17 5a 47",
    );
}

#[test]
fn put_sparse_frame_is_pinned() {
    let mut coo = Coo::new(2, 6);
    coo.push(0, 1, 2.5);
    coo.push(1, 5, -0.125);
    check_request(
        &Request::PutSparse {
            key: "sp".into(),
            tensor: coo.to_csr(),
        },
        2,
        8,
        "48 4e 02 02 08 00 00 00 34 00 00 00
         02 00 73 70
         02 00 00 00  06 00 00 00  02 00 00 00
         00 00 00 00  01 00 00 00  02 00 00 00
         01 00 00 00  05 00 00 00
         00 00 00 00 00 00 04 40  00 00 00 00 00 00 c0 bf
         1b ba 2c ef",
    );
}

#[test]
fn run_model_frames_are_pinned_in_both_versions() {
    let untraced = Request::RunModel {
        model: "net".into(),
        in_key: "in".into(),
        out_key: "out".into(),
        deadline_micros: 1_000,
        trace: None,
    };
    // v1 and trace-less v2 differ in the version byte and the checksum
    // over it, nothing else.
    check_request(
        &untraced,
        1,
        9,
        "48 4e 01 04 09 00 00 00 16 00 00 00
         03 00 6e 65 74  02 00 69 6e  03 00 6f 75 74
         e8 03 00 00 00 00 00 00
         ef 24 b5 df",
    );
    check_request(
        &untraced,
        2,
        9,
        "48 4e 02 04 09 00 00 00 16 00 00 00
         03 00 6e 65 74  02 00 69 6e  03 00 6f 75 74
         e8 03 00 00 00 00 00 00
         50 2c aa 16",
    );
    let mut ctx = [0u8; 16];
    ctx[..8].copy_from_slice(&0x1122_3344_5566_7788u64.to_le_bytes());
    ctx[8..].copy_from_slice(&0x2Au64.to_le_bytes());
    check_request(
        &Request::RunModel {
            model: "net".into(),
            in_key: "in".into(),
            out_key: "out".into(),
            deadline_micros: 1_000,
            trace: TraceContext::from_wire(&ctx),
        },
        2,
        10,
        "48 4e 02 04 0a 00 00 00 27 00 00 00
         03 00 6e 65 74  02 00 69 6e  03 00 6f 75 74
         e8 03 00 00 00 00 00 00
         01  88 77 66 55 44 33 22 11  2a 00 00 00 00 00 00 00
         47 74 fd 9a",
    );
}

#[test]
fn tensor_reply_frames_are_pinned_in_both_versions() {
    let resp = Response::Tensor(vec![0.5, f64::INFINITY]);
    check_response(
        &resp,
        2,
        11,
        "48 4e 02 82 0b 00 00 00 14 00 00 00
         02 00 00 00
         00 00 00 00 00 00 e0 3f  00 00 00 00 00 00 f0 7f
         00 c0 16 92",
    );
    check_response(
        &resp,
        1,
        11,
        "48 4e 01 82 0b 00 00 00 14 00 00 00
         02 00 00 00
         00 00 00 00 00 00 e0 3f  00 00 00 00 00 00 f0 7f
         18 e5 b7 d6",
    );
}

#[test]
fn error_reply_frames_are_pinned() {
    check_response(
        &Response::Error(ErrorFrame {
            code: err_code::OVERLOADED,
            detail: 64,
            message: String::new(),
        }),
        2,
        12,
        "48 4e 02 ee 0c 00 00 00 07 00 00 00
         05  40 00 00 00  00 00
         0e 6e 43 69",
    );
    check_response(
        &Response::Error(ErrorFrame {
            code: err_code::MISSING_TENSOR,
            detail: 0,
            message: "absent".into(),
        }),
        1,
        13,
        "48 4e 01 ee 0d 00 00 00 0d 00 00 00
         01  00 00 00 00  06 00 61 62 73 65 6e 74
         ff b2 11 35",
    );
}
