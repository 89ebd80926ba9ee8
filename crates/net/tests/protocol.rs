//! Property-based tests for the wire protocol: arbitrary tensors (dense
//! and sparse, including NaN/Inf bit patterns) survive encode → frame →
//! decode bit-exactly, invalid keys are rejected at decode, and no
//! single-byte corruption of a valid frame ever passes validation.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hpcnet_net::protocol::{
    decode_request, read_frame, write_frame, FrameOutcome, Request, WireError,
};
use hpcnet_telemetry::{SpanId, TraceContext, TraceId};
use hpcnet_tensor::{Coo, Csr};
use proptest::prelude::*;
use std::io::Cursor;

/// Any f64 bit pattern: normals, subnormals, ±0, ±Inf, and every NaN.
fn f64_bits() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn key_strategy() -> impl Strategy<Value = String> {
    "[a-z0-9_./-]{1,48}"
}

/// A valid CSR with distinct coordinates (sorted by construction).
fn sparse_strategy() -> impl Strategy<Value = Csr> {
    (1usize..6, 1usize..9).prop_flat_map(|(nrows, ncols)| {
        prop::collection::btree_map((0..nrows, 0..ncols), f64_bits(), 0..16).prop_map(
            move |entries| {
                let mut coo = Coo::new(nrows, ncols);
                for ((row, col), v) in entries {
                    coo.push(row, col, v);
                }
                coo.to_csr()
            },
        )
    })
}

fn roundtrip(req: &Request, seq: u32) -> Request {
    let mut wire = Vec::new();
    write_frame(&mut wire, req.opcode(), seq, &req.encode()).unwrap();
    match read_frame(&mut Cursor::new(&wire)).unwrap() {
        FrameOutcome::Frame(raw) => {
            assert_eq!(raw.seq, seq);
            decode_request(&raw).unwrap()
        }
        FrameOutcome::Corrupt { reason, .. } => panic!("pristine frame rejected: {reason}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Dense tensors of arbitrary bit patterns round-trip bit-exactly.
    #[test]
    fn dense_put_roundtrips_bitwise(
        key in key_strategy(),
        values in prop::collection::vec(f64_bits(), 0..64),
        seq in any::<u32>(),
    ) {
        let req = Request::PutTensor { key: key.clone(), values: values.clone() };
        let Request::PutTensor { key: k2, values: v2 } = roundtrip(&req, seq) else {
            panic!("wrong variant");
        };
        prop_assert_eq!(k2, key);
        prop_assert_eq!(v2.len(), values.len());
        for (a, b) in values.iter().zip(&v2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Sparse tensors round-trip with identical structure and bit-exact
    /// values.
    #[test]
    fn sparse_put_roundtrips_bitwise(
        key in key_strategy(),
        csr in sparse_strategy(),
        seq in any::<u32>(),
    ) {
        let req = Request::PutSparse { key, tensor: csr.clone() };
        let Request::PutSparse { tensor: back, .. } = roundtrip(&req, seq) else {
            panic!("wrong variant");
        };
        prop_assert_eq!(back.nrows(), csr.nrows());
        prop_assert_eq!(back.ncols(), csr.ncols());
        prop_assert_eq!(back.indptr(), csr.indptr());
        prop_assert_eq!(back.indices(), csr.indices());
        prop_assert_eq!(back.values().len(), csr.values().len());
        for (a, b) in csr.values().iter().zip(back.values()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// RunModel requests round-trip every field, including the deadline.
    #[test]
    fn run_model_roundtrips(
        model in "[A-Za-z0-9-]{1,24}",
        in_key in key_strategy(),
        out_key in key_strategy(),
        deadline_micros in any::<u64>(),
        seq in any::<u32>(),
    ) {
        let req = Request::RunModel { model, in_key, out_key, deadline_micros, trace: None };
        prop_assert_eq!(roundtrip(&req, seq), req);
    }

    /// Traced RunModel requests round-trip their trace context exactly,
    /// for any non-zero trace id and any parent-span value.
    #[test]
    fn run_model_trace_context_roundtrips(
        model in "[A-Za-z0-9-]{1,24}",
        in_key in key_strategy(),
        out_key in key_strategy(),
        deadline_micros in any::<u64>(),
        trace_id in 1u64..,
        parent in any::<u64>(),
        seq in any::<u32>(),
    ) {
        let trace = Some(TraceContext {
            trace_id: TraceId(trace_id),
            parent_span: (parent != 0).then_some(SpanId(parent)),
        });
        let req = Request::RunModel { model, in_key, out_key, deadline_micros, trace };
        prop_assert_eq!(roundtrip(&req, seq), req);
    }

    /// A zero-length key is rejected at decode for every keyed op.
    #[test]
    fn zero_length_keys_never_decode(values in prop::collection::vec(f64_bits(), 0..8)) {
        let reqs = vec![
            Request::PutTensor { key: String::new(), values },
            Request::GetTensor { key: String::new() },
            Request::Del { key: String::new() },
        ];
        for req in reqs {
            let mut wire = Vec::new();
            write_frame(&mut wire, req.opcode(), 0, &req.encode()).unwrap();
            let FrameOutcome::Frame(raw) = read_frame(&mut Cursor::new(&wire)).unwrap() else {
                panic!("framing is independent of payload validity");
            };
            prop_assert!(matches!(decode_request(&raw), Err(WireError::EmptyKey)));
        }
    }

    /// No single-byte corruption of a valid frame survives validation:
    /// the reader reports it as corrupt (recoverable) or fatal — never a
    /// clean frame.
    #[test]
    fn single_byte_corruption_is_always_detected(
        key in key_strategy(),
        values in prop::collection::vec(f64_bits(), 0..16),
        pos_fraction in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let req = Request::PutTensor { key, values };
        let mut wire = Vec::new();
        write_frame(&mut wire, req.opcode(), 42, &req.encode()).unwrap();
        let pos = ((wire.len() - 1) as f64 * pos_fraction) as usize;
        wire[pos] ^= mask;
        let detected = match read_frame(&mut Cursor::new(&wire)) {
            Ok(FrameOutcome::Frame(_)) => false,
            Ok(FrameOutcome::Corrupt { reason, .. }) => {
                prop_assert!(!reason.is_fatal());
                true
            }
            Err(e) => {
                prop_assert!(e.is_fatal());
                true
            }
        };
        prop_assert!(
            detected,
            "corruption at byte {} (mask {:#04x}) went undetected",
            pos,
            mask
        );
    }

    /// Truncating a valid frame anywhere yields a fatal I/O error, never
    /// a decoded frame and never a panic.
    #[test]
    fn truncation_is_fatal(
        values in prop::collection::vec(f64_bits(), 0..16),
        keep_fraction in 0.0f64..1.0,
    ) {
        let req = Request::PutTensor { key: "k".into(), values };
        let mut wire = Vec::new();
        write_frame(&mut wire, req.opcode(), 7, &req.encode()).unwrap();
        let keep = ((wire.len() - 1) as f64 * keep_fraction) as usize;
        wire.truncate(keep);
        let err = read_frame(&mut Cursor::new(&wire));
        prop_assert!(err.is_err(), "truncated frame accepted");
        prop_assert!(err.unwrap_err().is_fatal());
    }
}
