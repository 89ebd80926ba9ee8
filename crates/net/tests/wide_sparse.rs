//! A sparse tensor's shape is a claim: twelve bytes of a `PUT_SPARSE`
//! payload. A valid 42-byte frame can declare one row of 2^32 − 1 columns
//! with nothing stored — 32 GiB in dense form. The server must store it
//! (it is a valid CSR, and serving it through an autoencoder never
//! densifies it), and must answer everything that would densify it — a
//! `GET_TENSOR`, a `RUN_MODEL` whose model takes the dense form, with or
//! without a guard — with a typed error for that request alone, before
//! allocating anything for it.
//!
//! The allocator below is the one of `wire_fuzz.rs` with a process-wide
//! high-water mark instead of a per-thread one: the allocations that
//! matter here are made by the server's connection thread. This file
//! holds one test, so nothing else allocates beside it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use hpcnet_net::protocol::{frame_len, Request, VERSION};
use hpcnet_net::{demo_bundle, demo_input, NetServer, RemoteClient, DEMO_MODEL};
use hpcnet_runtime::{ClientApi, Orchestrator, QualityGuard, RuntimeError};
use hpcnet_tensor::Csr;

/// Largest single allocation any thread requested since the last reset.
static LARGEST_ALLOC: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, noting each request's size on the way through.
struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is an atomic `fetch_max` on a
// static, which neither allocates nor blocks.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST_ALLOC.fetch_max(new_size, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

fn too_wide<T: std::fmt::Debug>(result: Result<T, RuntimeError>) -> bool {
    matches!(&result, Err(RuntimeError::Inference(m)) if m.contains("exceeds"))
}

#[test]
fn a_sparse_tensor_too_wide_to_densify_costs_its_own_requests_only() {
    let orchestrator = Orchestrator::builder().workers(1).build();
    orchestrator.register_model(DEMO_MODEL, demo_bundle());
    orchestrator.register_guarded_model("guarded", demo_bundle(), QualityGuard::new(|_, _| true));
    let server = NetServer::builder(orchestrator)
        .serve("127.0.0.1:0")
        .expect("bind ephemeral port");
    let client = RemoteClient::connect(server.local_addr().to_string().as_str()).unwrap();

    let wide = Csr::from_raw(1, u32::MAX as usize, vec![0, 0], vec![], vec![]).unwrap();
    let put = Request::PutSparse {
        key: "wide".into(),
        tensor: wide.clone(),
    };
    assert_eq!(put.encode_frame(&mut Vec::new(), VERSION, 1), frame_len(26));

    client.put_tensor("fine", &demo_input(0)).unwrap();
    LARGEST_ALLOC.store(0, Ordering::Relaxed);
    client.put_sparse_tensor("wide", wide).unwrap();
    assert!(too_wide(client.unpack_tensor("wide")));
    assert!(too_wide(client.run_model("guarded", "wide", "out")));
    assert!(too_wide(client.run_model(DEMO_MODEL, "wide", "out")));
    // One window of pipelined `RUN_MODEL`s, one round on the server: the
    // request beside the wide one is served.
    let batch = client.run_model_batch("guarded", &[("wide", "out_w"), ("fine", "out_f")]);
    assert!(too_wide(batch));
    assert_eq!(client.unpack_tensor("out_f").unwrap().len(), 4);
    // The connection and the server are as they were.
    client.ping().unwrap();
    client.run_model("guarded", "fine", "out").unwrap();
    assert!(client.del_tensor("wide").unwrap());

    let largest = LARGEST_ALLOC.load(Ordering::Relaxed);
    assert!(largest < 1 << 20, "a {largest}-byte allocation");
}
