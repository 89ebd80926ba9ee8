//! What a quality guard is shown of its request's input (DESIGN.md §10).
//!
//! The validator and the fallback take the raw input as a dense slice. A
//! dense input is handed over as fetched; a sparse one is scattered over
//! the execution slot's all-zero scratch for as long as the guard looks at
//! it, and the zeros are written back on every way out. These tests pin
//! what the closures see — bit for bit the tensor's dense form, nothing of
//! any earlier request — and that serving a guarded sparse request
//! allocates nothing proportional to the input's width.
//!
//! Every request here is executed by the thread that makes it (an idle
//! orchestrator runs the caller's round on the caller's thread, DESIGN.md
//! §9), so the per-thread byte count below sees the serving path's own
//! allocations and nothing of the tests running beside it.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hpcnet_nn::train::FeatureScaler;
use hpcnet_nn::{Autoencoder, Mlp, Topology};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{ModelBundle, Orchestrator, QualityGuard, RunRequest, RuntimeError};
use hpcnet_tensor::rng::seeded;
use hpcnet_tensor::{Csr, Matrix};

thread_local! {
    /// Bytes this thread has requested from the allocator since the reset.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, adding up each request's size on the way through.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a store to a `const`
// thread-local `Cell<usize>`, which neither allocates nor has a destructor.
unsafe impl GlobalAlloc for Counting {
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
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + size));
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes this thread allocates while `f` runs.
fn allocated_by(f: impl FnOnce()) -> usize {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What the guard's closures were called with, in call order.
type Seen = Arc<Mutex<Vec<Vec<f64>>>>;

fn seen(log: &Seen) -> Vec<Vec<f64>> {
    std::mem::take(&mut *log.lock().unwrap())
}

/// A guard whose validator logs its `raw` argument and answers `verdict`.
fn recording(log: &Seen, verdict: bool) -> QualityGuard {
    let log = log.clone();
    QualityGuard::new(move |raw, _| {
        log.lock().unwrap().push(raw.to_vec());
        verdict
    })
}

/// `width → 2`, no autoencoder: the input itself is the feature row.
fn plain(width: usize, seed: u64) -> ModelBundle {
    let mlp = Mlp::new(&Topology::mlp(vec![width, 3, 2]), &mut seeded(seed, "view")).unwrap();
    ModelBundle {
        surrogate: mlp.into(),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

/// `width → latent → 2` behind an autoencoder: a sparse input is encoded
/// from its stored entries and never takes dense form on the way in.
fn encoded(width: usize, latent: usize, seed: u64) -> ModelBundle {
    let mut rng = seeded(seed, "view-ae");
    let ae = Autoencoder::new(width, latent, &mut rng).unwrap();
    let mlp = Mlp::new(&Topology::mlp(vec![latent, 3, 2]), &mut rng).unwrap();
    ModelBundle {
        surrogate: mlp.into(),
        autoencoder: Some(ae),
        scaler: None,
        output_scaler: None,
    }
}

/// One sparse row of `width` columns with the given stored entries.
fn row(width: usize, entries: &[(usize, f64)]) -> Csr {
    let (indices, values) = entries.iter().copied().unzip();
    Csr::from_raw(1, width, vec![0, entries.len()], indices, values).unwrap()
}

fn run<'a>(model: &'a str, in_key: &'a str, out_key: &'a str) -> RunRequest<'a> {
    RunRequest {
        model,
        in_key,
        out_key,
        deadline: None,
        trace: None,
    }
}

#[test]
fn validator_and_fallback_see_the_dense_form_bit_for_bit() {
    let cases: Vec<(&str, Csr)> = vec![
        ("single row", row(6, &[(1, 2.5), (4, -1.0)])),
        (
            "three rows, the middle one empty",
            Csr::from_raw(3, 4, vec![0, 2, 2, 3], vec![0, 3, 2], vec![1.0, 2.0, 3.0]).unwrap(),
        ),
        // `from_raw` accepts a column stored twice; the later value wins.
        ("duplicate column", row(5, &[(2, 7.0), (2, 8.0), (4, 1.0)])),
        (
            "stored zeros of both signs",
            row(4, &[(0, 0.0), (1, -0.0), (3, 9.0)]),
        ),
        ("nothing stored", row(5, &[])),
    ];
    for (what, tensor) in cases {
        let dense = tensor.to_dense_vector();
        let orc = Orchestrator::builder().workers(1).build();
        let log = Seen::default();
        let from_fallback = log.clone();
        orc.register_guarded_model(
            "m",
            plain(dense.len(), 3),
            recording(&log, false).with_fallback(move |raw| {
                from_fallback.lock().unwrap().push(raw.to_vec());
                vec![raw.iter().sum()]
            }),
        );
        let client = orc.client();
        client.put_sparse_tensor("in", tensor).unwrap();
        client.run_model("m", "in", "out").unwrap();

        let calls = seen(&log);
        assert_eq!(calls.len(), 2, "{what}: validator, then fallback");
        assert_eq!(bits(&calls[0]), bits(&dense), "{what}: validator");
        assert_eq!(bits(&calls[1]), bits(&dense), "{what}: fallback");
        assert_eq!(
            client.unpack_tensor("out").unwrap(),
            vec![dense.iter().sum::<f64>()],
            "{what}: the fallback's answer is what is served"
        );
    }
}

#[test]
fn nothing_of_an_earlier_request_is_visible_to_a_later_one() {
    // One worker: one execution slot, so every round below borrows the
    // same scratch.
    let orc = Orchestrator::builder().workers(1).build();
    let log = Seen::default();
    orc.register_guarded_model("wide", encoded(64, 2, 5), recording(&log, true));
    orc.register_guarded_model("narrow", encoded(16, 2, 6), recording(&log, true));
    let client = orc.client();

    let a = row(64, &[(1, 1.0), (40, 2.0), (63, 3.0)]);
    let b = row(64, &[(0, 4.0), (41, 5.0)]);
    let c = row(16, &[(2, 6.0), (15, 7.0)]);
    let d = row(64, &[(2, 8.0), (62, 9.0)]);
    for (key, tensor) in [("a", &a), ("b", &b), ("c", &c), ("d", &d)] {
        client.put_sparse_tensor(key, tensor.clone()).unwrap();
    }

    // Disjoint patterns, two requests of one round.
    let round = client.run_round(&[run("wide", "a", "out_a"), run("wide", "b", "out_b")]);
    assert_eq!(round, vec![Ok(()), Ok(())]);
    let calls = seen(&log);
    assert_eq!(bits(&calls[0]), bits(&a.to_dense_vector()));
    assert_eq!(bits(&calls[1]), bits(&b.to_dense_vector()));

    // The next round; then wide, narrow, wide again: a narrower view is
    // exactly as long as its own tensor, and the wider one after it finds
    // no trace of either predecessor.
    client.run_model("wide", "a", "out_a").unwrap();
    client.run_model("narrow", "c", "out_c").unwrap();
    client.run_model("wide", "d", "out_d").unwrap();
    let calls = seen(&log);
    assert_eq!(bits(&calls[0]), bits(&a.to_dense_vector()));
    assert_eq!(bits(&calls[1]), bits(&c.to_dense_vector()));
    assert_eq!(bits(&calls[2]), bits(&d.to_dense_vector()));
}

#[test]
fn a_panicking_validator_leaves_the_next_request_a_clean_view() {
    let orc = Orchestrator::builder().workers(1).build();
    let log = Seen::default();
    let logging = log.clone();
    orc.register_guarded_model(
        "m",
        encoded(32, 2, 7),
        QualityGuard::new(move |raw, _| {
            assert!(raw[7] == 0.0, "validator blew up");
            logging.lock().unwrap().push(raw.to_vec());
            true
        }),
    );
    let client = orc.client();
    let poison = row(32, &[(7, 1.0), (20, 5.0), (31, 6.0)]);
    let clean = row(32, &[(3, 2.0)]);
    client.put_sparse_tensor("poison", poison).unwrap();
    client.put_sparse_tensor("clean", clean.clone()).unwrap();

    // Same round, the panicking request first.
    let round = client.run_round(&[run("m", "poison", "out_p"), run("m", "clean", "out_c")]);
    assert!(
        matches!(&round[0], Err(RuntimeError::Inference(m)) if m.contains("panicked")),
        "{:?}",
        round[0]
    );
    assert_eq!(round[1], Ok(()));
    // And a round after it.
    client.run_model("m", "clean", "out_c").unwrap();
    let calls = seen(&log);
    assert_eq!(calls.len(), 2);
    for call in calls {
        assert_eq!(bits(&call), bits(&clean.to_dense_vector()));
    }
}

#[test]
fn a_rejected_request_leaves_the_next_request_a_clean_view() {
    // No fallback: the rejection leaves `deliver_output` by `return Err`.
    let orc = Orchestrator::builder().workers(1).build();
    let log = Seen::default();
    let logging = log.clone();
    orc.register_guarded_model(
        "m",
        encoded(32, 2, 8),
        QualityGuard::new(move |raw, _| {
            logging.lock().unwrap().push(raw.to_vec());
            raw[7] == 0.0
        }),
    );
    let client = orc.client();
    let clean = row(32, &[(3, 2.0)]);
    client
        .put_sparse_tensor("rejected", row(32, &[(7, 1.0), (9, 4.0)]))
        .unwrap();
    client.put_sparse_tensor("clean", clean.clone()).unwrap();
    assert!(matches!(
        client.run_model("m", "rejected", "out_r"),
        Err(RuntimeError::QualityRejected(_))
    ));
    client.run_model("m", "clean", "out_c").unwrap();
    assert_eq!(bits(&seen(&log)[1]), bits(&clean.to_dense_vector()));
}

#[test]
fn f32_demotion_revalidates_on_the_same_view() {
    let orc = Orchestrator::builder().workers(1).serve_f32(true).build();
    let log = Seen::default();
    let logging = log.clone();
    let calls = AtomicUsize::new(0);
    orc.register_guarded_model(
        "m",
        encoded(24, 2, 9),
        // Miss on the f32 answer, hit on the f64 recompute.
        QualityGuard::new(move |raw, _| {
            logging.lock().unwrap().push(raw.to_vec());
            calls.fetch_add(1, Ordering::SeqCst) == 1
        })
        .with_fallback(|_| panic!("the demotion must answer before the region")),
    );
    let client = orc.client();
    let tensor = row(24, &[(0, 0.5), (11, -0.25), (23, 0.125)]);
    client.put_sparse_tensor("in", tensor.clone()).unwrap();
    client.run_model("m", "in", "out").unwrap();

    let calls = seen(&log);
    assert_eq!(calls.len(), 2, "judged as f32, then again as f64");
    assert_eq!(bits(&calls[0]), bits(&tensor.to_dense_vector()));
    assert_eq!(bits(&calls[1]), bits(&tensor.to_dense_vector()));
    let stats = orc.serving_stats();
    assert_eq!((stats.f32_fallbacks, stats.quality_hits), (1, 1));
    assert_eq!(stats.quality_fallbacks, 0);
}

#[test]
fn a_dense_guard_input_reaches_the_validator_as_it_was_put() {
    // A scaler rewrites the feature row in place: with no autoencoder the
    // feature row starts as a copy of the input, and the guard must still
    // be shown the input, not the scaled copy.
    const WIDTH: usize = 1 << 16;
    let input: Vec<f64> = (0..WIDTH).map(|i| (i % 97) as f64 * 0.5 - 3.0).collect();
    let fit_on = Matrix::from_vec(2, WIDTH, [vec![0.0; WIDTH], vec![8.0; WIDTH]].concat());
    let scaler = FeatureScaler::fit(&fit_on.unwrap());

    let mut scaled = plain(WIDTH, 10);
    scaled.scaler = Some(scaler);
    for (what, bundle, copies) in [
        // Fetched from the store, copied into the feature row, gathered
        // into the batch matrix.
        ("no autoencoder", scaled, 3),
        // Fetched from the store, copied by `Autoencoder::encode`.
        ("autoencoder", encoded(WIDTH, 1, 11), 2),
    ] {
        let orc = Orchestrator::builder().workers(1).build();
        let log = Seen::default();
        let logging = log.clone();
        orc.register_guarded_model(
            "m",
            bundle,
            QualityGuard::new(move |raw, _| {
                // Off the clock: the log's own copy is not the server's.
                let before = ALLOCATED.with(Cell::get);
                logging.lock().unwrap().push(raw.to_vec());
                ALLOCATED.with(|a| a.set(before));
                true
            }),
        );
        let client = orc.client();
        client.put_tensor("in", &input).unwrap();
        let allocated = allocated_by(|| client.run_model("m", "in", "out").unwrap());
        assert_eq!(bits(&seen(&log)[0]), bits(&input), "{what}");
        // The guard's view is not one of the copies.
        assert!(
            allocated < copies * WIDTH * 8 + WIDTH * 4,
            "{what}: {allocated} bytes for an input of {}",
            WIDTH * 8
        );
    }
}

#[test]
fn guarded_sparse_requests_allocate_nothing_proportional_to_the_width() {
    const WIDTH: usize = 1 << 20;
    const NNZ: usize = 8;
    let orc = Orchestrator::builder().workers(1).build();
    let misses = Arc::new(AtomicUsize::new(0));
    let counted = misses.clone();
    orc.register_guarded_model(
        "m",
        encoded(WIDTH, 1, 12),
        // The whole view, read without copying it: as long as the tensor
        // is wide, and holding its own eight values and nothing else.
        QualityGuard::new(move |raw, _| {
            let stored = raw.iter().filter(|v| **v != 0.0).count();
            let ok = raw.len() == WIDTH && stored == NNZ && raw.iter().sum::<f64>() == 36.0;
            if !ok {
                counted.fetch_add(1, Ordering::SeqCst);
            }
            ok
        }),
    );
    let client = orc.client();
    let request = |i: usize| {
        // Eight columns that move with `i`, no two requests alike.
        let mut entries: Vec<(usize, f64)> = (0..NNZ)
            .map(|k| ((i * 7_919 + k * 131_071) % WIDTH, (k + 1) as f64))
            .collect();
        entries.sort_by_key(|&(c, _)| c);
        client
            .put_sparse_tensor("in", row(WIDTH, &entries))
            .unwrap();
        client.run_model("m", "in", "out").unwrap();
    };
    // The first request grows the slot's scratch to the width.
    let first = allocated_by(|| request(0));
    assert!(first >= WIDTH * 8, "the scratch is allocated once: {first}");
    let rest = allocated_by(|| (1..=64).for_each(&request));
    assert!(
        rest < 1 << 20,
        "64 requests of a {}-byte dense form allocated {rest} bytes",
        WIDTH * 8
    );
    assert_eq!(misses.load(Ordering::SeqCst), 0);
    assert_eq!(orc.serving_stats().quality_hits, 65);
}

#[test]
fn a_dense_form_over_the_element_cap_is_a_typed_error_for_its_request_alone() {
    let too_wide = |result: &Result<(), RuntimeError>| matches!(result, Err(RuntimeError::Inference(m)) if m.contains("exceeds"));
    let orc = Orchestrator::builder().workers(1).build();
    let client = orc.client();
    client.put_tensor("fine", &[0.1, 0.2, 0.3]).unwrap();

    // What a 42-byte `PUT_SPARSE` can declare: one row, 2^32 - 1 columns,
    // nothing stored — 32 GiB when dense. Without an autoencoder the
    // dense form would be the feature row.
    orc.register_guarded_model("plain", plain(3, 13), QualityGuard::new(|_, _| true));
    client
        .put_sparse_tensor("huge", row(u32::MAX as usize, &[]))
        .unwrap();

    // Behind an autoencoder a sparse input is never dense on the way in,
    // whatever its size: 33 rows of 2^18 columns encode to 33 features,
    // and it is the guard's view that would be over the cap.
    const WIDTH: usize = 1 << 18;
    let mut tall = encoded(WIDTH, 1, 14);
    tall.surrogate = Mlp::new(&Topology::mlp(vec![33, 3, 2]), &mut seeded(14, "view"))
        .unwrap()
        .into();
    let guard_ran = Arc::new(AtomicUsize::new(0));
    let counted = guard_ran.clone();
    orc.register_guarded_model(
        "tall",
        tall.clone(),
        QualityGuard::new(move |_, _| {
            counted.fetch_add(1, Ordering::SeqCst);
            true
        }),
    );
    orc.register_model("tall-unguarded", tall);
    let rows33 = Csr::from_raw(33, WIDTH, vec![0; 34], vec![], vec![]).unwrap();
    client.put_sparse_tensor("tall", rows33).unwrap();

    let allocated = allocated_by(|| {
        let round = client.run_round(&[
            run("plain", "huge", "out_h"),
            run("plain", "fine", "out_f"),
            run("tall", "tall", "out_t"),
            run("tall-unguarded", "tall", "out_u"),
        ]);
        assert!(too_wide(&round[0]), "{:?}", round[0]);
        assert_eq!(round[1], Ok(()), "the rest of the round is served");
        assert!(too_wide(&round[2]), "{:?}", round[2]);
        assert_eq!(round[3], Ok(()), "unguarded, the same input is served");
        assert!(too_wide(&client.unpack_tensor("huge").map(|_| ())));
    });
    assert!(allocated < 1 << 20, "{allocated} bytes");
    assert_eq!(guard_ran.load(Ordering::SeqCst), 0);
    assert_eq!(client.unpack_tensor("out_f").unwrap().len(), 2);
    assert_eq!(client.unpack_tensor("out_u").unwrap().len(), 2);
}
