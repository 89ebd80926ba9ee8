//! The orchestrator owns no serving thread (DESIGN.md §9): rounds execute
//! on the threads that bring them, so building one, serving through it
//! and shutting it down leave the process's thread count where it was.
//! One test in its own process — the harness's threads are the baseline.

#![cfg(target_os = "linux")]
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hpcnet_nn::{Mlp, Topology};
use hpcnet_runtime::{ClientApi, ModelBundle, Orchestrator};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn building_serving_and_shutting_down_start_no_thread() {
    let before = threads();
    let orc = Orchestrator::builder().workers(4).build();
    assert_eq!(orc.worker_count(), 4);
    assert_eq!(threads(), before, "build() started a thread");

    let mut rng = hpcnet_tensor::rng::seeded(5, "thread-budget");
    orc.register_model(
        "m",
        ModelBundle {
            surrogate: Mlp::new(&Topology::mlp(vec![3, 4, 2]), &mut rng)
                .unwrap()
                .into(),
            autoencoder: None,
            scaler: None,
            output_scaler: None,
        },
    );
    let client = orc.client();
    client.put_tensor("in", &[0.5, -0.25, 1.0]).unwrap();
    for _ in 0..1000 {
        client.run_model("m", "in", "out").unwrap();
    }
    assert_eq!(threads(), before, "serving started a thread");

    assert_eq!(orc.shutdown().requests, 1000);
    assert_eq!(threads(), before, "shutdown() changed the thread count");
}
