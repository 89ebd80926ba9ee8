//! Property-based tests for the runtime: store semantics under arbitrary
//! operation sequences and bundle-serialization fidelity for random
//! networks.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hpcnet_nn::{Activation, Mlp, Topology};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{ModelBundle, Orchestrator, TensorStore};
use hpcnet_tensor::rng::{seeded, uniform_vec};
use proptest::prelude::*;

/// One store operation.
#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<f64>),
    Delete(u8),
    Get(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..6, prop::collection::vec(-10.0f64..10.0, 1..8)).prop_map(|(k, v)| Op::Put(k, v)),
        (0u8..6).prop_map(Op::Delete),
        (0u8..6).prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store behaves like a HashMap under any operation sequence.
    #[test]
    fn store_matches_hashmap_model(ops in prop::collection::vec(op_strategy(), 0..60)) {
        use std::collections::HashMap;
        let store = TensorStore::new();
        let mut model: HashMap<u8, Vec<f64>> = HashMap::new();
        for op in ops {
            match op {
                Op::Put(k, v) => {
                    store.put_dense(&format!("k{k}"), v.clone());
                    model.insert(k, v);
                }
                Op::Delete(k) => {
                    let existed = store.delete(&format!("k{k}"));
                    prop_assert_eq!(existed, model.remove(&k).is_some());
                }
                Op::Get(k) => {
                    let got = store.get_dense(&format!("k{k}")).ok();
                    prop_assert_eq!(got, model.get(&k).cloned());
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
    }

    /// Any random MLP bundle survives the JSON checkpoint format with
    /// bit-exact predictions (float_roundtrip).
    #[test]
    fn bundle_json_is_bit_exact(
        seed in 0u64..10_000,
        hidden in 1usize..12,
        act in prop::sample::select(vec![Activation::Tanh, Activation::Relu, Activation::Identity]),
    ) {
        let mut rng = seeded(seed, "rt-prop");
        let topo = Topology { widths: vec![5, hidden, 3], hidden_act: act, output_act: Activation::Identity };
        let mlp = Mlp::new(&topo, &mut rng).unwrap();
        let bundle = ModelBundle {
            surrogate: mlp.into(),
            autoencoder: None,
            scaler: None,
            output_scaler: None,
        };
        let restored = ModelBundle::from_json(&bundle.to_json()).unwrap();
        let x = uniform_vec(&mut rng, 5, -3.0, 3.0);
        prop_assert_eq!(
            bundle.surrogate.predict(&x).unwrap(),
            restored.surrogate.predict(&x).unwrap()
        );
    }

    /// Serving through the orchestrator equals direct prediction for any
    /// registered model and input.
    #[test]
    fn served_equals_direct(seed in 0u64..10_000) {
        let mut rng = seeded(seed, "rt-serve");
        let mlp = Mlp::new(&Topology::mlp(vec![4, 6, 2]), &mut rng).unwrap();
        let bundle = ModelBundle {
            surrogate: mlp.into(),
            autoencoder: None,
            scaler: None,
            output_scaler: None,
        };
        let orc = Orchestrator::builder().store(TensorStore::new()).build();
        orc.register_model("m", bundle.clone());
        let x = uniform_vec(&mut rng, 4, -2.0, 2.0);
        let client = orc.client();
        client.put_tensor("in", &x).unwrap();
        client.run_model("m", "in", "out").unwrap();
        prop_assert_eq!(
            client.unpack_tensor("out").unwrap(),
            bundle.surrogate.predict(&x).unwrap()
        );
    }
}
