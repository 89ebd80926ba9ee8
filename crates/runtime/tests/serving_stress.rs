//! Concurrency stress tests for the batched serving path: many clients ×
//! many models through the worker pool, always asserting bit-equality
//! against the single-sample `SurrogateNet::predict` reference.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hpcnet_nn::train::FeatureScaler;
use hpcnet_nn::{Autoencoder, Mlp, Topology};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{Client, ModelBundle, Orchestrator, TensorStore};
use hpcnet_tensor::rng::{seeded, uniform_vec};
use hpcnet_tensor::{Coo, Matrix};

fn plain_bundle(seed: u64, widths: Vec<usize>) -> ModelBundle {
    let mlp = Mlp::new(&Topology::mlp(widths), &mut seeded(seed, "stress")).unwrap();
    ModelBundle {
        surrogate: mlp.into(),
        autoencoder: None,
        scaler: None,
        output_scaler: None,
    }
}

/// The single-sample reference path, replicated outside the server.
fn reference_predict(bundle: &ModelBundle, x: &[f64]) -> Vec<f64> {
    let mut features = match &bundle.autoencoder {
        Some(ae) => ae.encode(x).unwrap(),
        None => x.to_vec(),
    };
    if let Some(s) = &bundle.scaler {
        s.transform_vec(&mut features);
    }
    let mut y = bundle.surrogate.predict(&features).unwrap();
    if let Some(os) = &bundle.output_scaler {
        os.inverse_transform_vec(&mut y);
    }
    y
}

#[test]
fn many_clients_many_models_bit_equal_single_sample() {
    const CLIENTS: usize = 4;
    const MODELS: usize = 3;
    const REQUESTS_PER_CLIENT: usize = 25;

    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(4)
        .build();
    let bundles: Vec<ModelBundle> = (0..MODELS)
        .map(|m| plain_bundle(100 + m as u64, vec![5, 7, 3]))
        .collect();
    for (m, b) in bundles.iter().enumerate() {
        orc.register_model(&format!("model{m}"), b.clone());
    }

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = Client::connect(&orc);
            std::thread::spawn(move || {
                let mut rng = seeded(c as u64, "stress-client");
                let mut sent: Vec<(usize, String, Vec<f64>)> = Vec::new();
                for r in 0..REQUESTS_PER_CLIENT {
                    let m = (c + r) % MODELS;
                    let x = uniform_vec(&mut rng, 5, -2.0, 2.0);
                    let in_key = format!("c{c}r{r}in");
                    let out_key = format!("c{c}r{r}out");
                    client.put_tensor(&in_key, &x).unwrap();
                    if r % 5 == 0 {
                        // Exercise the explicit batch API alongside run_model.
                        client
                            .run_model_batch(
                                &format!("model{m}"),
                                &[(in_key.as_str(), out_key.as_str())],
                            )
                            .unwrap();
                    } else {
                        client
                            .run_model(&format!("model{m}"), &in_key, &out_key)
                            .unwrap();
                    }
                    sent.push((m, out_key, x));
                }
                sent.into_iter()
                    .map(|(m, out_key, x)| (m, client.unpack_tensor(&out_key).unwrap(), x))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    for h in handles {
        for (m, served, x) in h.join().unwrap() {
            assert_eq!(
                served,
                bundles[m].surrogate.predict(&x).unwrap(),
                "served output diverged from single-sample predict (model {m})"
            );
        }
    }

    let stats = orc.serving_stats();
    assert_eq!(stats.requests, (CLIENTS * REQUESTS_PER_CLIENT) as u64);
    assert_eq!(stats.errors, 0);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    let per_model_total: u64 = stats.per_model.values().sum();
    assert_eq!(per_model_total, stats.requests);
    assert_eq!(stats.per_model.len(), MODELS);
    let hist_total: u64 = stats.batch_hist.iter().sum();
    assert_eq!(hist_total, stats.batches);
}

#[test]
fn one_big_client_batch_bit_equal_single_sample_with_scalers() {
    let mut rng = seeded(7, "stress-scaled");
    let mlp = Mlp::new(&Topology::mlp(vec![4, 8, 2]), &mut rng).unwrap();
    let fit_in = Matrix::from_vec(6, 4, uniform_vec(&mut rng, 24, -3.0, 3.0)).unwrap();
    let fit_out = Matrix::from_vec(6, 2, uniform_vec(&mut rng, 12, -3.0, 3.0)).unwrap();
    let bundle = ModelBundle {
        surrogate: mlp.into(),
        autoencoder: None,
        scaler: Some(FeatureScaler::fit(&fit_in)),
        output_scaler: Some(FeatureScaler::fit(&fit_out)),
    };
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(2)
        .build();
    orc.register_model("scaled", bundle.clone());
    let client = Client::connect(&orc);

    // 70 samples: large enough to cross the kernels' parallel threshold.
    let inputs: Vec<Vec<f64>> = (0..70)
        .map(|_| uniform_vec(&mut rng, 4, -2.0, 2.0))
        .collect();
    let keys: Vec<(String, String)> = (0..inputs.len())
        .map(|i| (format!("s{i}in"), format!("s{i}out")))
        .collect();
    for ((in_key, _), x) in keys.iter().zip(&inputs) {
        client.put_tensor(in_key, x).unwrap();
    }
    let pairs: Vec<(&str, &str)> = keys.iter().map(|(i, o)| (i.as_str(), o.as_str())).collect();
    client.run_model_batch("scaled", &pairs).unwrap();

    for ((_, out_key), x) in keys.iter().zip(&inputs) {
        assert_eq!(
            client.unpack_tensor(out_key).unwrap(),
            reference_predict(&bundle, x)
        );
    }
}

#[test]
fn batched_autoencoder_paths_bit_equal_single_sample() {
    let mut rng = seeded(11, "stress-ae");
    let ae = Autoencoder::new(16, 4, &mut rng).unwrap();
    let mlp = Mlp::new(&Topology::mlp(vec![4, 6, 2]), &mut rng).unwrap();
    let bundle = ModelBundle {
        surrogate: mlp.into(),
        autoencoder: Some(ae),
        scaler: None,
        output_scaler: None,
    };
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(2)
        .build();
    orc.register_model("ae", bundle.clone());
    let client = Client::connect(&orc);

    // Dense inputs through the batched encoder.
    let dense_inputs: Vec<Vec<f64>> = (0..9)
        .map(|_| uniform_vec(&mut rng, 16, -1.0, 1.0))
        .collect();
    for (i, x) in dense_inputs.iter().enumerate() {
        client.put_tensor(&format!("d{i}in"), x).unwrap();
    }
    let dense_keys: Vec<(String, String)> = (0..dense_inputs.len())
        .map(|i| (format!("d{i}in"), format!("d{i}out")))
        .collect();
    let dense_pairs: Vec<(&str, &str)> = dense_keys
        .iter()
        .map(|(i, o)| (i.as_str(), o.as_str()))
        .collect();
    client.run_model_batch("ae", &dense_pairs).unwrap();
    for ((_, out_key), x) in dense_keys.iter().zip(&dense_inputs) {
        assert_eq!(
            client.unpack_tensor(out_key).unwrap(),
            reference_predict(&bundle, x)
        );
    }

    // Sparse single-row inputs, stacked by the server without densifying.
    let sparse_rows: Vec<Vec<(usize, f64)>> = vec![
        vec![(0, 1.0), (5, -2.0)],
        vec![],
        vec![(15, 3.5)],
        vec![(2, 0.5), (3, 0.25), (9, -0.75)],
    ];
    for (i, entries) in sparse_rows.iter().enumerate() {
        let mut coo = Coo::new(1, 16);
        for &(j, v) in entries {
            coo.push(0, j, v);
        }
        client
            .put_sparse_tensor(&format!("sp{i}in"), coo.to_csr())
            .unwrap();
    }
    let sparse_keys: Vec<(String, String)> = (0..sparse_rows.len())
        .map(|i| (format!("sp{i}in"), format!("sp{i}out")))
        .collect();
    let sparse_pairs: Vec<(&str, &str)> = sparse_keys
        .iter()
        .map(|(i, o)| (i.as_str(), o.as_str()))
        .collect();
    client.run_model_batch("ae", &sparse_pairs).unwrap();
    for ((_, out_key), entries) in sparse_keys.iter().zip(&sparse_rows) {
        // Reference: the single-sample sparse path (encode_sparse on one
        // row, then predict), which the stacked batch must match bitwise.
        let mut coo = Coo::new(1, 16);
        for &(j, v) in entries {
            coo.push(0, j, v);
        }
        let features = bundle
            .autoencoder
            .as_ref()
            .unwrap()
            .encode_sparse(&coo.to_csr())
            .unwrap();
        let expected = bundle.surrogate.predict(features.row(0)).unwrap();
        assert_eq!(
            client.unpack_tensor(out_key).unwrap(),
            expected,
            "sparse batched path diverged"
        );
    }
}

#[test]
fn mixed_good_and_bad_requests_under_load_stay_attributed() {
    let orc = Orchestrator::builder()
        .store(TensorStore::new())
        .workers(3)
        .build();
    orc.register_model("m", plain_bundle(42, vec![3, 5, 1]));
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let client = Client::connect(&orc);
            std::thread::spawn(move || {
                let mut oks = 0usize;
                let mut errs = 0usize;
                for r in 0..20 {
                    let in_key = format!("mx{c}r{r}in");
                    let out_key = format!("mx{c}r{r}out");
                    if r % 4 == 0 {
                        // No tensor written: this request must fail alone.
                        match client.run_model("m", &in_key, &out_key) {
                            Ok(()) => oks += 1,
                            Err(_) => errs += 1,
                        }
                    } else {
                        client
                            .put_tensor(&in_key, &[0.1 * r as f64, 0.2, -0.3])
                            .unwrap();
                        client.run_model("m", &in_key, &out_key).unwrap();
                        assert_eq!(client.unpack_tensor(&out_key).unwrap().len(), 1);
                        oks += 1;
                    }
                }
                (oks, errs)
            })
        })
        .collect();
    let mut total_errs = 0;
    for h in handles {
        let (_, errs) = h.join().unwrap();
        total_errs += errs;
    }
    assert_eq!(
        total_errs,
        4 * 5,
        "exactly the tensor-less requests must fail"
    );
    let stats = orc.serving_stats();
    assert_eq!(stats.requests, 80);
    assert_eq!(stats.errors, 20);
}
