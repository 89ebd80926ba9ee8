//! A bundle file is input from outside the program: what it says about
//! its own shapes is checked where it is read. A malformed bundle is
//! refused with the typed `RuntimeError::Inference("bad surrogate: …")`
//! (`"bad autoencoder: …"` for that part) and nothing is registered; a
//! well-formed one in the format earlier commits wrote still loads and
//! predicts the same bits.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use hpcnet_nn::train::FeatureScaler;
use hpcnet_nn::{Autoencoder, Mlp, Topology};
use hpcnet_runtime::ClientApi;
use hpcnet_runtime::{ModelBundle, Orchestrator, RuntimeError};
use hpcnet_tensor::rng::{seeded, uniform_vec};
use hpcnet_tensor::Matrix;

/// One dense layer in the checkpoint format (`w` is `rows x cols`,
/// row-major).
fn layer(rows: u64, cols: u64, data: &str, bias: &str, act: &str) -> String {
    format!(r#"{{"w":{{"rows":{rows},"cols":{cols},"data":[{data}]}},"b":[{bias}],"act":"{act}"}}"#)
}

/// A bundle holding an MLP surrogate made of `layers` and nothing else.
fn bundle_json(layers: &[String]) -> String {
    format!(
        r#"{{"surrogate":{{"Mlp":{{"layers":[{}]}}}},"autoencoder":null,"scaler":null,"output_scaler":null}}"#,
        layers.join(",")
    )
}

/// A 2 → 3 → 1 ReLU net with dyadic weights, so its outputs are exact.
const W1: &str = "0.5,-0.25,1.0,0.125,2.0,-1.5";
const B1: &str = "0.5,-1.0,0.25";

fn good_layers() -> Vec<String> {
    vec![
        layer(2, 3, W1, B1, "Relu"),
        layer(3, 1, "1.0,-2.0,0.75", "0.125", "Identity"),
    ]
}

/// `[1, 2]` through [`good_layers`]: the hidden layer is
/// `relu([1.25, 2.75, -1.75])`, the output `1.25 - 5.5 + 0.125`.
const GOOD_INPUT: [f64; 2] = [1.0, 2.0];
const GOOD_OUTPUT: f64 = -4.125;

/// Registering `json` must fail with the typed surrogate error and leave
/// the registry empty; a valid bundle registered afterwards serves.
fn assert_refused(json: &str) {
    assert_refused_as(json, "bad surrogate:");
}

/// [`assert_refused`] for the bundle part whose error starts with `part`.
fn assert_refused_as(json: &str, part: &str) {
    let orc = Orchestrator::builder().build();
    match orc.register_model_from_json("m", json) {
        Err(RuntimeError::Inference(msg)) => {
            assert!(msg.starts_with(part), "unexpected message: {msg}")
        }
        other => panic!("expected a typed `{part}` error, got {other:?}"),
    }
    assert!(!orc.has_model("m"));
    assert!(ModelBundle::from_json(json).is_err());

    orc.register_model_from_json("m", &bundle_json(&good_layers()))
        .unwrap();
    orc.store().put_dense("in", GOOD_INPUT.to_vec());
    orc.client().run_model("m", "in", "out").unwrap();
    assert_eq!(orc.store().get_dense("out").unwrap(), vec![GOOD_OUTPUT]);
}

#[test]
fn weight_buffer_shorter_than_its_dimensions_is_refused() {
    let mut layers = good_layers();
    layers[0] = layer(2, 3, "0.5", B1, "Relu");
    assert_refused(&bundle_json(&layers));
}

#[test]
fn surrogate_without_layers_is_refused() {
    assert_refused(&bundle_json(&[]));
}

#[test]
fn bias_length_other_than_the_output_width_is_refused() {
    let mut layers = good_layers();
    layers[0] = layer(2, 3, W1, "0.5,-1.0", "Relu");
    assert_refused(&bundle_json(&layers));
}

#[test]
fn adjacent_layers_that_disagree_on_width_are_refused() {
    let mut layers = good_layers();
    layers[1] = layer(2, 1, "1.0,-2.0", "0.125", "Identity");
    assert_refused(&bundle_json(&layers));
}

#[test]
fn dimensions_whose_product_overflows_are_refused() {
    // 2^40 * 2^40 wraps to 0 in 64 bits, which an empty buffer matches.
    let mut layers = good_layers();
    layers[0] = layer(1 << 40, 1 << 40, "", "", "Relu");
    assert_refused(&bundle_json(&layers));
}

/// [`good_layers`] behind a 4 → 2 → 3 → 4 autoencoder whose header
/// claims `latent_idx`, `input_dim` and `latent_dim`; `(1, 4, 2)` is the
/// truth.
fn bundle_with_autoencoder(latent_idx: u64, input_dim: u64, latent_dim: u64) -> String {
    let net = [
        layer(
            4,
            2,
            "0.5,-0.25,1.0,0.125,2.0,-1.5,0.25,0.75",
            "0.0,0.0",
            "Identity",
        ),
        layer(2, 3, W1, B1, "Tanh"),
        layer(
            3,
            4,
            "1.0,0.5,0.25,2.0,-1.0,0.5,0.125,4.0,-2.0,1.5,0.75,1.0",
            "0.0,0.0,0.0,0.0",
            "Identity",
        ),
    ];
    format!(
        r#"{{"surrogate":{{"Mlp":{{"layers":[{}]}}}},"autoencoder":{{"net":{{"layers":[{}]}},"latent_idx":{latent_idx},"input_dim":{input_dim},"latent_dim":{latent_dim}}},"scaler":null,"output_scaler":null}}"#,
        good_layers().join(","),
        net.join(",")
    )
}

#[test]
fn autoencoder_latent_index_outside_its_layers_is_refused() {
    // The truthful header loads and encodes with the first layer only.
    let bundle = ModelBundle::from_json(&bundle_with_autoencoder(1, 4, 2)).unwrap();
    let ae = bundle.autoencoder.unwrap();
    assert_eq!(ae.encode(&[1.0, 0.0, 0.0, 0.0]).unwrap(), vec![0.5, -0.25]);
    // 0 used to register and panic on the first sparse or batched
    // encode; so did 4 of 3.
    assert_refused_as(&bundle_with_autoencoder(0, 4, 2), "bad autoencoder:");
    assert_refused_as(&bundle_with_autoencoder(4, 4, 2), "bad autoencoder:");
}

#[test]
fn autoencoder_input_width_other_than_its_network_s_is_refused() {
    assert_refused_as(&bundle_with_autoencoder(1, 5, 2), "bad autoencoder:");
}

#[test]
fn autoencoder_latent_width_other_than_the_latent_layer_s_is_refused() {
    assert_refused_as(&bundle_with_autoencoder(1, 4, 3), "bad autoencoder:");
    // Layer 2 does produce 3 wide, so (2, 4, 3) is a consistent header.
    assert!(ModelBundle::from_json(&bundle_with_autoencoder(2, 4, 3)).is_ok());
}

#[test]
fn malformed_bundle_file_is_refused_by_load_and_set_model_from_file() {
    let mut layers = good_layers();
    layers[0] = layer(2, 3, "0.5", B1, "Relu");
    let dir = std::env::temp_dir().join("hpcnet-test-malformed-bundle");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("short_weights.json");
    std::fs::write(&path, bundle_json(&layers)).unwrap();
    assert!(matches!(
        ModelBundle::load(&path),
        Err(RuntimeError::Inference(msg)) if msg.starts_with("bad surrogate:")
    ));
    let orc = Orchestrator::builder().build();
    assert!(orc.set_model_from_file("m", &path).is_err());
    assert!(!orc.has_model("m"));
    let _ = std::fs::remove_file(&path);
}

/// The format is pinned on the read side: this literal has the fields
/// the derived impls of earlier commits wrote. Values are compared
/// parsed, not as strings — key order is the JSON writer's business.
#[test]
fn bundle_in_the_committed_format_loads_predicts_and_writes_back_the_same_value() {
    let json = bundle_json(&good_layers());
    let bundle = ModelBundle::from_json(&json).unwrap();
    assert_eq!(
        bundle.surrogate.predict(&GOOD_INPUT).unwrap(),
        vec![GOOD_OUTPUT]
    );
    let written: serde_json::Value = serde_json::from_str(&bundle.to_json()).unwrap();
    let literal: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert_eq!(written, literal);
}

#[test]
fn full_bundle_roundtrip_is_bit_equal() {
    let mut rng = seeded(7, "bundle-rt");
    let ae = Autoencoder::new(12, 3, &mut rng).unwrap();
    let mlp = Mlp::new(&Topology::mlp(vec![3, 5, 2]), &mut rng).unwrap();
    let latent = Matrix::from_vec(4, 3, uniform_vec(&mut rng, 12, -1.0, 1.0)).unwrap();
    let outputs = Matrix::from_vec(4, 2, uniform_vec(&mut rng, 8, -3.0, 3.0)).unwrap();
    let bundle = ModelBundle {
        surrogate: mlp.into(),
        autoencoder: Some(ae),
        scaler: Some(FeatureScaler::fit(&latent)),
        output_scaler: Some(FeatureScaler::fit(&outputs)),
    };
    let json = bundle.to_json();
    let restored = ModelBundle::from_json(&json).unwrap();
    assert_eq!(restored.to_json(), json);

    let x = uniform_vec(&mut rng, 12, -1.0, 1.0);
    let through = |b: &ModelBundle| {
        let z = b.autoencoder.as_ref().unwrap().encode(&x).unwrap();
        b.surrogate.predict(&z).unwrap()
    };
    let (want, got) = (through(&bundle), through(&restored));
    assert!(want
        .iter()
        .zip(&got)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}
