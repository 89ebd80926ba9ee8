//! The checkpoint JSON of the dense stack. `Matrix`, `Dense` and `Mlp` are
//! aliases of generic types and carry hand-written serde impls (DESIGN.md
//! §14.1): these tests pin the format those impls read and write to the
//! one the derived impls of earlier commits produced, and check that
//! reading goes through the validating constructors — for the types
//! themselves and for the ones that embed them.

use hpcnet_nn::conv::{Cnn, CnnTopology};
use hpcnet_nn::{Activation, Autoencoder, Mlp, SurrogateNet, Topology};
use hpcnet_tensor::rng::{seeded, uniform_vec};

/// A 2 → 3 → 1 net with dyadic weights (outputs are exact), as the
/// derived impls wrote it.
const MLP_JSON: &str = r#"{"layers":[
    {"w":{"rows":2,"cols":3,"data":[0.5,-0.25,1.0,0.125,2.0,-1.5]},"b":[0.5,-1.0,0.25],"act":"LeakyRelu"},
    {"w":{"rows":3,"cols":1,"data":[1.0,-2.0,0.75]},"b":[0.125],"act":"Identity"}]}"#;

#[test]
fn mlp_in_the_committed_format_loads_predicts_and_writes_back_the_same_value() {
    let mlp = Mlp::from_json(MLP_JSON).unwrap();
    assert_eq!(mlp.topology().widths, vec![2, 3, 1]);
    assert_eq!(mlp.layers()[0].activation(), Activation::LeakyRelu);
    // [1, 2] -> leaky_relu([1.25, 2.75, -1.75]) = [1.25, 2.75, -0.0175]
    // -> 1.25 - 5.5 - 0.0175 * 0.75 + 0.125.
    let want = 1.25 - 5.5 + (-1.75 * 0.01) * 0.75 + 0.125;
    assert_eq!(mlp.predict(&[1.0, 2.0]).unwrap(), vec![want]);
    // Compared as parsed values: key order is the JSON writer's business.
    let written: serde_json::Value = serde_json::from_str(&mlp.to_json()).unwrap();
    let literal: serde_json::Value = serde_json::from_str(MLP_JSON).unwrap();
    assert_eq!(written, literal);
}

#[test]
fn roundtrips_are_bit_equal() {
    let mut rng = seeded(11, "json-format");
    let mlp = Mlp::new(&Topology::mlp(vec![4, 6, 2]), &mut rng).unwrap();
    assert_eq!(Mlp::from_json(&mlp.to_json()).unwrap(), mlp);

    let net = SurrogateNet::from(mlp);
    let restored = SurrogateNet::from_json(&net.to_json()).unwrap();
    assert_eq!(restored, net);
    assert_eq!(restored.to_json(), net.to_json());

    let ae = Autoencoder::new(10, 3, &mut rng).unwrap();
    let restored = Autoencoder::from_json(&ae.to_json()).unwrap();
    assert_eq!(restored.to_json(), ae.to_json());
    let x = uniform_vec(&mut rng, 10, -1.0, 1.0);
    let (want, got) = (ae.encode(&x).unwrap(), restored.encode(&x).unwrap());
    assert!(want
        .iter()
        .zip(&got)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
}

/// `MLP_JSON` with one substring replaced.
fn broken(from: &str, to: &str) -> String {
    assert!(MLP_JSON.contains(from));
    MLP_JSON.replacen(from, to, 1)
}

#[test]
fn malformed_models_are_refused_where_they_are_read() {
    let cases = [
        (
            "weight buffer shorter than rows * cols",
            broken("[0.5,-0.25,1.0,0.125,2.0,-1.5]", "[0.5]"),
        ),
        (
            "bias length differs from the output width",
            broken("[0.5,-1.0,0.25]", "[0.5,-1.0]"),
        ),
        (
            "adjacent layers disagree on width",
            broken(
                r#""rows":3,"cols":1,"data":[1.0,-2.0,0.75]"#,
                r#""rows":2,"cols":1,"data":[1.0,-2.0]"#,
            ),
        ),
        (
            "rows * cols overflows",
            broken(
                r#""rows":2,"cols":3,"data":[0.5,-0.25,1.0,0.125,2.0,-1.5]},"b":[0.5,-1.0,0.25]"#,
                r#""rows":1099511627776,"cols":1099511627776,"data":[]},"b":[]"#,
            ),
        ),
        ("no layers", r#"{"layers":[]}"#.to_string()),
    ];
    for (what, json) in &cases {
        assert!(Mlp::from_json(json).is_err(), "{what}: Mlp");
        // The types that embed an `Mlp` inherit the checks.
        let net = format!(r#"{{"Mlp":{json}}}"#);
        assert!(
            SurrogateNet::from_json(&net).is_err(),
            "{what}: SurrogateNet"
        );
        let ae = format!(r#"{{"net":{json},"latent_idx":1,"input_dim":2,"latent_dim":3}}"#);
        assert!(Autoencoder::from_json(&ae).is_err(), "{what}: Autoencoder");
    }
}

#[test]
fn cnn_with_a_malformed_head_is_refused() {
    let topo = CnnTopology {
        input_len: 8,
        output_dim: 2,
        channels: vec![2],
        kernel: 3,
        pool: 1,
        head_width: 4,
        act: Activation::Tanh,
    };
    let cnn = Cnn::new(&topo, &mut seeded(12, "json-cnn")).unwrap();
    let json = cnn.to_json();
    assert_eq!(Cnn::from_json(&json).unwrap(), cnn);
    // The head's first weight matrix is 16 x 4; claim one more column.
    let lie = json.replacen(r#""cols":4"#, r#""cols":5"#, 1);
    assert_ne!(lie, json);
    assert!(Cnn::from_json(&lie).is_err());
}
