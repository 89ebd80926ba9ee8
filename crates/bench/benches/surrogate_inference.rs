//! Criterion benches of the surrogate online path: encoder + MLP
//! inference, dense and sparse, at the sizes the applications use —
//! the denominators of the paper's speedups. The serving path itself is
//! measured by the repository benchmark (`BENCHMARK.json`, `perfbench/`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hpcnet_nn::{Autoencoder, Mlp, Topology};
use hpcnet_tensor::rng::{random_sparse_csr, seeded, uniform_vec};
use std::hint::black_box;

fn bench_mlp_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlp_predict");
    for &(input, hidden, output) in &[(16usize, 32usize, 8usize), (64, 64, 64), (256, 128, 256)] {
        let mut rng = seeded(1, "bench-mlp");
        let mlp = Mlp::new(&Topology::mlp(vec![input, hidden, output]), &mut rng).unwrap();
        let x = uniform_vec(&mut rng, input, -1.0, 1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{input}x{hidden}x{output}")),
            &x,
            |b, x| b.iter(|| black_box(mlp.predict(black_box(x)).unwrap())),
        );
    }
    group.finish();
}

fn bench_encoder_paths(c: &mut Criterion) {
    // The CG-scale sparse input: 2352-wide with ~10% density.
    let d = 2352;
    let mut rng = seeded(2, "bench-enc");
    let ae = Autoencoder::new(d, 16, &mut rng).unwrap();
    let sparse = random_sparse_csr(&mut rng, 1, d, 0.10);
    let dense = sparse.to_dense_vector();

    let mut group = c.benchmark_group("encoder");
    group.bench_function("dense_encode_2352", |b| {
        b.iter(|| black_box(ae.encode(black_box(&dense)).unwrap()))
    });
    group.bench_function("sparse_encode_2352", |b| {
        b.iter(|| black_box(ae.encode_sparse(black_box(&sparse)).unwrap()))
    });
    group.finish();
}

fn bench_cnn_inference(c: &mut Criterion) {
    use hpcnet_nn::conv::{Cnn, CnnTopology};
    let mut group = c.benchmark_group("cnn_predict");
    for &(len, channels) in &[(64usize, 4usize), (256, 8)] {
        let mut rng = seeded(3, "bench-cnn");
        let topo = CnnTopology {
            input_len: len,
            output_dim: len,
            channels: vec![channels, channels],
            kernel: 3,
            pool: 2,
            head_width: 32,
            act: hpcnet_nn::Activation::Tanh,
        };
        let cnn = Cnn::new(&topo, &mut rng).unwrap();
        let x = uniform_vec(&mut rng, len, -1.0, 1.0);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("len{len}_ch{channels}")),
            &x,
            |b, x| b.iter(|| black_box(cnn.predict(black_box(x)).unwrap())),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mlp_inference,
    bench_encoder_paths,
    bench_cnn_inference
);
criterion_main!(benches);
