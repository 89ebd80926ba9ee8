//! Text-annotated kernel: write the region as plain text (the analog of
//! the paper's two source directives), and let the framework do the rest —
//! parse, trace, identify I/O, sample, search, deploy.
//!
//! ```text
//! cargo run --release -p auto-hpcnet --example text_kernel
//! ```

use auto_hpcnet::config::PipelineConfig;
use auto_hpcnet::pipeline::AutoHpcnet;
use hpcnet_runtime::ClientApi;
use hpcnet_trace::{parse_program, Interpreter, PerturbSpec};

/// A damped-oscillator integrator: the region advances the state (x, v)
/// through `steps` explicit-Euler steps; the post-region code consumes
/// the final position.
const KERNEL: &str = r#"
    # integrate a damped harmonic oscillator
    region {
        for t in 0..steps {
            a = 0.0 - k * x - c * v
            v = v + dt * a
            x = x + dt * v
        }
    }
    post {
        final_position = x
    }
    live_out final_position, x, v
"#;

fn main() {
    let program = parse_program(KERNEL).expect("kernel parses");
    let setup = |it: &mut Interpreter| {
        it.set_scalar("steps", 50.0);
        it.set_scalar("dt", 0.02);
        it.set_scalar("k", 4.0);
        it.set_scalar("c", 0.4);
        it.set_scalar("x", 1.0);
        it.set_scalar("v", 0.0);
    };

    let mut cfg = PipelineConfig::quick();
    cfg.mu = 0.10;
    cfg.search.k_bounds = (2, 6);
    let framework = AutoHpcnet::new(cfg);
    println!("building a surrogate for the text kernel ...");
    let (surrogate, signature) = framework
        .build_surrogate_from_ir(
            &program,
            setup,
            PerturbSpec {
                mean: 0.0,
                std: 0.08,
            },
            &["steps", "dt"], // never perturb discretization knobs
        )
        .expect("pipeline succeeds");

    println!("identified signature:");
    for f in &signature.inputs {
        println!("  input  {}", f.name);
    }
    for f in &signature.outputs {
        println!("  output {}", f.name);
    }
    println!(
        "selected K = {} of {}, topology {:?}, f_e = {:.4}",
        surrogate.k,
        signature.input_width(),
        surrogate.topology.widths,
        surrogate.f_e
    );

    // Sanity: compare the surrogate against the real integrator on a
    // fresh input ordering follows the signature (sorted by name).
    let mut it = Interpreter::new();
    setup(&mut it);
    it.set_scalar("x", 0.8);
    it.set_scalar("v", 0.3);
    let raw: Vec<f64> = signature
        .inputs
        .iter()
        .map(|f| it.scalar(&f.name).expect("scalar input"))
        .collect();
    it.run(&program).expect("exact run");
    let exact: Vec<f64> = signature
        .outputs
        .iter()
        .map(|f| it.scalar(&f.name).expect("scalar output"))
        .collect();
    let predicted = surrogate.predict(&raw).expect("surrogate runs");
    println!("\n{:<16} {:>12} {:>12}", "output", "exact", "surrogate");
    for ((f, e), p) in signature.outputs.iter().zip(&exact).zip(&predicted) {
        println!("{:<16} {:>12.5} {:>12.5}", f.name, e, p);
    }

    // Deploy and serve one request under a per-request deadline, then
    // drain the orchestrator gracefully.
    let orc = hpcnet_runtime::Orchestrator::builder()
        .store(hpcnet_runtime::TensorStore::new())
        .build();
    surrogate.deploy(&orc, "oscillator-net");
    let client = orc.client();
    client.put_tensor("osc_in", &raw).expect("valid key");
    client
        .run_model_with_deadline(
            "oscillator-net",
            "osc_in",
            "osc_out",
            std::time::Duration::from_secs(1),
        )
        .expect("inference within the deadline");
    let served = client.unpack_tensor("osc_out").expect("output present");
    assert_eq!(served, predicted);
    let stats = orc.shutdown();
    println!(
        "\nserved through the orchestrator under a 1s deadline ({} request, {} deadline miss)",
        stats.requests, stats.deadline_expired
    );
}
