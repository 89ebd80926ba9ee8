//! `hpcnet-benchmark`: one process per workload and run.
//!
//! ```text
//! hpcnet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hpcnet-benchmark --aa <sets> [--runs <r>] [--seconds <s>] [--workload <name>]
//! ```
//!
//! The last line of standard output is the result object.

use std::process::ExitCode;

use hpcnet_benchmark::aa::{self, AaOptions};
use hpcnet_benchmark::report::{end_to_end, Options};
use hpcnet_benchmark::serve::Limit;
use hpcnet_benchmark::{layers, spec};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    aa: Option<usize>,
    runs: usize,
    /// Fixed pass count instead of `--seconds` (tests).
    passes: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        aa: None,
        runs: 5,
        passes: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--aa" => args.aa = Some(number()? as usize),
            "--runs" => args.runs = number()? as usize,
            "--passes" => args.passes = Some(number()? as usize),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse()?;
    if let Some(sets) = args.aa {
        if sets < 2 || args.runs < 2 {
            return Err("--aa needs at least 2 sets of at least 2 runs".to_string());
        }
        return aa::run(&AaOptions {
            sets,
            runs: args.runs,
            seconds: args.seconds,
            workload: args.workload,
        });
    }
    let name = args.workload.ok_or("--workload is required")?;
    match hpcnet_benchmark::stats::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("not pinned: CPU affinity is unavailable here"),
    }
    let spec = spec::find(&name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let options = Options {
        seed: args.seed,
        limit: match args.passes {
            Some(n) => Limit::Passes(n.max(1)),
            None => Limit::Seconds(args.seconds as f64),
        },
        setup_reps: None,
        // The driver runs the command from the root of the checkout.
        out_dir: std::path::Path::new("perfbench").join("out"),
    };
    let outcome = if args.trace {
        layers::traced(spec, &options)?
    } else {
        end_to_end(spec, &options)?
    };
    outcome.print();
    Ok(outcome.correct())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("hpcnet-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
