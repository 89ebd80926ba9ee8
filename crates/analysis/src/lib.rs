//! `hpcnet-analysis`: the workspace's custom lint driver.
//!
//! The serving stack (`hpcnet-runtime`, `hpcnet-net`, `hpcnet-telemetry`)
//! is deeply concurrent: worker pools over a bounded queue, a lock-free
//! telemetry registry, a multi-threaded TCP server. Generic tooling
//! cannot enforce the project-specific invariants that keep it correct —
//! this driver does. It also holds every scanned crate, the math crates
//! `hpcnet-tensor`/`hpcnet-nn` included, to "no `unsafe` without a
//! `// SAFETY:` comment". See [`rules`] for the rule catalogue and
//! DESIGN.md §13 for the policy discussion.
//!
//! Run it with `cargo run -p hpcnet-analysis`; it prints `file:line:`
//! diagnostics and exits non-zero when any rule fires.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod lexer;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::{RuleSet, Violation};

/// The crates scanned, with the rule set applied to each.
pub fn scanned_crates() -> Vec<(&'static str, RuleSet)> {
    vec![
        ("runtime", RuleSet::serving()),
        ("net", RuleSet::serving()),
        ("cluster", RuleSet::serving()),
        ("telemetry", RuleSet::telemetry()),
        // Online retraining sits below the runtime's error surface and
        // returns `hpcnet-nn` error types by design, so the
        // `result-error-type` rule does not apply to it.
        (
            "online",
            RuleSet {
                result_error_type: false,
                ..RuleSet::serving()
            },
        ),
        // Math crates: the `unsafe` policy.
        ("tensor", RuleSet::kernels()),
        ("nn", RuleSet::kernels()),
    ]
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scan the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`). Returns every violation, plus the number of
/// files scanned.
pub fn scan_workspace(root: &Path) -> std::io::Result<(Vec<Violation>, usize)> {
    let mut violations = Vec::new();
    let mut scanned = 0usize;
    for (krate, rules) in scanned_crates() {
        let src = root.join("crates").join(krate).join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files)?;
        for file in files {
            let source = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            violations.extend(rules::check_file(&rel, &source, rules));
            scanned += 1;
        }
    }
    Ok((violations, scanned))
}
