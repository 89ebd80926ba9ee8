//! The project-specific lint rules.
//!
//! Five rules: four concurrency-correctness invariants of the serving
//! stack and one memory-safety policy (see DESIGN.md §13):
//!
//! * `no-panic` — no `unwrap`/`expect`/panicking macro in non-test code
//!   of the serving crates. A panic on the serving path kills a worker or
//!   poisons a lock, stranding queued requests.
//! * `relaxed-ordering` — every `Ordering::Relaxed` must carry a
//!   `// relaxed: <invariant>` justification comment (pure counters are
//!   fine; cross-thread flags are not — the comment forces the author to
//!   say which one it is).
//! * `guard-across-blocking` — a `let`-bound lock guard must not be live
//!   across a blocking channel/I-O call (`send`, `recv`, `join`, frame
//!   I/O, …): that turns a short critical section into a convoy or a
//!   deadlock.
//! * `result-error-type` — `pub fn`s in `hpcnet-runtime`/`hpcnet-net`
//!   returning `Result` must use `RuntimeError`-convertible error types
//!   (`RuntimeError` itself or `WireError`), not `io::Result` — callers
//!   get one coherent error surface.
//! * `unsafe-safety-comment` — every `unsafe` block, fn or impl in
//!   non-test code of any scanned crate must carry a `// SAFETY: <why the
//!   requirements hold>` comment on its line or directly above it. The
//!   compiler stops checking inside `unsafe`; the comment is where the
//!   author writes down what it was checking for, next to the code that
//!   has to keep it true.
//!
//! Escape hatch: `// hpcnet-lint: allow(<rule>) -- <reason>` on the
//! offending line or the line above. An allow without a reason is itself
//! a violation (`allow-without-reason`).

use std::path::{Path, PathBuf};

use crate::lexer::{strip, FileMap};

/// A single diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `no-panic`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rules run for a given crate.
#[derive(Debug, Clone, Copy)]
pub struct RuleSet {
    /// Enforce `no-panic`.
    pub no_panic: bool,
    /// Enforce `relaxed-ordering`.
    pub relaxed_ordering: bool,
    /// Enforce `guard-across-blocking`.
    pub guard_blocking: bool,
    /// Enforce `result-error-type`.
    pub result_error_type: bool,
    /// Enforce `unsafe-safety-comment`.
    pub unsafe_safety_comment: bool,
}

impl RuleSet {
    /// The full rule set (runtime, net, cluster).
    pub fn serving() -> Self {
        RuleSet {
            no_panic: true,
            relaxed_ordering: true,
            guard_blocking: true,
            result_error_type: true,
            unsafe_safety_comment: true,
        }
    }

    /// Telemetry: everything except the error-type rule (telemetry has
    /// no `RuntimeError` dependency by design).
    pub fn telemetry() -> Self {
        RuleSet {
            result_error_type: false,
            ..Self::serving()
        }
    }

    /// Math crates (tensor, nn): the `unsafe` policy only — their
    /// non-serving code legitimately unwraps, panics on shape bugs, and
    /// returns crate-local error types.
    pub fn kernels() -> Self {
        RuleSet {
            no_panic: false,
            relaxed_ordering: false,
            guard_blocking: false,
            result_error_type: false,
            unsafe_safety_comment: true,
        }
    }
}

/// Error types accepted by `result-error-type`: `RuntimeError` itself and
/// types with a `From` conversion into it.
const CONVERTIBLE_ERRORS: &[&str] = &["RuntimeError", "WireError", "Self"];

/// Method calls that block on a channel, a thread, or a socket. Matched
/// as `.name(`; no-argument calls are matched with the closing paren so
/// `Vec::join(sep)` and `Read::read(buf)` do not collide.
const BLOCKING_CALLS: &[&str] = &[
    ".send(",
    ".try_send(",
    ".recv(",
    ".recv_timeout(",
    ".join()",
    ".flush()",
    ".write_all(",
    ".read_exact(",
    ".accept()",
    "read_frame(",
    "write_frame(",
    "sleep(",
    "TcpStream::connect",
];

/// Macros that panic.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Per-line allow annotations parsed from comments.
#[derive(Debug, Default)]
struct Allows {
    /// `(line, rule)` pairs; `line` is 0-based.
    entries: Vec<(usize, String)>,
}

impl Allows {
    fn permits(&self, line: usize, rule: &str) -> bool {
        self.entries
            .iter()
            .any(|(l, r)| *l == line && (r == rule || r == "all"))
    }
}

/// Parse `hpcnet-lint: allow(rule, rule) -- reason` annotations. The
/// allow applies to its own line and, when the line holds no code, to the
/// next line that does.
fn parse_allows(map: &FileMap, file: &Path, violations: &mut Vec<Violation>) -> Allows {
    let mut allows = Allows::default();
    for (idx, comment) in map.comments.iter().enumerate() {
        let Some(pos) = comment.find("hpcnet-lint:") else {
            continue;
        };
        let rest = &comment[pos + "hpcnet-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "allow-without-reason",
                message: "malformed hpcnet-lint annotation (expected `allow(<rule>) -- <reason>`)"
                    .to_string(),
            });
            continue;
        };
        let after = &rest[open + "allow(".len()..];
        let Some(close) = after.find(')') else {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "allow-without-reason",
                message: "unclosed hpcnet-lint allow(...)".to_string(),
            });
            continue;
        };
        let reason_ok = after[close..]
            .split_once("--")
            .map(|(_, reason)| reason.trim().len() >= 3)
            .unwrap_or(false);
        if !reason_ok {
            violations.push(Violation {
                file: file.to_path_buf(),
                line: idx + 1,
                rule: "allow-without-reason",
                message: "hpcnet-lint allow without a `-- <reason>` justification".to_string(),
            });
            continue;
        }
        let mut targets = vec![idx];
        if map.code[idx].trim().is_empty() {
            // Standalone comment line: the allow covers the next code line.
            if let Some(next) = (idx + 1..map.len()).find(|&l| !map.code[l].trim().is_empty()) {
                targets.push(next);
            }
        }
        for rule in after[..close].split(',') {
            let rule = rule.trim().to_string();
            for &t in &targets {
                allows.entries.push((t, rule.clone()));
            }
        }
    }
    allows
}

/// Mark the lines belonging to `#[cfg(test)]`-gated items.
fn test_lines(map: &FileMap) -> Vec<bool> {
    let mut in_test = vec![false; map.len()];
    let mut idx = 0;
    while idx < map.len() {
        let code = &map.code[idx];
        let is_test_attr = code.contains("#[cfg(test)]")
            || code.contains("#[cfg(all(test")
            || code.contains("#[cfg(any(test");
        if !is_test_attr {
            idx += 1;
            continue;
        }
        // Skip to the attributed item's opening brace, then brace-match.
        let mut depth = 0i64;
        let mut opened = false;
        let mut l = idx;
        while l < map.len() {
            in_test[l] = true;
            for ch in map.code[l].chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    ';' if !opened && depth == 0 => {
                        // Braceless item (e.g. `#[cfg(test)] use x;`).
                        opened = true;
                        depth = 0;
                    }
                    _ => {}
                }
            }
            if opened && depth <= 0 {
                break;
            }
            l += 1;
        }
        idx = l + 1;
    }
    in_test
}

/// Does `line` contain a call of the form `.name(` where `name` is the
/// exact method identifier?
fn has_method_call(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let before_ok = start > 0 && bytes[start - 1] == b'.';
        let after_ok = bytes.get(end).copied() == Some(b'(');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Does `line` invoke the macro `name!`?
fn has_macro(line: &str, name: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let start = from + pos;
        let end = start + name.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = bytes.get(end).copied() == Some(b'!');
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Does `line` use `word` as a standalone identifier, keyword or path
/// segment (`Relaxed` in `Ordering::Relaxed`, `unsafe` but not
/// `unsafe_code`)?
fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let after_ok = bytes.get(end).copied().map(is_ident_byte) != Some(true);
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Is there a comment containing `marker` (lowercase; matched without
/// regard to case — `relaxed:`, `safety:`) on `line` or in the contiguous
/// comment block directly above it?
fn has_marker_comment(map: &FileMap, line: usize, marker: &str) -> bool {
    if map.comments[line].to_lowercase().contains(marker) {
        return true;
    }
    let mut l = line;
    while l > 0 {
        l -= 1;
        let has_comment = !map.comments[l].trim().is_empty();
        let has_code = !map.code[l].trim().is_empty();
        if has_code || !has_comment {
            return false;
        }
        if map.comments[l].to_lowercase().contains(marker) {
            return true;
        }
    }
    false
}

/// Detect a `let`-bound lock guard: `let [mut] name = <chain>.lock();`
/// (or `.read()` / `.write()`), optionally followed by one
/// `.unwrap_or_else(..)` / `.expect(..)` adapter before the `;`.
fn guard_binding(code: &str) -> Option<String> {
    let trimmed = code.trim_start();
    let rest = trimmed.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    for pat in [".lock()", ".read()", ".write()"] {
        let Some(pos) = code.find(pat) else {
            continue;
        };
        let tail = code[pos + pat.len()..].trim();
        if tail == ";" {
            return Some(name);
        }
        // One poison adapter is allowed before the `;`. Anything after the
        // adapter's closing paren (`.get(..)`, an enclosing call's `)`)
        // means the guard is a temporary, not a live binding.
        for adapter in [".unwrap_or_else(", ".expect(", ".unwrap("] {
            if let Some(rest) = tail.strip_prefix(adapter) {
                if let Some(close) = matching_paren(rest) {
                    if rest[close + 1..].trim() == ";" {
                        return Some(name);
                    }
                }
            }
        }
    }
    None
}

/// Index of the `)` closing an already-open paren at the start of `s`.
fn matching_paren(s: &str) -> Option<usize> {
    let mut depth = 1i64;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Run every enabled rule over one file.
pub fn check_file(file: &Path, source: &str, rules: RuleSet) -> Vec<Violation> {
    let map = strip(source);
    let mut violations = Vec::new();
    let allows = parse_allows(&map, file, &mut violations);
    let tests = test_lines(&map);

    let push = |line: usize, rule: &'static str, message: String, v: &mut Vec<Violation>| {
        if !allows.permits(line, rule) {
            v.push(Violation {
                file: file.to_path_buf(),
                line: line + 1,
                rule,
                message,
            });
        }
    };

    // Active lock guards for guard-across-blocking: (name, depth at decl).
    let mut depth = 0i64;
    let mut guards: Vec<(String, i64)> = Vec::new();

    for (idx, &in_test) in tests.iter().enumerate() {
        let code = &map.code[idx];

        if !in_test && rules.no_panic {
            for name in ["unwrap", "expect"] {
                if has_method_call(code, name) {
                    push(
                        idx,
                        "no-panic",
                        format!(
                            "`.{name}()` in serving-crate non-test code; \
                             return a typed RuntimeError or recover (e.g. \
                             `unwrap_or_else(PoisonError::into_inner)`)"
                        ),
                        &mut violations,
                    );
                }
            }
            for name in PANIC_MACROS {
                if has_macro(code, name) {
                    push(
                        idx,
                        "no-panic",
                        format!("`{name}!` in serving-crate non-test code"),
                        &mut violations,
                    );
                }
            }
        }

        if !in_test
            && rules.relaxed_ordering
            && has_word(code, "Relaxed")
            && !has_marker_comment(&map, idx, "relaxed:")
        {
            push(
                idx,
                "relaxed-ordering",
                "`Ordering::Relaxed` without a `// relaxed: <invariant>` \
                 justification comment"
                    .to_string(),
                &mut violations,
            );
        }

        if !in_test
            && rules.unsafe_safety_comment
            && has_word(code, "unsafe")
            && !has_marker_comment(&map, idx, "safety:")
        {
            push(
                idx,
                "unsafe-safety-comment",
                "`unsafe` without a `// SAFETY: <why the requirements hold>` \
                 comment on the line or directly above it"
                    .to_string(),
                &mut violations,
            );
        }

        if rules.guard_blocking {
            // Guard/depth tracking always runs (it follows file structure);
            // violations are only reported for non-test code.
            for pat in BLOCKING_CALLS {
                if code.contains(pat) {
                    if let Some((name, _)) = guards.last().filter(|_| !in_test) {
                        push(
                            idx,
                            "guard-across-blocking",
                            format!(
                                "blocking call `{}` while lock guard `{name}` is live; \
                                 drop the guard (or narrow its scope) first",
                                pat.trim_matches(|c| c == '.' || c == '(')
                            ),
                            &mut violations,
                        );
                    }
                    break;
                }
            }
            if let Some(stripped) = code.trim().strip_prefix("drop(") {
                let dropped: String = stripped
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                    .collect();
                guards.retain(|(name, _)| *name != dropped);
            }
            for ch in code.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            guards.retain(|(_, d)| depth >= *d);
            if let Some(name) = guard_binding(code) {
                guards.push((name, depth));
            }
        }

        if !in_test && rules.result_error_type {
            let trimmed = code.trim_start();
            if (trimmed.starts_with("pub fn") || trimmed.starts_with("pub(crate) fn"))
                && !trimmed.starts_with("pub fn main")
            {
                // Gather the signature (possibly multi-line) up to its body.
                let mut sig = String::new();
                for l in idx..map.len().min(idx + 12) {
                    sig.push_str(map.code[l].trim());
                    sig.push(' ');
                    if map.code[l].contains('{') || map.code[l].trim_end().ends_with(';') {
                        break;
                    }
                }
                if let Some(message) = check_result_type(&sig) {
                    push(idx, "result-error-type", message, &mut violations);
                }
            }
        }
    }
    violations
}

/// Inspect a `pub fn` signature's return type. Returns a diagnostic when
/// the error type is not `RuntimeError`-convertible.
fn check_result_type(sig: &str) -> Option<String> {
    let ret = sig.split("->").nth(1)?;
    let ret = ret.split(" where ").next().unwrap_or(ret);
    let ret = ret.split('{').next().unwrap_or(ret).trim();
    // Find `Result<` as a standalone path segment.
    let bytes = ret.as_bytes();
    let mut from = 0;
    let start = loop {
        let pos = ret[from..].find("Result<")?;
        let start = from + pos;
        if start == 0 || !is_ident_byte(bytes[start - 1]) {
            break start;
        }
        from = start + 1;
    };
    let prefix = ret[..start].trim_end_matches("Result").trim_end();
    if prefix.ends_with("io::") {
        return Some(format!(
            "`pub fn` returns `{}` — map I/O errors into \
             `RuntimeError::Transport` instead",
            ret
        ));
    }
    // Extract the generic arguments and look for a top-level comma.
    let args = &ret[start + "Result<".len()..];
    let mut angle = 0i64;
    let mut top_comma = None;
    for (i, ch) in args.char_indices() {
        match ch {
            '<' | '(' | '[' => angle += 1,
            ')' | ']' => angle -= 1,
            '>' => {
                if angle == 0 {
                    break;
                }
                angle -= 1;
            }
            ',' if angle == 0 => {
                top_comma = Some(i);
                break;
            }
            _ => {}
        }
    }
    let Some(comma) = top_comma else {
        // Single-argument alias: the crate's own `Result<T>` — fine.
        return None;
    };
    let err_ty = args[comma + 1..]
        .split(['>', ','])
        .next()
        .unwrap_or("")
        .trim();
    let convertible = CONVERTIBLE_ERRORS
        .iter()
        .any(|ok| err_ty == *ok || err_ty.ends_with(&format!("::{ok}")));
    if convertible {
        None
    } else {
        Some(format!(
            "`pub fn` returns `Result<_, {err_ty}>`, which is not \
             RuntimeError-convertible; add a `From<{err_ty}> for RuntimeError` \
             impl or change the error type"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn check(src: &str, rules: RuleSet) -> Vec<Violation> {
        check_file(Path::new("test.rs"), src, rules)
    }

    #[test]
    fn no_panic_flags_unwrap_and_macros() {
        let v = check(
            "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }\n",
            RuleSet::serving(),
        );
        assert_eq!(v.iter().filter(|v| v.rule == "no-panic").count(), 3);
    }

    #[test]
    fn no_panic_skips_tests_lookalikes_and_comments() {
        let src = "\
fn ok() { x.unwrap_or_else(|p| p.into_inner()); } // .unwrap() here is fine
fn ok2() -> bool { s.contains(\"panic!\") }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { x.unwrap(); panic!(\"test code\"); }
}
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn allow_hatch_suppresses_with_reason_only() {
        let with_reason =
            "fn f() { x.expect(\"invariant\"); } // hpcnet-lint: allow(no-panic) -- startup-only path\n";
        assert!(check(with_reason, RuleSet::serving()).is_empty());

        let without_reason = "fn f() { x.expect(\"m\"); } // hpcnet-lint: allow(no-panic)\n";
        let v = check(without_reason, RuleSet::serving());
        assert!(v.iter().any(|v| v.rule == "allow-without-reason"));
        assert!(v.iter().any(|v| v.rule == "no-panic"));
    }

    #[test]
    fn standalone_allow_comment_covers_next_line() {
        let src = "\
// hpcnet-lint: allow(no-panic) -- demo topology is statically valid
fn f() { x.expect(\"demo\"); }
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn relaxed_needs_invariant_comment() {
        let bare = "fn f(a: &AtomicU64) { a.fetch_add(1, Ordering::Relaxed); }\n";
        let v = check(bare, RuleSet::telemetry());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-ordering");

        let justified = "\
fn f(a: &AtomicU64) {
    // relaxed: pure counter; nothing is published through this value.
    a.fetch_add(1, Ordering::Relaxed);
}
";
        assert!(check(justified, RuleSet::telemetry()).is_empty());
    }

    #[test]
    fn unsafe_without_a_safety_comment_is_flagged() {
        let src = "\
fn f(p: *const u8) -> u8 {
    // The pointer is fine, trust me.
    unsafe { *p }
}
unsafe fn g() {}
unsafe impl Send for T {}
";
        // Every scanned crate, the math crates included.
        for rules in [RuleSet::serving(), RuleSet::telemetry(), RuleSet::kernels()] {
            let v = check(src, rules);
            assert_eq!(v.len(), 3, "{v:?}");
            assert!(v.iter().all(|v| v.rule == "unsafe-safety-comment"));
            assert_eq!(v.iter().map(|v| v.line).collect::<Vec<_>>(), [3, 5, 6]);
        }
    }

    #[test]
    fn unsafe_with_a_safety_comment_passes() {
        let src = "\
#![deny(unsafe_op_in_unsafe_fn)]
fn f(p: &[u8]) -> u8 {
    // SAFETY: `p` is non-empty — checked by the caller's `split_first` —
    // so index 0 is in bounds.
    unsafe { *p.get_unchecked(0) }
}
fn g() {
    let x = unsafe { h() }; // SAFETY: `h` has no requirements on this target.
}
// SAFETY: `T` owns nothing thread-bound.
unsafe impl Send for T {}
// hpcnet-lint: allow(unsafe-safety-comment) -- the contract is in the `# Safety` doc section
unsafe fn k() {}
fn not_the_keyword() { let unsafe_count = \"unsafe\"; } // unsafe in a comment
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn unsafe_in_test_modules_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { unsafe { poke() } }
}
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn guard_across_blocking_flags_send_under_lock() {
        let src = "\
fn f() {
    let guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
    tx.send(job);
}
";
        let v = check(src, RuleSet::serving());
        assert_eq!(
            v.iter()
                .filter(|v| v.rule == "guard-across-blocking")
                .count(),
            1
        );
    }

    #[test]
    fn guard_dropped_or_scoped_is_fine() {
        let src = "\
fn f() {
    {
        let guard = self.state.lock().unwrap_or_else(|p| p.into_inner());
        guard.push(1);
    }
    tx.send(job);
    let g2 = self.state.lock().unwrap_or_else(|p| p.into_inner());
    drop(g2);
    tx.send(job2);
}
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn chained_lock_expression_is_not_a_guard() {
        let src = "\
fn f() {
    let entry = self.registry.read().get(key).cloned();
    tx.send(entry);
}
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn mem_take_of_locked_contents_is_not_a_guard() {
        let src = "\
fn f() {
    let joiners = std::mem::take(&mut *self.joiners.lock().unwrap_or_else(|p| p.into_inner()));
    for j in joiners {
        let _ = j.join();
    }
}
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn result_error_type_flags_io_result() {
        let src = "pub fn serve(&self) -> std::io::Result<Server> { body() }\n";
        let v = check(src, RuleSet::serving());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "result-error-type");
    }

    #[test]
    fn result_error_type_accepts_convertible_errors() {
        let src = "\
pub fn a() -> Result<Frame, WireError> { body() }
pub fn b(&self) -> Result<NetServer> { body() }
pub fn c(&self) -> Result<Vec<f64>, RuntimeError> { body() }
fn private() -> std::io::Result<()> { body() }
";
        assert!(check(src, RuleSet::serving()).is_empty());
    }

    #[test]
    fn result_error_type_flags_foreign_error() {
        let src = "pub fn parse(&self) -> Result<Config, serde_json::Error> { body() }\n";
        let v = check(src, RuleSet::serving());
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("serde_json::Error"));
    }
}
