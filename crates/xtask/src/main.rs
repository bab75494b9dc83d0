//! Workspace static analysis, wired up as `cargo lint` (see
//! `.cargo/config.toml`).
//!
//! `cargo lint` walks every first-party Rust source file (the umbrella
//! crate plus `crates/*`; `vendor/` and `target/` are never visited) and
//! enforces the concurrency-hygiene rules the verification layer depends
//! on:
//!
//! 1. **facade**: no direct `std::sync::atomic` / `core::sync::atomic` /
//!    `std::thread` paths outside `crates/sync` — all atomics and thread
//!    spawns go through the `wfqueue_sync` facade, so
//!    `cargo test --features model` really intercepts every shared-memory
//!    access. Without this rule the facade rots silently: one raw import
//!    and the model checker is blind to that access.
//! 2. **safety**: every `unsafe` block/impl carries an adjacent
//!    `// SAFETY:` comment, and every `unsafe fn` documents its contract
//!    (`# Safety` doc section or an adjacent `// SAFETY:`).
//! 3. **ordering**: every `Ordering::SeqCst` *use* outside `crates/sync`
//!    carries an adjacent `// ORDERING:` justification. SeqCst is the
//!    most expensive ordering on every architecture; the ROADMAP's
//!    relaxation work (items 2–4) starts from these justifications.
//!    `crates/sync` itself is exempt: the facade matches on all orderings
//!    and the model's litmus tests/protocol replicas use SeqCst *as the
//!    subject under test*.
//! 4. **allow**: every `#[allow(...)]` / `#![allow(...)]` states a
//!    `reason = "..."` — un-reasoned suppressions are how lint debt
//!    becomes invisible.
//! 5. **park**: no `Condvar` outside `crates/channel/src/wait.rs` and
//!    `crates/sync` — every thread sleep goes through `Signal`'s
//!    `wait_until`, the one park handshake the model checker covers
//!    (`signal_scenario`). A second hand-rolled condvar wait is a second
//!    lost-wakeup argument nobody has checked.
//!
//! Comments and string literals are stripped before matching, so prose,
//! doc examples (doctests live inside doc *comments*), and log messages
//! never trip the rules. The lint is a tripwire, not a compiler: it
//! checks literal paths/tokens, which is exactly the level at which the
//! facade contract and comment conventions live.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = match args.get(1).map(String::as_str) {
                Some("--root") => PathBuf::from(args.get(2).expect("--root takes a path")),
                _ => workspace_root(),
            };
            let violations = lint_workspace(&root);
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                println!("cargo lint: clean");
                ExitCode::SUCCESS
            } else {
                println!("cargo lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!("usage: cargo lint   (alias for: cargo run -p xtask -- lint [--root DIR])");
            ExitCode::FAILURE
        }
    }
}

/// The workspace root, resolved from this crate's own manifest directory
/// (`crates/xtask` → two levels up) so the binary works from any cwd.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

/// One rule violation: file, 1-based line, rule id, message.
#[derive(Debug)]
struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
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

/// Lints the first-party source roots under `root`.
fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut files = Vec::new();
    for top in ["src", "tests", "examples", "benches"] {
        collect_rs(&root.join(top), &mut files);
    }
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            let p = entry.path();
            if p.is_dir() {
                for sub in ["src", "tests", "examples", "benches"] {
                    collect_rs(&p.join(sub), &mut files);
                }
            }
        }
    }
    files.sort();
    let mut violations = Vec::new();
    for f in &files {
        let Ok(text) = std::fs::read_to_string(f) else {
            continue;
        };
        let rel = f.strip_prefix(root).unwrap_or(f).to_path_buf();
        lint_file(&rel, &text, &mut violations);
    }
    violations
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Is this path inside the facade crate (exempt from the facade and
/// ordering rules)?
fn in_sync_crate(rel: &Path) -> bool {
    rel.starts_with("crates/sync")
}

fn lint_file(rel: &Path, text: &str, out: &mut Vec<Violation>) {
    let original: Vec<&str> = text.lines().collect();
    let stripped_text = strip_comments_and_strings(text);
    let stripped: Vec<&str> = stripped_text.lines().collect();

    check_facade(rel, &stripped, out);
    check_unsafe(rel, &original, &stripped, out);
    check_ordering(rel, &original, &stripped, out);
    check_allow(rel, &original, &stripped, out);
    check_park(rel, &stripped, out);
}

// ---------------------------------------------------------------------------
// Rule 1: facade
// ---------------------------------------------------------------------------

fn check_facade(rel: &Path, stripped: &[&str], out: &mut Vec<Violation>) {
    if in_sync_crate(rel) {
        return;
    }
    // Literal paths, checked post-stripping so doc examples and strings
    // are exempt. `concat!` keeps this file from flagging itself.
    let raw_atomic = concat!("std::sync::", "atomic");
    let raw_core_atomic = concat!("core::sync::", "atomic");
    let raw_thread = concat!("std::", "thread");
    for (i, line) in stripped.iter().enumerate() {
        for pat in [raw_atomic, raw_core_atomic, raw_thread] {
            if line.contains(pat) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: i + 1,
                    rule: "facade",
                    message: format!(
                        "raw `{pat}` outside crates/sync — use the `wfqueue_sync` facade \
                         so the model checker intercepts this access"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: safety comments
// ---------------------------------------------------------------------------

/// Lines of context searched above an `unsafe` for its `// SAFETY:`.
const SAFETY_WINDOW: usize = 6;

fn check_unsafe(rel: &Path, original: &[&str], stripped: &[&str], out: &mut Vec<Violation>) {
    for (i, line) in stripped.iter().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        // `unsafe fn` contracts may live in the doc block instead of an
        // adjacent comment: scan the contiguous doc/attribute block above.
        let is_fn_decl = line.contains("unsafe fn")
            || (line.contains("unsafe") && line.contains("fn ") && !line.contains("unsafe {"));
        let mut ok = false;
        let lo = i.saturating_sub(SAFETY_WINDOW);
        for orig in &original[lo..=i.min(original.len().saturating_sub(1))] {
            if orig.contains("SAFETY:") {
                ok = true;
                break;
            }
        }
        if !ok && is_fn_decl {
            // Walk the doc-comment/attribute block directly above the fn.
            let mut j = i;
            while j > 0 {
                j -= 1;
                let t = original[j].trim_start();
                if t.starts_with("///")
                    || t.starts_with("//!")
                    || t.starts_with("#[")
                    || t.starts_with("//")
                    || t.is_empty()
                {
                    if t.contains("# Safety") {
                        ok = true;
                        break;
                    }
                } else {
                    break;
                }
            }
        }
        if !ok {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: "safety",
                message: "`unsafe` without an adjacent `// SAFETY:` comment (or `# Safety` \
                          doc section for an `unsafe fn`)"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: SeqCst justifications
// ---------------------------------------------------------------------------

/// Lines of context searched above a `SeqCst` for its `// ORDERING:`.
/// Six lines: one comment above a rustfmt-split `compare_exchange(..,
/// SeqCst, SeqCst, ..)` call still covers the failure ordering on the
/// call's last line.
const ORDERING_WINDOW: usize = 6;

fn check_ordering(rel: &Path, original: &[&str], stripped: &[&str], out: &mut Vec<Violation>) {
    if in_sync_crate(rel) {
        return;
    }
    for (i, line) in stripped.iter().enumerate() {
        if !line.contains("SeqCst") {
            continue;
        }
        let lo = i.saturating_sub(ORDERING_WINDOW);
        let ok = original[lo..=i.min(original.len().saturating_sub(1))]
            .iter()
            .any(|l| l.contains("ORDERING:"));
        if !ok {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: "ordering",
                message: "`SeqCst` without an adjacent `// ORDERING:` justification \
                          (or downgrade the ordering if SC is not required)"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: reasoned allows
// ---------------------------------------------------------------------------

fn check_allow(rel: &Path, original: &[&str], stripped: &[&str], out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < stripped.len() {
        let line = stripped[i];
        if let Some(pos) = line.find("[allow(") {
            // Accumulate the attribute across lines until brackets balance.
            let mut depth = 0usize;
            let mut attr = String::new();
            let mut j = i;
            let mut col = pos;
            'outer: while j < stripped.len() {
                for c in stripped[j][col..].chars() {
                    attr.push(c);
                    match c {
                        '[' | '(' => depth += 1,
                        ']' | ')' => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break 'outer;
                            }
                        }
                        _ => {}
                    }
                }
                attr.push('\n');
                j += 1;
                col = 0;
            }
            // `reason` lives in a string literal, which stripping blanked
            // out — so check the original text of the same span.
            let has_reason = original[i..=j.min(original.len() - 1)]
                .iter()
                .any(|l| l.contains("reason"));
            if !has_reason {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: i + 1,
                    rule: "allow",
                    message: "`#[allow(...)]` without a `reason = \"...\"`".to_string(),
                });
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: one park handshake
// ---------------------------------------------------------------------------

fn check_park(rel: &Path, stripped: &[&str], out: &mut Vec<Violation>) {
    if in_sync_crate(rel) || rel == Path::new("crates/channel/src/wait.rs") {
        return;
    }
    // `concat!` keeps this file from flagging itself.
    let condvar = concat!("Cond", "var");
    for (i, line) in stripped.iter().enumerate() {
        if has_word(line, condvar) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: i + 1,
                rule: "park",
                message: format!(
                    "`{condvar}` outside crates/channel/src/wait.rs — park through \
                     `Signal::wait_until`, whose handshake the model checker covers"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

fn has_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let b = start + pos;
        let e = b + word.len();
        let before_ok = b == 0 || !(bytes[b - 1].is_ascii_alphanumeric() || bytes[b - 1] == b'_');
        let after_ok = e >= bytes.len() || !(bytes[e].is_ascii_alphanumeric() || bytes[e] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = e;
    }
    false
}

/// Replaces comments, string literals, char literals, and raw strings
/// with spaces, preserving line structure, so rule matching never fires
/// on prose or literals (doc comments — and the doctests inside them —
/// are comments and vanish too).
fn strip_comments_and_strings(text: &str) -> String {
    #[derive(PartialEq)]
    enum St {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
        Char,
    }
    let mut out = String::with_capacity(text.len());
    let mut st = St::Code;
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match st {
            St::Code => match c {
                '/' if next == Some('/') => {
                    st = St::LineComment;
                    out.push(' ');
                }
                '/' if next == Some('*') => {
                    st = St::BlockComment(1);
                    out.push(' ');
                }
                '"' => {
                    st = St::Str;
                    out.push(' ');
                }
                'r' if next == Some('"') || next == Some('#') => {
                    // Possible raw string: count hashes.
                    let mut k = i + 1;
                    let mut hashes = 0;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    if chars.get(k) == Some(&'"') {
                        st = St::RawStr(hashes);
                        for _ in i..=k {
                            out.push(' ');
                        }
                        i = k;
                    } else {
                        out.push(c);
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a lifetime has no closing
                    // quote within a couple of chars (`'a`, `'static`).
                    let close =
                        chars.get(i + 2) == Some(&'\'') || (chars.get(i + 1) == Some(&'\\'));
                    if close {
                        st = St::Char;
                        out.push(' ');
                    } else {
                        out.push(c);
                    }
                }
                _ => out.push(c),
            },
            St::LineComment => {
                if c == '\n' {
                    st = St::Code;
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::BlockComment(depth) => {
                if c == '/' && next == Some('*') {
                    st = St::BlockComment(depth + 1);
                    out.push_str("  ");
                    i += 1;
                } else if c == '*' && next == Some('/') {
                    st = if depth == 1 {
                        St::Code
                    } else {
                        St::BlockComment(depth - 1)
                    };
                    out.push_str("  ");
                    i += 1;
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Str => {
                if c == '\\' {
                    out.push(' ');
                    if let Some(n) = next {
                        // An escaped newline (string continuation) must
                        // still emit its newline: line numbers stay true.
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                } else if c == '"' {
                    st = St::Code;
                    out.push(' ');
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::RawStr(hashes) => {
                if c == '"' {
                    // Check for closing hashes.
                    let mut k = i + 1;
                    let mut n = 0;
                    while n < hashes && chars.get(k) == Some(&'#') {
                        n += 1;
                        k += 1;
                    }
                    if n == hashes {
                        for _ in i..k {
                            out.push(' ');
                        }
                        i = k - 1;
                        st = St::Code;
                    } else {
                        out.push(' ');
                    }
                } else if c == '\n' {
                    out.push('\n');
                } else {
                    out.push(' ');
                }
            }
            St::Char => {
                if c == '\\' {
                    out.push(' ');
                    if let Some(n) = next {
                        out.push(if n == '\n' { '\n' } else { ' ' });
                        i += 1;
                    }
                } else if c == '\'' {
                    st = St::Code;
                    out.push(' ');
                } else if c == '\n' {
                    // Unterminated char (was a lifetime after all).
                    out.push('\n');
                    st = St::Code;
                } else {
                    out.push(' ');
                }
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(name: &str, text: &str) -> Vec<Violation> {
        let mut v = Vec::new();
        lint_file(Path::new(name), text, &mut v);
        v
    }

    #[test]
    fn stripping_preserves_lines_and_blanks_content() {
        let s = strip_comments_and_strings(
            "let x = \"std::sync::atomic\"; // std::sync::atomic\nlet y = 1;\n",
        );
        assert!(!s.contains("atomic"));
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("let y = 1;"));
    }

    #[test]
    fn facade_violation_detected_and_sync_crate_exempt() {
        let bad = "use std::sync::atomic::AtomicUsize;\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "facade");
        assert!(lint_str("crates/sync/src/atomic.rs", bad).is_empty());
    }

    #[test]
    fn facade_ignores_comments_and_doctests() {
        let ok = "/// ```\n/// use std::sync::atomic::AtomicUsize;\n/// ```\nfn f() {}\n";
        assert!(lint_str("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn undocumented_unsafe_detected() {
        let bad = "fn f() {\n    unsafe { g() }\n}\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "safety");
        let ok = "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n";
        assert!(lint_str("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn unsafe_fn_doc_contract_accepted() {
        let ok = "/// Does things.\n///\n/// # Safety\n///\n/// Caller must uphold X.\n\
                  pub unsafe fn f() {}\n";
        assert!(lint_str("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn unjustified_seqcst_detected_and_sync_crate_exempt() {
        let bad = "fn f(x: &AtomicUsize) { x.load(Ordering::SeqCst); }\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "ordering");
        assert!(lint_str("crates/sync/src/model/mod.rs", bad).is_empty());
        let ok = "// ORDERING: Dekker handshake, see module docs.\n\
                  fn f(x: &AtomicUsize) { x.load(Ordering::SeqCst); }\n";
        assert!(lint_str("crates/core/src/x.rs", ok).is_empty());
    }

    #[test]
    fn unreasoned_allow_detected() {
        let bad = "#[allow(dead_code)]\nfn f() {}\n";
        let v = lint_str("crates/core/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "allow");
        let ok = "#[allow(dead_code, reason = \"exercised behind a feature gate\")]\nfn f() {}\n";
        assert!(lint_str("crates/core/src/x.rs", ok).is_empty());
        let multiline =
            "#[allow(\n    clippy::cast_possible_truncation,\n    reason = \"u16 bound\"\n)]\nfn f() {}\n";
        assert!(lint_str("crates/core/src/x.rs", multiline).is_empty());
    }

    #[test]
    fn condvar_outside_signal_detected() {
        let bad = "use std::sync::{Condvar, Mutex};\n";
        let v = lint_str("crates/executor/src/x.rs", bad);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "park");
        assert!(lint_str("crates/channel/src/wait.rs", bad).is_empty());
        assert!(lint_str("crates/sync/src/model/sync.rs", bad).is_empty());
        // A longer identifier is not the type.
        assert!(lint_str("crates/core/src/x.rs", "struct CondvarFree;\n").is_empty());
    }

    /// The committed fixture must keep tripping every rule — this is the
    /// "lint fails on a violating input" acceptance check.
    #[test]
    fn violating_fixture_trips_every_rule() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/violations.rs");
        let text = std::fs::read_to_string(&fixture).expect("fixture present");
        let v = lint_str("crates/core/src/violations.rs", &text);
        for rule in ["facade", "safety", "ordering", "allow", "park"] {
            assert!(
                v.iter().any(|x| x.rule == rule),
                "fixture no longer trips rule {rule}: {v:?}"
            );
        }
    }

    /// The tree itself must be clean — the same check `cargo lint` runs
    /// in CI, kept here so a plain `cargo test` catches regressions too.
    #[test]
    fn workspace_is_clean() {
        let v = lint_workspace(&workspace_root());
        assert!(
            v.is_empty(),
            "workspace has lint violations:\n{}",
            v.iter().map(|x| format!("  {x}\n")).collect::<String>()
        );
    }
}
