//! The source lint: a line-oriented scanner enforcing the repo's
//! concurrency-hygiene rules over the checked crates. No rustc plugin,
//! no syn — just the conventions below, cheap enough to run on every CI
//! push and deterministic enough to gate on.
//!
//! Rules (scopes are path prefixes under the workspace root):
//!
//! * **ordering-justification** — every line using an explicit
//!   `Ordering::` in `crates/{telemetry,mpsim}/src` must carry a
//!   `// ordering:` justification on the same line or within the two
//!   preceding lines. Orderings are load-bearing; an unjustified one is
//!   indistinguishable from a guessed one.
//! * **no-panic-path** — no `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` in `crates/telemetry/src` or
//!   `crates/mpsim/src/flight.rs`: the serving and flight planes must
//!   degrade, not abort. Escape hatch for designed
//!   invariants: `// lint: allow-panic` (same line or two above).
//! * **no-raw-atomics** — no `std::sync::atomic` mention in the checked
//!   crates outside a `sync.rs` façade module, so every atomic compiles
//!   against the model-checking shim under `--cfg symtensor_check`.
//!   Escape: `// lint: allow-raw-atomic`.
//! * **no-clock-in-record-path** — no `Instant::now()` /
//!   `SystemTime::now()` in `crates/telemetry/src` or
//!   `crates/mpsim/src/flight.rs` (the recorder module, which holds every
//!   clock read of the one record call) except blessed anchors tagged
//!   `// lint: clock-anchor`: unplanned clock reads are exactly the
//!   self-overhead the flight recorder exists to measure.
//!
//! Test code is exempt: everything after the first `#[cfg(test)]` line
//! of a file (the repo convention keeps the test module last), and
//! comment-only lines never match.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source line.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Path relative to the scanned root.
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Rule identifier (kebab-case).
    pub rule: &'static str,
    /// The offending line, trimmed.
    pub excerpt: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.excerpt)
    }
}

const ORDERING_SCOPE: &[&str] = &["crates/telemetry/src", "crates/mpsim/src"];
const PANIC_SCOPE: &[&str] = &["crates/telemetry/src", "crates/mpsim/src/flight.rs"];
const RAW_ATOMIC_SCOPE: &[&str] = &["crates/telemetry/src", "crates/mpsim/src"];
const CLOCK_SCOPE: &[&str] = &["crates/telemetry/src", "crates/mpsim/src/flight.rs"];

fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|p| rel.starts_with(p))
}

/// True when `line`, or one of the up-to-two preceding lines, carries
/// the escape/justification `tag`.
fn tagged(lines: &[&str], idx: usize, tag: &str) -> bool {
    let lo = idx.saturating_sub(2);
    lines[lo..=idx].iter().any(|l| l.contains(tag))
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("/*") || t.starts_with('*')
}

/// Lints one file's contents. `rel` is the path relative to the
/// workspace root and selects which rule scopes apply.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = src.lines().collect();
    let is_sync_facade = rel.ends_with("/sync.rs");

    for (idx, &line) in lines.iter().enumerate() {
        if line.contains("#[cfg(test)]") {
            break; // repo convention: the test module is last in the file
        }
        if is_comment(line) {
            continue;
        }
        let mut push = |rule: &'static str| {
            findings.push(Finding {
                file: rel.to_string(),
                line: idx + 1,
                rule,
                excerpt: line.trim().to_string(),
            });
        };

        if in_scope(rel, ORDERING_SCOPE)
            && line.contains("Ordering::")
            && !tagged(&lines, idx, "// ordering:")
        {
            push("ordering-justification");
        }
        if in_scope(rel, PANIC_SCOPE)
            && (line.contains("unwrap()")
                || line.contains("expect(")
                || line.contains("panic!")
                || line.contains("unreachable!"))
            && !tagged(&lines, idx, "// lint: allow-panic")
        {
            push("no-panic-path");
        }
        if in_scope(rel, RAW_ATOMIC_SCOPE)
            && !is_sync_facade
            && line.contains("std::sync::atomic")
            && !tagged(&lines, idx, "// lint: allow-raw-atomic")
        {
            push("no-raw-atomics");
        }
        if in_scope(rel, CLOCK_SCOPE)
            && (line.contains("Instant::now()") || line.contains("SystemTime::now()"))
            && !tagged(&lines, idx, "// lint: clock-anchor")
        {
            push("no-clock-in-record-path");
        }
    }
    findings
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `.rs` file under `<root>/crates/*/src`, returning all
/// findings sorted by path and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let crates = root.join("crates");
    let mut files = Vec::new();
    for entry in fs::read_dir(&crates)? {
        let src = entry?.path().join("src");
        if src.is_dir() {
            walk(&src, &mut files)?;
        }
    }
    files.sort();

    let mut findings = Vec::new();
    for path in files {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        findings.extend(lint_source(&rel, &src));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untagged_ordering_is_flagged_and_tagged_is_not() {
        let bad = "let v = seq.load(Ordering::Acquire);\n";
        let f = lint_source("crates/telemetry/src/cell.rs", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ordering-justification");
        assert_eq!(f[0].line, 1);

        let good = "// ordering: pairs with the writer's Release exit.\nlet v = seq.load(Ordering::Acquire);\n";
        assert!(lint_source("crates/telemetry/src/cell.rs", good).is_empty());
    }

    #[test]
    fn panic_paths_flagged_only_in_scope_and_outside_tests() {
        let src = "let x = maybe.unwrap();\n";
        assert_eq!(lint_source("crates/telemetry/src/lib.rs", src).len(), 1);
        // mpsim outside flight.rs is out of scope for this rule.
        assert!(lint_source("crates/mpsim/src/comm.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests {\n    let x = maybe.unwrap();\n}\n";
        assert!(lint_source("crates/telemetry/src/lib.rs", test_src).is_empty());
        let tagged_src = "// lint: allow-panic — designed invariant\nlet x = maybe.unwrap();\n";
        assert!(lint_source("crates/telemetry/src/lib.rs", tagged_src).is_empty());
    }

    #[test]
    fn raw_atomics_allowed_only_in_the_facade() {
        let src = "use std::sync::atomic::AtomicU64;\n";
        assert_eq!(lint_source("crates/telemetry/src/cell.rs", src).len(), 1);
        assert!(lint_source("crates/telemetry/src/sync.rs", src).is_empty());
    }

    #[test]
    fn clock_reads_need_the_anchor_tag() {
        let src = "let t = Instant::now();\n";
        assert_eq!(lint_source("crates/telemetry/src/plane.rs", src).len(), 1);
        let anchored = "// lint: clock-anchor — scrape-session start\nlet t = Instant::now();\n";
        assert!(lint_source("crates/telemetry/src/plane.rs", anchored).is_empty());
        // flight.rs is in scope, the rest of mpsim is not.
        assert_eq!(lint_source("crates/mpsim/src/flight.rs", src).len(), 1);
        assert!(lint_source("crates/mpsim/src/cost.rs", src).is_empty());
    }

    #[test]
    fn the_record_paths_clock_read_is_gated() {
        // The real recorder module is clean only because its one clock
        // read is anchored; strip the tag and the read is a finding.
        let rel = "crates/mpsim/src/flight.rs";
        let src = include_str!("../../mpsim/src/flight.rs");
        assert!(lint_source(rel, src).is_empty());
        let untagged = src.replace("// lint: clock-anchor", "//");
        let findings = lint_source(rel, &untagged);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "no-clock-in-record-path");
        assert!(findings[0].excerpt.contains("Instant::now()"));
    }

    #[test]
    fn comment_lines_never_match() {
        let src = "//! call .unwrap() on the result\n// Ordering::Acquire is discussed here\n";
        assert!(lint_source("crates/telemetry/src/lib.rs", src).is_empty());
    }
}
