//! The source-hygiene lint gate.
//!
//! Usage: `lint [--root PATH]`
//!
//! Scans every `.rs` file under `<root>/crates/*/src` with
//! `symtensor_cli::lint::lint_workspace` and prints each finding as
//! `file:line: [rule] excerpt`. Exits 0 when the tree is clean and 1
//! when any rule fires, so CI can gate on it directly. Without
//! `--root`, the workspace root is found by walking up from the current
//! directory to the nearest ancestor containing a `crates/` directory.
//!
//! The rules (ordering justifications, no panic paths in serving code,
//! no stray clock reads in record paths) are documented in
//! `symtensor_cli::lint`.

use std::path::PathBuf;
use std::process::ExitCode;

fn find_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => root = args.next().map(PathBuf::from),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: lint [--root PATH]");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = root.or_else(find_root) else {
        eprintln!("lint: no workspace root found (no ancestor with a crates/ directory)");
        return ExitCode::from(2);
    };

    match symtensor_cli::lint::lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("lint: clean ({})", root.display());
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("lint: failed to scan {}: {e}", root.display());
            ExitCode::from(2)
        }
    }
}
