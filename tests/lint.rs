//! Acceptance test for the source lint: the `lint` binary holds over
//! the workspace itself and fails a tree seeded with a violation.

use std::process::Command;

/// The lint binary exits 0 on this workspace (the gate CI enforces) and
/// nonzero on a tree seeded with a violation.
#[test]
fn lint_binary_gates_the_workspace() {
    let root = env!("CARGO_MANIFEST_DIR"); // crates/cli
    let ws_root = std::path::Path::new(root).parent().unwrap().parent().unwrap();

    let clean = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--root")
        .arg(ws_root)
        .output()
        .expect("lint binary failed to spawn");
    assert!(
        clean.status.success(),
        "workspace lint gate failed:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    // Seed a violating tree: crates/telemetry/src with a naked unwrap.
    let dir = std::env::temp_dir().join(format!("symtensor-lint-seed-{}", std::process::id()));
    let src = dir.join("crates").join("telemetry").join("src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n").unwrap();

    let dirty = Command::new(env!("CARGO_BIN_EXE_lint"))
        .arg("--root")
        .arg(&dir)
        .output()
        .expect("lint binary failed to spawn");
    std::fs::remove_dir_all(&dir).ok();
    assert!(!dirty.status.success(), "lint passed a tree with a naked unwrap");
    let out = String::from_utf8_lossy(&dirty.stdout);
    assert!(out.contains("no-panic-path"), "finding not reported: {out}");
}
