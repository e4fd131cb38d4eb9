//! Acceptance tests for the concurrency checker (PR-10): the schedule
//! explorer proves each lock-free protocol over every interleaving, the
//! mutation sweep proves the checker would catch a weakened protocol,
//! the race demo proves the vector-clock detector is live, the report
//! round-trips the shared artifact contract, and the lint gate holds
//! over the workspace itself.

use std::process::Command;

use symtensor_check::{models, sweep, Config};
use symtensor_obs::{json, schema};

/// Every primitive model passes exhaustively (no cap) with a nontrivial
/// interleaving count, in both pruned and unpruned exploration — and the
/// two modes agree, so pruning never hides a schedule that matters.
#[test]
fn all_models_pass_exhaustively_in_both_modes() {
    for def in models::defs() {
        let pruned = def.explore(&Config::default());
        assert!(
            pruned.violation.is_none(),
            "{}: violation under correct orderings: {:?}",
            pruned.name,
            pruned.violation
        );
        assert!(!pruned.capped, "{}: exploration hit the exec cap", pruned.name);
        assert!(
            pruned.interleavings >= 100,
            "{}: only {} interleavings — the model is too small to mean anything",
            pruned.name,
            pruned.interleavings
        );

        let unpruned = def.explore(&Config { prune: false, ..Config::default() });
        assert!(
            unpruned.violation.is_none(),
            "{}: pruning and full exploration disagree: {:?}",
            pruned.name,
            unpruned.violation
        );
        assert!(!unpruned.capped, "{}: unpruned exploration hit the exec cap", pruned.name);
        assert!(
            unpruned.interleavings >= pruned.interleavings,
            "{}: pruning explored more than the full space ({} > {})",
            pruned.name,
            pruned.interleavings,
            unpruned.interleavings
        );
    }
}

/// Weakening any non-Relaxed ordering (or removing a fence) must be
/// caught. The sweep is the checker checking itself: a survivor is a
/// blind spot that would launder broken orderings as "verified".
#[test]
fn mutation_sweep_kills_at_least_ninety_percent() {
    let report = sweep(&models::defs(), &Config::default());
    // Every slot of the three models: seqlock 4, deque 2, abort-flag 2.
    assert_eq!(report.total(), 8, "the sweep lost or gained a slot");
    for run in &report.runs {
        assert!(
            run.killed,
            "weakening {}/{} from {:?} survived — checker blind spot",
            run.model, run.slot, run.from
        );
    }
    assert!(report.kill_rate() >= 0.90, "kill rate {:.2} below the 0.90 floor", report.kill_rate());
}

/// The deliberately racy counter must trip the vector-clock detector.
#[test]
fn race_detector_catches_the_racy_counter() {
    let outcome = models::race_demo(&Config::default());
    let v = outcome.violation.expect("unsynchronized counter raced undetected");
    assert!(v.to_string().contains("race"), "unexpected violation kind: {v}");
}

/// The emitted `symtensor-check-v1` document parses with the workspace
/// JSON parser and validates as the Check artifact kind — the same
/// contract walk CI applies to every artifact family.
#[test]
fn check_report_roundtrips_the_shared_schema() {
    let quick = Config { max_execs: 5_000, ..Config::default() };
    let mut report = symtensor_check::CheckReport::default();
    for def in models::defs() {
        report.models.push(def.explore(&quick));
    }
    report.race_demo = Some(models::race_demo(&quick));
    report.mutation = Some(sweep(&models::defs()[..1], &quick));
    report.lint =
        symtensor_check::lint::lint_source("crates/pool/src/lib.rs", "let x = maybe.unwrap();\n");
    assert_eq!(report.lint.len(), 1, "seeded lint finding missing");

    let doc = json::parse(&report.to_json_string()).expect("report is not valid JSON");
    assert_eq!(schema::validate(&doc), Ok(schema::ArtifactKind::Check));
    assert!(!report.clean(), "a report with lint findings cannot be clean");
}

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

    // Seed a violating tree: crates/pool/src with a naked unwrap.
    let dir = std::env::temp_dir().join(format!("symtensor-lint-seed-{}", std::process::id()));
    let src = dir.join("crates").join("pool").join("src");
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

/// The check binary runs the full suite and writes a validated artifact.
#[test]
fn check_binary_writes_a_valid_artifact() {
    let root = env!("CARGO_MANIFEST_DIR");
    let ws_root = std::path::Path::new(root).parent().unwrap().parent().unwrap();
    let out_path =
        std::env::temp_dir().join(format!("symtensor-check-{}.json", std::process::id()));

    let run = Command::new(env!("CARGO_BIN_EXE_check"))
        .arg("--root")
        .arg(ws_root)
        .arg("--skip-mutation")
        .arg("--max-execs")
        .arg("20000")
        .arg("--out")
        .arg(&out_path)
        .output()
        .expect("check binary failed to spawn");
    assert!(
        run.status.success(),
        "check binary failed:\n{}{}",
        String::from_utf8_lossy(&run.stdout),
        String::from_utf8_lossy(&run.stderr)
    );

    let text = std::fs::read_to_string(&out_path).expect("artifact not written");
    std::fs::remove_file(&out_path).ok();
    let doc = json::parse(&text).expect("artifact is not valid JSON");
    assert_eq!(schema::validate(&doc), Ok(schema::ArtifactKind::Check));
}
