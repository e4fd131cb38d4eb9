//! Argument handling of the `experiment`, `sweep` and `partition_info`
//! binaries: an argument a binary does not take is a usage error (exit 2),
//! reported before anything runs.

use std::process::Command;

#[test]
fn experiment_rejects_arguments_it_does_not_take() {
    for args in [&["kernels", "--threads", "2"][..], &["kernels", "--batchh", "8"], &["comm", "x"]]
    {
        let run = Command::new(env!("CARGO_BIN_EXE_experiment"))
            .args(args)
            .output()
            .expect("experiment binary failed to spawn");
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: experiment"), "{args:?}: {err}");
        assert!(run.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&run.stdout));
    }
}

/// Runs `bin` with `args` in a fresh scratch directory and checks that it
/// exits 2 with its usage line, prints nothing to stdout and leaves the
/// directory empty (no output file named after a mistyped flag).
fn assert_usage_error(bin: &str, name: &str, args: &[&str]) {
    let dir = std::env::temp_dir().join(format!("cli_usage_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create a scratch directory");
    let run = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("{name} binary failed to spawn: {e}"));
    let err = String::from_utf8_lossy(&run.stderr);
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(run.status.code(), Some(2), "{args:?}: {err}");
    assert!(err.contains(&format!("usage: {name}")), "{args:?}: {err}");
    assert!(run.stdout.is_empty(), "{args:?} ran: {}", String::from_utf8_lossy(&run.stdout));
    assert!(left.is_empty(), "{args:?} wrote {left:?}");
}

#[test]
fn sweep_rejects_unknown_flags_and_a_second_path() {
    for args in [&["--trac", "out.json"][..], &["out.json", "-o"], &["a.json", "b.json"]] {
        assert_usage_error(env!("CARGO_BIN_EXE_sweep"), "sweep", args);
    }
    // The documented form still runs and writes both files.
    let dir = std::env::temp_dir().join(format!("cli_usage_sweep_ok_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["curves.json", "--metrics", "m.json"])
        .current_dir(&dir)
        .output()
        .expect("sweep binary failed to spawn");
    let wrote = ["curves.json", "m.json"].map(|f| dir.join(f).is_file());
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert_eq!(wrote, [true, true]);
}

#[test]
fn partition_info_rejects_bad_numbers_and_extra_arguments() {
    for args in [&["x"][..], &["2", "3O"], &["2", "30", "--bogus"], &["6"], &["0"], &["1"]] {
        assert_usage_error(env!("CARGO_BIN_EXE_partition_info"), "partition_info", args);
    }
}
