//! Argument handling of the `experiment` binary: an argument an experiment
//! does not take is a usage error (exit 2), reported before anything runs.

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
