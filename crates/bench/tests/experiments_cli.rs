//! The `experiments` binary's argument handling: an unknown artifact
//! name is a usage error, not a silent no-op.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("run experiments")
}

#[test]
fn unknown_artifact_names_exit_2_with_usage() {
    // `trace` was folded into `monitor`; a stale script must fail loudly
    for args in [
        &["bogus"][..],
        &["trace"],
        &["--json", "trace"],
        &["fig6", "bogus"],
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage: experiments"), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed output before failing"
        );
    }
}

#[test]
fn help_exits_0() {
    let out = experiments(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stderr).contains("table1|fig6"));
}
