//! `reproduce` rejects every argument it does not recognise: a stale
//! `--section=smoke` must not silently run `all`.

use std::process::Command;

#[test]
fn unrecognised_arguments_print_usage_and_exit_2() {
    for arg in ["--section=smoke", "--bogus", "bogus"] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg(arg)
            .output()
            .expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(2), "`reproduce {arg}` exit code");
        assert!(out.stdout.is_empty(), "`reproduce {arg}` ran a section");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(arg) && err.contains("usage: reproduce"),
            "`reproduce {arg}` stderr: {err}"
        );
    }
}
