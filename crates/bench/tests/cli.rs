//! Error paths of the `reproduce` command line: usage and flag errors exit
//! 2 and name the offending flag. Every case here is rejected while argv
//! is parsed, before a server starts or a simulation runs.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("reproduce runs")
}

/// Assert `args` is a usage error whose message names every `needle`.
fn rejects(args: &[&str], needles: &[&str]) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    for needle in needles {
        assert!(first.contains(needle), "{args:?}: '{first}' lacks {needle}");
    }
}

/// One row per subcommand: the args that select it (the figure targets
/// need a target, `trace` a kernel), a value-taking flag and a value that
/// flag rejects.
const SUBCOMMANDS: &[(&str, &[&str], &str, &str)] = &[
    ("", &["fig4"], "--threads", "0"),
    ("trace", &["trace", "bwaves"], "--format", "svg"),
    ("serve", &["serve"], "--workers", "0"),
    ("submit", &["submit"], "--kind", "bogus"),
    ("coordinate", &["coordinate"], "--shards", "0"),
    ("watch", &["watch"], "--interval-ms", "10"),
    ("telemetry", &["telemetry"], "--stop-ci", "0.7"),
    ("explore", &["explore"], "--workers", "127.0.0.1:99999"),
];

#[test]
fn list_names_every_subcommand() {
    let out = reproduce(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (_, subcommands) = stdout
        .split_once("subcommands:\n")
        .expect("subcommand list");
    let listed: Vec<&str> = subcommands
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let expected: Vec<&str> = SUBCOMMANDS[1..].iter().map(|row| row.0).collect();
    assert_eq!(listed, expected);
}

#[test]
fn unknown_targets_exit_2() {
    rejects(&["no-such-target"], &["no-such-target"]);
    // The measurement-only subcommands are gone: their names are now just
    // unknown targets.
    rejects(&["loadgen"], &["loadgen"]);
    rejects(&["fleet-bench"], &["fleet-bench"]);
}

#[test]
fn every_subcommand_rejects_unknown_flags_missing_values_and_bad_values() {
    for &(name, select, flag, bad) in SUBCOMMANDS {
        let with = |extra: &[&'static str]| [select, extra].concat();
        rejects(&with(&["--no-such-flag"]), &[name, "--no-such-flag"]);
        rejects(&with(&[flag]), &[name, flag]);
        rejects(&with(&[flag, bad]), &[name, flag, bad]);
    }
}

#[test]
fn cross_flag_rules_are_enforced() {
    rejects(&["serve", "--store-cap", "1m"], &["--store-cap", "--store"]);
    rejects(&["submit", "--threads", "2"], &["--threads", "--direct"]);
    rejects(&["submit", "--store", "dir"], &["--store", "--direct"]);
    // `--direct` runs in-process: every server-only flag is an error
    // beside it, never silently ignored.
    for server_only in [
        &["--stats"][..],
        &["--shutdown"],
        &["--addr", "127.0.0.1:1"],
        &["--progress"],
    ] {
        let args = [&["submit", "--direct"][..], server_only].concat();
        rejects(&args, &["--direct", server_only[0]]);
    }
    rejects(&["explore", "--resume"], &["--resume", "--store"]);
    rejects(
        &["explore", "--workers", "127.0.0.1:1", "--store", "dir"],
        &["--workers", "--store"],
    );
    rejects(&["coordinate", "--runs", "4"], &["--workers"]);
}

#[test]
fn overflowing_store_cap_is_rejected() {
    let dir = std::env::temp_dir().join(format!("tp-cli-store-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for cap in ["20000000000g", "17179869184g"] {
        rejects(
            &["serve", "--store", dir, "--store-cap", cap],
            &["--store-cap", cap],
        );
    }
    assert!(
        !std::path::Path::new(dir).exists(),
        "a rejected serve opened its store"
    );
}
