//! `hydra-serve` refuses a bad command line the same way for every flag:
//! one line on stderr naming the flag, exit status 1, no panic, and nothing
//! bound or created first.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn bad_flags_exit_1_naming_the_flag_without_a_panic() {
    let wal_dir = std::env::temp_dir().join(format!("hydra-serve-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal = wal_dir.to_str().expect("utf-8 dir");
    let cases: [(&[&str], &str); 6] = [
        (&["--velocity", "0"], "--velocity"),
        (&["--velocity", "NaN"], "--velocity"),
        (&["--velocity", "-5"], "--velocity"),
        (
            &["--checkpoint-every", "0", "--wal-dir", wal],
            "--checkpoint-every",
        ),
        (&["--checkpoint-every", "3"], "--checkpoint-every"),
        (&["--no-such-flag"], "--no-such-flag"),
    ];
    for (args, flag) in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hydra-serve"))
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hydra-serve");
        // A server that accepted the flags would serve forever: bound the wait.
        let deadline = Instant::now() + Duration::from_secs(30);
        while child.try_wait().expect("poll hydra-serve").is_none() {
            if Instant::now() > deadline {
                child.kill().ok();
                panic!("{args:?}: hydra-serve did not refuse the flags");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("hydra-serve output");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(
            stdout.is_empty(),
            "{args:?} started before refusing: {stdout}"
        );
    }
    assert!(
        !wal_dir.exists(),
        "a refused command line created its WAL dir"
    );
}
