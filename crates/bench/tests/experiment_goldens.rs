//! Pins the stdout of the experiment binaries that print a paper figure
//! or table without a corpus sweep (`figure2`–`figure5`, `table1`,
//! `table2`, `table4`, `table6`, `table9`) and of `ablation 1000`, byte
//! for byte, against the goldens in `tests/golden/`. Every one is
//! deterministic; `ablation` runs its subset sweep on the pipeline, so it
//! is checked at one and at eight workers.
//!
//! Regenerate only when a change is meant to alter an output:
//!
//! ```text
//! for b in figure2 figure3 figure4 figure5 table1 table2 table4 table6 table9; do
//!   CCC_THREADS=1 cargo run -q --release -p ccc-bench --bin $b \
//!     > crates/bench/tests/golden/$b.txt
//! done
//! CCC_THREADS=1 cargo run -q --release -p ccc-bench --bin ablation -- 1000 \
//!   > crates/bench/tests/golden/ablation_1k.txt
//! ```

use std::process::Command;

/// Run `exe` with `args` at `CCC_THREADS=threads` and compare its stdout
/// with `golden`, naming the first line that differs.
fn assert_stdout_matches(name: &str, exe: &str, args: &[&str], threads: &str, golden: &str) {
    let output = Command::new(exe)
        .args(args)
        .env("CCC_THREADS", threads)
        .output()
        .expect("run experiment binary");
    assert!(
        output.status.success(),
        "{name} exited {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let actual = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    if actual == golden {
        return;
    }
    let line = actual
        .lines()
        .zip(golden.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{name} at CCC_THREADS={threads} differs from its golden at line {}:\n  got:    {:?}\n  golden: {:?}",
        line + 1,
        actual.lines().nth(line),
        golden.lines().nth(line)
    );
}

#[test]
fn experiment_binaries_match_their_goldens() {
    for (name, exe, golden) in [
        (
            "figure2",
            env!("CARGO_BIN_EXE_figure2"),
            include_str!("golden/figure2.txt"),
        ),
        (
            "figure3",
            env!("CARGO_BIN_EXE_figure3"),
            include_str!("golden/figure3.txt"),
        ),
        (
            "figure4",
            env!("CARGO_BIN_EXE_figure4"),
            include_str!("golden/figure4.txt"),
        ),
        (
            "figure5",
            env!("CARGO_BIN_EXE_figure5"),
            include_str!("golden/figure5.txt"),
        ),
        (
            "table1",
            env!("CARGO_BIN_EXE_table1"),
            include_str!("golden/table1.txt"),
        ),
        (
            "table2",
            env!("CARGO_BIN_EXE_table2"),
            include_str!("golden/table2.txt"),
        ),
        (
            "table4",
            env!("CARGO_BIN_EXE_table4"),
            include_str!("golden/table4.txt"),
        ),
        (
            "table6",
            env!("CARGO_BIN_EXE_table6"),
            include_str!("golden/table6.txt"),
        ),
        (
            "table9",
            env!("CARGO_BIN_EXE_table9"),
            include_str!("golden/table9.txt"),
        ),
    ] {
        assert_stdout_matches(name, exe, &[], "1", golden);
    }
}

#[test]
fn ablation_matches_its_golden_at_one_and_eight_workers() {
    for threads in ["1", "8"] {
        assert_stdout_matches(
            "ablation 1000",
            env!("CARGO_BIN_EXE_ablation"),
            &["1000"],
            threads,
            include_str!("golden/ablation_1k.txt"),
        );
    }
}
