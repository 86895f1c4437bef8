//! The host block recorded with every micro-benchmark snapshot, and the
//! process's peak resident set. Absolute times are only comparable
//! between snapshots whose host blocks agree.

use std::fmt;
use std::path::Path;

/// Where and on what a measurement was taken.
#[derive(Debug)]
pub struct Host {
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built this crate (recorded by its
    /// build script, so probing runs no program).
    pub rustc: &'static str,
    /// Commit of the checkout in the working directory, or `unknown`
    /// outside a git checkout.
    pub commit: String,
}

impl Host {
    /// Probe the running host. Reads only `/proc/cpuinfo` and the working
    /// directory's `.git`.
    pub fn probe() -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu_model,
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rustc: env!("CCC_BENCH_RUSTC_VERSION"),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// One line: CPU model, logical CPUs, rustc and commit.
impl fmt::Display for Host {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} CPUs), {}, commit {}",
            self.cpu_model, self.nproc, self.rustc, self.commit
        )
    }
}

/// Peak resident set size of this process in KiB (`VmHWM` in
/// `/proc/self/status`), or `None` where that file or line is absent.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .strip_suffix("kB")?
            .trim()
            .parse()
            .ok()
    })
}

/// Resolve `HEAD` of the git directory `git` without running git.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(loose) = std::fs::read_to_string(git.join(reference)) {
        return Some(loose.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
