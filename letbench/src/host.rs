//! What the output records about the machine and the code measured.

use std::fs;

/// Host and revision facts printed with every run.
#[derive(Debug)]
pub struct Host {
    /// Usable hardware threads.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Git commit of the checkout, when it is a git checkout.
    pub revision: String,
}

impl Host {
    /// Reads the host facts; anything unreadable reads `unknown`.
    pub fn probe() -> Self {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            cpu_model,
            revision: git_revision().unwrap_or_else(|| "unknown (not a git checkout)".to_owned()),
        }
    }
}

/// The commit `.git/HEAD` names, read without running git.
fn git_revision() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_owned());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| {
            l.strip_suffix(reference)
                .map(|id| id.trim().to_owned())
                .filter(|id| !id.is_empty())
        })
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
///
/// # Errors
///
/// When `/proc/self/status` has no `VmHWM` line (not Linux).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}
