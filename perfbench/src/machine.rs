//! The machine and build header printed above every result, in the shape
//! of a benchmark-results table header: CPU, cores, memory, kernel,
//! compiler and commit.

use std::fs;
use std::process::Command;

/// Where and with what a result was measured.
pub struct Header {
    pub cpu: String,
    pub cores: usize,
    pub mem_total_mb: u64,
    pub kernel: String,
    pub rustc: &'static str,
    pub commit: String,
}

impl Header {
    /// Reads the header from `/proc` and the build.
    pub fn collect() -> Header {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|rest| rest.split_once(':'))
            .map_or("unknown", |(_, v)| v.trim())
            .to_string();
        let meminfo = fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mem_total_mb = meminfo
            .lines()
            .find_map(|l| l.strip_prefix("MemTotal:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kb| kb / 1024);
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Header {
            cpu,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_total_mb,
            kernel,
            rustc: env!("PERFBENCH_RUSTC"),
            commit: commit(),
        }
    }

    /// The header as Markdown lines.
    pub fn render(&self) -> String {
        format!(
            "## Machine Info\n\
             - **CPU:** {}\n\
             - **Cores:** {} (available parallelism)\n\
             - **Memory:** {} MB\n\
             - **Kernel:** {}\n\
             ## Build\n\
             - **Compiler:** {}\n\
             - **Commit:** {}\n",
            self.cpu, self.cores, self.mem_total_mb, self.kernel, self.rustc, self.commit
        )
    }
}

/// The source commit: `$GIT_COMMIT` when set, else `git rev-parse HEAD`
/// when the source tree is a repository, else `unknown`.
fn commit() -> String {
    if let Ok(c) = std::env::var("GIT_COMMIT") {
        return c;
    }
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Resident-memory high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
