//! Provenance: the host and build a set of numbers was measured on, and
//! the hermeticity conditions under which the benchmark refuses to run.

use std::process::Command;

/// Host and build facts printed with every run.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// Per-core L2, KiB (0 when the kernel does not say).
    pub l2_kib: u64,
    /// Largest reported cache (the last level), KiB.
    pub llc_kib: u64,
    /// `MemAvailable`, KiB.
    pub mem_available_kib: u64,
    /// `git rev-parse HEAD`, or why there is none.
    pub commit: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `soifft::num::simd::kernel_backend()`.
    pub kernel_backend: &'static str,
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// A `123K` / `4M` style sysfs cache size in KiB.
fn cache_kib(text: &str) -> u64 {
    let t = text.trim();
    let (digits, mult) = match t.chars().last() {
        Some('K') => (&t[..t.len() - 1], 1),
        Some('M') => (&t[..t.len() - 1], 1024),
        Some('G') => (&t[..t.len() - 1], 1024 * 1024),
        _ => (t, 0),
    };
    digits.parse::<u64>().map_or(0, |v| v * mult)
}

/// `MemAvailable` from `/proc/meminfo`, KiB (0 when unreadable).
pub fn mem_available_kib() -> u64 {
    read("/proc/meminfo")
        .lines()
        .find_map(|l| {
            l.strip_prefix("MemAvailable:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// `(L2, largest cache)` of cpu0 as sysfs reports them, KiB (0 when unreadable).
pub fn cache_sizes_kib() -> (u64, u64) {
    let (mut l2, mut llc) = (0, 0);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let kib = cache_kib(&read(&format!("{dir}/size")));
        if read(&format!("{dir}/level")).trim() == "2" {
            l2 = kib;
        }
        llc = llc.max(kib);
    }
    (l2, llc)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// This process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix("kB")?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

impl Provenance {
    /// Reads the host facts (`/proc`, `/sys`) and asks `git` and `rustc`
    /// for the build facts.
    pub fn collect() -> Self {
        let cpu_model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let (l2_kib, llc_kib) = cache_sizes_kib();
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            l2_kib,
            llc_kib,
            mem_available_kib: mem_available_kib(),
            commit: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            kernel_backend: soifft::num::simd::kernel_backend(),
        }
    }

    /// Every fact as a `(key, value)` pair, in print order.
    pub fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("host.nproc", self.nproc.to_string()),
            ("host.cpu_model", self.cpu_model.clone()),
            ("host.l2_kib", self.l2_kib.to_string()),
            ("host.llc_kib", self.llc_kib.to_string()),
            ("host.mem_available_kib", self.mem_available_kib.to_string()),
            ("build.commit", self.commit.clone()),
            ("build.rustc", self.rustc.clone()),
            ("build.kernel_backend", self.kernel_backend.to_string()),
        ]
    }

    /// The provenance block, one `key: value` per line.
    pub fn text(&self) -> String {
        self.fields()
            .iter()
            .map(|(key, value)| format!("{key}: {value}\n"))
            .collect()
    }
}

/// Ranks of every distributed workload, and client threads of the serving
/// one: the benchmark never runs more of either than the host has cores.
pub const RANKS: usize = 2;

/// Why this process may not produce numbers, if it may not.
pub fn refusal() -> Option<String> {
    if cfg!(debug_assertions) {
        return Some("built without --release: timings of a debug build mean nothing".into());
    }
    if std::env::var_os("SOIFFT_FORCE_SCALAR").is_some() {
        return Some("SOIFFT_FORCE_SCALAR is set: the AVX2 kernels would be bypassed".into());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if RANKS > nproc {
        return Some(format!(
            "{RANKS} rank / client threads exceed the {nproc} available core(s): oversubscribed timings are not comparable"
        ));
    }
    None
}
