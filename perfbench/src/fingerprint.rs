//! The machine fingerprint printed with every result. Two results are
//! comparable only when their fingerprints agree on everything except the
//! git revision, which is what a comparison varies (`collect.py compare`
//! enforces this).

use rups_obs::Histogram;
use std::path::Path;

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name (`unknown` where the kernel does not report one).
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git revision of the checkout (`unknown` outside a git checkout).
    pub git: String,
    /// Cargo profile the benchmark was built with.
    pub profile: String,
    /// Enabled program features that change what is measured.
    pub features: String,
}

impl Fingerprint {
    /// Fingerprints this process, reading the git revision from the
    /// checkout rooted at `root`.
    pub fn detect(root: &Path) -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: env!("PERFBENCH_RUSTC").into(),
            git: git_revision(root).unwrap_or_else(|| "unknown".into()),
            profile: env!("PERFBENCH_PROFILE").into(),
            features: if obs_timing() { "obs" } else { "none" }.into(),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git\": \"{}\", \"profile\": \"{}\", \"features\": \"{}\"}}",
            self.nproc,
            escape(&self.cpu),
            escape(&self.rustc),
            escape(&self.git),
            escape(&self.profile),
            escape(&self.features)
        )
    }
}

/// Whether the program's wall-clock instrumentation (`obs`) is compiled
/// in: with it off, latency histograms record nothing.
fn obs_timing() -> bool {
    let h = Histogram::new();
    drop(h.start_timer());
    h.count() > 0
}

/// Reads `HEAD` from `root/.git` without running git.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect()
}
