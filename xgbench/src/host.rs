//! Host provenance: cores, CPU, SIMD flags, source identity, `XGYRO_*`
//! knobs, CPU steal, and peak resident memory.

use crate::{jstr, num};
use std::path::Path;

/// Cumulative CPU steal of the whole host, seconds (`/proc/stat`, at the
/// usual 100 ticks per second); 0 where unavailable.
pub fn steal_seconds() -> f64 {
    per_cpu_steal().iter().sum()
}

/// Cumulative CPU steal of each vCPU, seconds.
pub fn per_cpu_steal() -> Vec<f64> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
        .filter_map(|l| l.split_whitespace().nth(8))
        .filter_map(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks / 100.0)
        .collect()
}

/// A wall-clock instant paired with each vCPU's cumulative CPU steal.
///
/// On a small VM the hypervisor takes vCPUs away in bursts (`steal` in
/// `/proc/stat`). The rank threads run in lockstep, one per vCPU, so the
/// run stalls whenever any vCPU is stolen. Per-sample wall time tracks
/// steal closely (correlation 0.94–0.99 on a 2-vCPU Xeon VM).
/// [`Stamp::secs_since`] reports the part of the wall time during which no
/// vCPU was stolen, assuming each vCPU's steal falls independently over
/// the sample: `wall · Π(1 − steal_i / wall)`.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Wall-clock instant.
    pub t: std::time::Instant,
    /// Cumulative steal of each vCPU at `t`, seconds (10 ms resolution).
    pub steal: Vec<f64>,
}

impl Stamp {
    /// Now.
    pub fn now() -> Stamp {
        Stamp {
            t: std::time::Instant::now(),
            steal: per_cpu_steal(),
        }
    }

    /// Raw wall seconds since `earlier`.
    pub fn wall_since(&self, earlier: &Stamp) -> f64 {
        self.t.saturating_duration_since(earlier.t).as_secs_f64()
    }

    /// Wall seconds since `earlier` during which no vCPU was stolen
    /// (estimated as above).
    pub fn secs_since(&self, earlier: &Stamp) -> f64 {
        let wall = self.wall_since(earlier);
        if wall <= 0.0 {
            return 0.0;
        }
        self.steal
            .iter()
            .zip(&earlier.steal)
            .map(|(b, a)| 1.0 - ((b - a) / wall).clamp(0.0, 1.0))
            .product::<f64>()
            * wall
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`None` = this process),
/// MiB; NaN where unavailable.
pub fn peak_rss_mib(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// CPU model name and the SIMD flags the collision kernel can use.
fn cpu() -> (String, Vec<&'static str>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let flags: Vec<&str> = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|v| v.split_whitespace().collect())
        .unwrap_or_default();
    let simd = [
        "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512bw", "avx512vl",
    ]
    .into_iter()
    .filter(|f| flags.contains(f))
    .collect();
    (model, simd)
}

/// `git rev-parse HEAD` when the working directory is a git checkout.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from (`crates/`, `xgbench/src/`, manifests) — identifies the
/// code under test where no git metadata exists.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if matches!(
                p.extension().and_then(|x| x.to_str()),
                Some("rs" | "toml" | "lock")
            ) {
                out.push(p);
            }
        }
    }
    let mut files = vec![
        std::path::PathBuf::from("Cargo.toml"),
        std::path::PathBuf::from("Cargo.lock"),
        std::path::PathBuf::from("xgbench/Cargo.toml"),
    ];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("xgbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a-{h:016x} ({} files)", files.len())
}

/// Provenance JSON object for the report. `kernels` lists the collision
/// kernel chosen by each process that did the work.
pub fn provenance_json(kernels: &[(String, String)], steal_s: f64) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let (model, simd) = cpu();
    let mut env: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("XGYRO_") || k == "MALLOC_ARENA_MAX")
        .collect();
    env.sort();
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
        .collect();
    let kernel_json: Vec<String> = kernels
        .iter()
        .map(|(p, k)| format!("{}: {}", jstr(p), jstr(k)))
        .collect();
    let simd_json: Vec<String> = simd.iter().map(|f| jstr(f)).collect();
    format!(
        "{{\"available_parallelism\": {cores}, \"cpu_model\": {}, \"simd_flags\": [{}], \
         \"commit\": {}, \"source\": {}, \"env\": {{{}}}, \"collision_kernel\": {{{}}}, \
         \"cpu_steal_s\": {}}}",
        jstr(&model),
        simd_json.join(", "),
        jstr(&commit()),
        jstr(&source_fingerprint()),
        env_json.join(", "),
        kernel_json.join(", "),
        num(steal_s)
    )
}
