//! Where a result was measured: recorded next to every number, because a
//! number without its host, core count and build is not comparable.

use serde_json::{json, Value};
use std::process::Command;

/// Cores this process may run on; no load is generated with more threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// The x86-64 features a DP or GEMM loop can use, as compiled in — what
/// the autovectoriser was allowed, not what the CPU has.
fn target_features() -> Vec<&'static str> {
    let mut on = Vec::new();
    macro_rules! probe {
        ($($f:literal),*) => {$(if cfg!(target_feature = $f) { on.push($f); })*};
    }
    probe!("sse2", "sse4.2", "avx", "avx2", "fma", "avx512f", "avx512bw", "neon");
    on
}

pub fn describe() -> Value {
    json!({
        "cpu_model": cpu_model(),
        "available_parallelism": nproc(),
        "rustc": command_line("rustc", &["-V"]),
        "target_features": target_features(),
        "profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "git_rev": command_line("git", &["rev-parse", "--short", "HEAD"]),
        // Set by crates/perf/offline/config.toml: the datasets then come
        // from the SplitMix64 stand-in for `rand`, and checksums differ
        // from a crates.io build.
        "rand_offline_stub": option_env!("GB_PERF_OFFLINE_STUBS").is_some(),
    })
}

/// One line for the printed header.
pub fn headline(host: &Value) -> String {
    let text = |key: &str| host[key].as_str().unwrap_or("unknown").to_string();
    format!(
        "host: {} · {} core(s) · {} · features {} · {} · git {} · rand {}",
        text("cpu_model"),
        host["available_parallelism"],
        text("rustc"),
        host["target_features"],
        text("profile"),
        text("git_rev"),
        if host["rand_offline_stub"] == true {
            "offline stub"
        } else {
            "crates.io"
        },
    )
}

/// Peak resident set of process `pid` in MiB (`VmHWM`); `None` off Linux
/// or once the process is gone.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_block_has_every_field_and_a_headline() {
        let host = describe();
        for key in [
            "cpu_model",
            "available_parallelism",
            "rustc",
            "target_features",
            "profile",
            "git_rev",
            "rand_offline_stub",
        ] {
            assert!(host.get(key).is_some(), "{key}");
        }
        assert!(host["available_parallelism"].as_u64().unwrap() >= 1);
        assert!(headline(&host).starts_with("host: "));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib(std::process::id()).unwrap() > 1.0);
    }
}
