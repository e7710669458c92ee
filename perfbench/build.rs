//! Records the build's identity for every benchmark output: git commit
//! (when the source is a git checkout), a content hash of the
//! repository sources the benchmark compiles, the rustc version, and
//! the cargo profile.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every regular file under `dir` whose name ends in `.rs` or is
/// `Cargo.toml`, sorted so the hash is independent of directory order.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}

fn main() {
    let root = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap())
        .parent()
        .unwrap()
        .to_path_buf();
    let commit = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(&root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut files = Vec::new();
    for sub in ["crates", "compat", "perfbench/src"] {
        sources(&root.join(sub), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        fnv1a(
            &mut h,
            f.strip_prefix(&root).unwrap().to_string_lossy().as_bytes(),
        );
        fnv1a(&mut h, &std::fs::read(f).unwrap_or_default());
    }
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let profile = format!(
        "{} (opt-level {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    println!("cargo:rustc-env=PERFBENCH_GIT_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_HASH={h:016x}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    for sub in ["crates", "compat", "perfbench/src"] {
        println!("cargo:rerun-if-changed={}", root.join(sub).display());
    }
    // Re-read the commit when one is made or checked out (only when the
    // log exists: a missing path would force a rebuild on every run).
    let head_log = root.join(".git/logs/HEAD");
    if head_log.exists() {
        println!("cargo:rerun-if-changed={}", head_log.display());
    }
}
