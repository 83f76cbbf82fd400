//! Stamps the binary with the repository revision (when built inside a git
//! checkout) and a digest of the library sources it measures, so every run
//! manifest names the code behind its numbers even where git is absent.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Every `.rs` file and `Cargo.toml` below `dir`, skipping build outputs.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if entry.file_name() != "target" {
                sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") || entry.file_name() == "Cargo.toml" {
            out.push(path);
        }
    }
}

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        sources(&root.join(dir), &mut files);
        println!("cargo:rerun-if-changed=../{dir}");
    }
    files.sort();
    let mut digest = FNV_OFFSET;
    for file in &files {
        let rel = file.strip_prefix(&root).unwrap_or(file);
        digest = fnv(digest, rel.to_string_lossy().as_bytes());
        digest = fnv(digest, &fs::read(file).unwrap_or_default());
    }

    let revision = Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|r| !r.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    // Re-stamp after a commit; outside a git checkout there is nothing to
    // watch and the revision stays "unknown".
    let git_log = root.join(".git/logs/HEAD");
    if git_log.exists() {
        println!("cargo:rerun-if-changed=../.git/logs/HEAD");
    }
    println!("cargo:rustc-env=PERFBENCH_REVISION={revision}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
}
