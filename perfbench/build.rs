//! Records the toolchain and source revision for the benchmark's
//! environment block, so every result says what produced it.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");

    // Read the revision from the repository's own `.git` only (no
    // search above it); an exported tree without one reads "unknown".
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let rev = git_rev(&git).unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_GIT_REV={rev}");
    if git.join("HEAD").is_file() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}

fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(name) => match std::fs::read_to_string(git.join(name)) {
            Ok(sha) => sha.trim().to_string(),
            Err(_) => std::fs::read_to_string(git.join("packed-refs"))
                .ok()?
                .lines()
                .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))?,
        },
    };
    full.get(..12).map(str::to_string)
}
