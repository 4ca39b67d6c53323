//! Stamps the binary with the compiler version and the source revision,
//! so results from different builds are never compared silently. The
//! revision is read from `.git` files inside the repository only (no
//! `git` process, no search above the checkout); a checkout without
//! `.git` reports `unknown`.

use std::path::Path;
use std::process::Command;

fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn git_revision(repo: &Path) -> String {
    let git = repo.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                // Packed refs: `<sha> <refname>` lines.
                std::fs::read_to_string(git.join("packed-refs"))
                    .ok()?
                    .lines()
                    .find_map(|l| {
                        let (sha, name) = l.split_once(' ')?;
                        (name == reference).then(|| sha.to_string())
                    })
            }),
    };
    rev.map(|r| r.chars().take(12).collect())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    println!("cargo:rustc-env=PRXBENCH_RUSTC={}", rustc_version());
    println!("cargo:rustc-env=PRXBENCH_GIT={}", git_revision(&repo));
    // Watch only files that exist: a missing watched path would make
    // cargo rerun this script, and rebuild the benchmark, on every run.
    println!("cargo:rerun-if-changed=build.rs");
    let head = repo.join(".git/HEAD");
    if let Ok(text) = std::fs::read_to_string(&head) {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(reference) = text.trim().strip_prefix("ref: ") {
            let path = repo.join(".git").join(reference);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
    }
}
