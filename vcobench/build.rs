//! Records the toolchain, build profile and source commit so every
//! benchmark report can say what it measured.

use std::path::Path;
use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets the manifest dir");
    let commit = output_of("git", &["-C", &manifest_dir, "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=VCOBENCH_RUSTC={version}");
    println!("cargo:rustc-env=VCOBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=VCOBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    let head = Path::new(&manifest_dir).join("../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(reference) =
            output_of("git", &["-C", &manifest_dir, "symbolic-ref", "-q", "HEAD"])
        {
            println!(
                "cargo:rerun-if-changed={}",
                Path::new(&manifest_dir)
                    .join("../.git")
                    .join(reference)
                    .display()
            );
        }
    }
}
