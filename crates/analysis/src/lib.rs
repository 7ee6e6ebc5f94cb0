#![forbid(unsafe_code)]
//! # dhtm-analysis
//!
//! An offline, dependency-free static-analysis pass over this workspace's
//! own Rust sources, gated in CI through the `dhtm_lint` binary.
//!
//! The whole reproduction rests on bit-identical determinism: goldens,
//! crash oracles, parallel-equivalence proofs and the service's
//! content-addressed result cache all assume that one `SimSpec` + seed
//! yields exactly one result, forever. This crate turns that convention
//! into a checked invariant:
//!
//! * **Deterministic tier** (`types`, `cache`, `nvm`, `coherence`, `sim`,
//!   `htm`, `core`, `baselines`, `workloads`, `crash`): no `f32`/`f64`
//!   outside allowlisted reporting/config-boundary items, no iteration
//!   over `HashMap`/`HashSet` (membership lookups stay legal), no
//!   wall-clock or entropy sources (`Instant`, `SystemTime`, `thread_rng`,
//!   `RandomState`).
//! * **Wall-clock tier** (`obs`, `scenario`, `service`, `harness`,
//!   `analysis`): exempt from the above, but the threaded crates gain a
//!   declared lock hierarchy — nested `.lock()`/`.read()`/`.write()`
//!   acquisitions must follow it, and no lock may be held across a
//!   blocking send/receive/IO call.
//! * Every crate root must carry `#![forbid(unsafe_code)]`.
//!
//! Escapes are deliberate and auditable: the committed item allowlist in
//! [`config`], or an inline `// lint: allow(<rule>, reason = "…")` whose
//! reason is mandatory (a bare suppression is itself a finding).
//!
//! See `DESIGN.md` § "Static analysis & determinism invariants".

pub mod config;
pub mod emit;
pub mod lexer;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scope;

use std::io;
use std::path::{Path, PathBuf};

use config::{Config, Tier};
use emit::Sink;
use report::Report;

/// Analyzes every configured crate under `root`, returning the finalized
/// report.
///
/// # Errors
///
/// Propagates IO failures reading source files; a configured crate whose
/// `src/` directory is missing is an error (the config names a crate that
/// no longer exists).
pub fn analyze_workspace(root: &Path, cfg: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    for krate in &cfg.crates {
        let crate_root = root.join(krate.dir);
        let src = crate_root.join("src");
        if !src.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "configured crate `{}` has no src/ at {}",
                    krate.dir,
                    src.display()
                ),
            ));
        }
        report.crates_scanned += 1;
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            let source = std::fs::read_to_string(&path)?;
            analyze_file(cfg, krate.dir, krate.tier, &rel, &source, &mut report);
            report.files_scanned += 1;
        }
        if krate.require_forbid_unsafe {
            let lib = src.join("lib.rs");
            if lib.is_file() {
                let rel = rel_path(root, &lib);
                let source = std::fs::read_to_string(&lib)?;
                check_crate_root(cfg, &rel, &source, &mut report);
            }
        }
    }
    report.finalize();
    Ok(report)
}

/// Runs every applicable rule over one file's source.
pub fn analyze_file(
    cfg: &Config,
    crate_dir: &str,
    tier: Tier,
    rel_path: &str,
    source: &str,
    report: &mut Report,
) {
    let lexed = lexer::lex(source);
    let scopes = scope::annotate(&lexed.tokens);
    let mut sink = Sink {
        cfg,
        rel_path,
        scopes: &scopes,
        suppressions: &lexed.suppressions,
        report,
    };
    sink.check_suppressions();
    if tier == Tier::Deterministic {
        rules::check_deterministic(&mut sink, &lexed.tokens);
    }
    if let Some(h) = cfg.hierarchy_for(crate_dir) {
        locks::check_locks(&mut sink, &lexed.tokens, &scopes, h);
    }
}

/// Checks a crate-root file for the mandatory `#![forbid(unsafe_code)]`.
fn check_crate_root(cfg: &Config, rel_path: &str, source: &str, report: &mut Report) {
    let lexed = lexer::lex(source);
    let scopes = scope::annotate(&lexed.tokens);
    let mut sink = Sink {
        cfg,
        rel_path,
        scopes: &scopes,
        suppressions: &lexed.suppressions,
        report,
    };
    rules::check_forbid_unsafe(&mut sink, &lexed.tokens);
}

/// Recursively collects `.rs` files under `dir`.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Walks up from `start` to find the workspace root (the directory whose
/// `Cargo.toml` declares `[workspace]`).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d.to_path_buf());
                }
            }
        }
        dir = d.parent();
    }
    None
}
