//! `bbc-lint` — workspace-invariant static analysis for the BBC repo.
//!
//! The engine's headline guarantee is byte-identity: decisions,
//! trajectories, and stream digests must not change across row tiers,
//! thread counts, or resume boundaries. This binary
//! machine-enforces the conventions that guarantee rests on *before* any
//! differential test has to catch a violation dynamically. See `LINTS.md`
//! for the full catalog (L1 determinism, L2 row-width soundness, L3
//! layering, L4 frozen-reference drift, L5 panic-freedom), the blessed
//! patterns, and the allow syntax.
//!
//! Modes:
//!
//! * `bbc-lint` — scan every `crates/*/src` and `src/` file plus the crate
//!   manifests; print `file:line: [lint] message` diagnostics; exit 1 if
//!   any.
//! * `bbc-lint --fixtures` — self-test against the seeded good/bad fixture
//!   files under `crates/lint/fixtures/` (bad fixtures declare expected
//!   diagnostics with `//~ ERROR <lint>` markers; good fixtures must stay
//!   silent).
//! * `bbc-lint --hash <file>` — print the FNV-1a content hash used by the
//!   L4 drift gate (the documented pin-update procedure).
//! * `bbc-lint <file>…` — scan specific files (fixture headers honored).

#![forbid(unsafe_code)]

mod layering;
mod lexer;
mod lints;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use lints::{Diagnostic, FileRules};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    match args.first().map(String::as_str) {
        Some("--fixtures") => run_fixtures(&root),
        Some("--hash") => match args.get(1) {
            Some(file) => run_hash(&root, file),
            None => usage(),
        },
        Some(flag) if flag.starts_with("--") => usage(),
        Some(_) => run_files(&root, &args),
        None => run_workspace(&root),
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: bbc-lint [--fixtures | --hash <file> | <file>…]");
    ExitCode::from(2)
}

/// The repo root: two levels above this crate's manifest dir. The binary
/// is always built from the workspace (path deps only), so the compile-time
/// location is the runtime truth.
fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .unwrap_or(manifest)
        .to_path_buf()
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// diagnostic order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("bbc-lint: {msg}");
    ExitCode::from(2)
}

fn report(mut diags: Vec<Diagnostic>) -> ExitCode {
    if diags.is_empty() {
        return ExitCode::SUCCESS;
    }
    diags.sort();
    diags.dedup();
    for d in &diags {
        println!("{d}");
    }
    eprintln!("bbc-lint: {} diagnostic(s)", diags.len());
    ExitCode::FAILURE
}

/// Default mode: the whole workspace — every library source tree, every
/// crate manifest, and the frozen-reference pin.
fn run_workspace(root: &Path) -> ExitCode {
    let mut diags = Vec::new();
    let mut files = Vec::new();

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect(),
        Err(e) => return fail(&format!("{}: {e}", crates_dir.display())),
    };
    crate_dirs.sort();
    for dir in &crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            if let Err(e) = rust_files(&src, &mut files) {
                return fail(&e);
            }
        }
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let rel = rel_path(root, &manifest);
            let Some(krate) = layering::crate_of(&rel_path(root, &src.join("lib.rs"))) else {
                continue;
            };
            match read(&manifest) {
                Ok(toml) => layering::check_manifest(&rel, &krate, &toml, &mut diags),
                Err(e) => return fail(&e),
            }
        }
    }
    if let Err(e) = rust_files(&root.join("src"), &mut files) {
        return fail(&e);
    }
    // The facade package's dependencies live in the root manifest.
    match read(&root.join("Cargo.toml")) {
        Ok(toml) => layering::check_manifest("Cargo.toml", "bbc", &toml, &mut diags),
        Err(e) => return fail(&e),
    }

    for path in &files {
        let rel = rel_path(root, path);
        let src = match read(path) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        diags.extend(lints::lint_source(
            &rel,
            &src,
            &FileRules::for_repo_path(&rel),
        ));
        if let Some(krate) = layering::crate_of(&rel) {
            let tokens = lexer::lex(&src);
            layering::check_use(&rel, &krate, &tokens, &mut diags);
        }
    }

    layering::check_reference_drift(root, &mut diags);
    report(diags)
}

/// Explicit-file mode: same per-file engine; `// bbc-lint-fixture:`
/// headers override the path-derived rules when present.
fn run_files(root: &Path, args: &[String]) -> ExitCode {
    let mut diags = Vec::new();
    for arg in args {
        let path = Path::new(arg);
        let src = match read(path) {
            Ok(s) => s,
            Err(e) => return fail(&e),
        };
        let rel = rel_path(
            root,
            &path.canonicalize().unwrap_or_else(|_| path.to_path_buf()),
        );
        let mut rules = FileRules::for_repo_path(&rel);
        let fixture = lints::fixture_rules(&src);
        rules.narrowing |= fixture.narrowing;
        rules.bench |= fixture.bench;
        rules.reference_imports |= fixture.reference_imports;
        rules.clock |= fixture.clock;
        diags.extend(lints::lint_source(&rel, &src, &rules));
    }
    report(diags)
}

/// `--hash <file>`: the L4 pin-update procedure.
fn run_hash(root: &Path, file: &str) -> ExitCode {
    let path = root.join(file);
    let path = if path.is_file() {
        path
    } else {
        PathBuf::from(file)
    };
    match std::fs::read(&path) {
        Ok(bytes) => {
            println!("{:#018x}", lints::fnv1a(&bytes));
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("{}: {e}", path.display())),
    }
}

/// `--fixtures`: every bad fixture must fire exactly its `//~ ERROR`
/// markers; every good fixture must stay silent. This is the lint engine's
/// own regression gate — CI runs it next to the workspace pass so a lexer
/// or catalog regression cannot silently stop the lints from firing.
fn run_fixtures(root: &Path) -> ExitCode {
    let fixtures = root.join("crates/lint/fixtures");
    let mut failures = Vec::new();
    let mut checked_files = 0usize;
    let mut matched = 0usize;

    for (kind, expect_markers) in [("bad", true), ("good", false)] {
        let dir = fixtures.join(kind);
        let mut files = Vec::new();
        if let Err(e) = rust_files(&dir, &mut files) {
            return fail(&e);
        }
        if files.is_empty() {
            return fail(&format!("no fixtures under {}", dir.display()));
        }
        for path in files {
            checked_files += 1;
            let rel = rel_path(root, &path);
            let src = match read(&path) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let rules = lints::fixture_rules(&src);
            let diags = lints::lint_source(&rel, &src, &rules);
            let mut markers = lints::fixture_markers(&src);
            if expect_markers && markers.is_empty() {
                failures.push(format!("{rel}: bad fixture declares no //~ ERROR markers"));
            }
            if !expect_markers && !markers.is_empty() {
                failures.push(format!("{rel}: good fixture declares //~ ERROR markers"));
            }
            for d in &diags {
                match markers.get_mut(&(d.line, d.lint.to_string())) {
                    Some(seen) => {
                        *seen = true;
                        matched += 1;
                    }
                    None => failures.push(format!("unexpected diagnostic: {d}")),
                }
            }
            for ((line, lint), seen) in &markers {
                if !seen {
                    failures.push(format!(
                        "{rel}:{line}: expected [{lint}] diagnostic did not fire"
                    ));
                }
            }
        }
    }

    if failures.is_empty() {
        println!("fixtures: {checked_files} files, {matched} expected diagnostics, all matched");
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("{f}");
        }
        eprintln!("bbc-lint --fixtures: {} failure(s)", failures.len());
        ExitCode::FAILURE
    }
}
