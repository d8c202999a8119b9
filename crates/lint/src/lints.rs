//! The per-file lint catalog (L1, L2, L5 and the `reference.rs` import
//! rule of L3), plus allow-annotation parsing and test-code exemption.
//!
//! Catalog (see `LINTS.md` at the repo root for rationale and blessed
//! patterns):
//!
//! * **L1 `determinism`** — no `HashMap`/`HashSet` with the default
//!   (randomly seeded) hasher, no `Instant::now`/`SystemTime`/`thread_rng`
//!   in non-bench library code. Wall-clock reads are additionally fenced by
//!   the blessed-clock pattern: the only file allowed to touch
//!   `Instant::now`/`SystemTime` at all is `crates/obs/src/clock.rs` (the
//!   `bbc_obs::WallClock` impl) — everything else routes timing through a
//!   `&dyn bbc_obs::Clock`.
//! * **L2 `narrowing-cast`** — no bare `as u32`/`as u16`/`as u8` in the
//!   row-width-critical files; conversions go through
//!   `RowWord::from_u64`/`widen` or carry a reasoned allow.
//! * **L3 `layering`** — (here) `reference.rs` may not import from
//!   `engine`/`landmark`; the manifest direction rules live in
//!   [`crate::layering`].
//! * **L5 `panic`** — no `.unwrap()`/`.expect(…)`/`panic!`/`todo!`/
//!   `unimplemented!` in non-test library code without a reasoned allow.
//!
//! Suppressions are inline comments of the form
//! `// bbc-lint: allow(<lint>, <reason>)`; an allow covers its own line and
//! the next line, must carry a non-empty reason, and must actually suppress
//! something (a dead allow is itself a diagnostic, so annotations cannot
//! rot in place).

use std::collections::BTreeMap;

use crate::lexer::{lex, Token, TokenKind};

/// One machine-readable finding: printed as `file:line: [lint] message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Lint id (`determinism`, `narrowing-cast`, `layering`, `panic`,
    /// `reference-drift`, `malformed-allow`, `unused-allow`).
    pub lint: &'static str,
    /// Human explanation with the repair options.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// Per-file rule configuration, derived from the file's repo path in
/// workspace mode or from a `// bbc-lint-fixture:` header in fixture mode.
#[derive(Clone, Debug, Default)]
pub struct FileRules {
    /// Apply L2 (`narrowing-cast`): true for the row-width-critical files.
    pub narrowing: bool,
    /// Skip L1 (`determinism`): true for the bench harness crate.
    pub bench: bool,
    /// Apply the `reference.rs` import restriction (part of L3).
    pub reference_imports: bool,
    /// The blessed wall-clock boundary (`bbc_obs::WallClock` only): exempt
    /// from the L1 `Instant::now`/`SystemTime` checks while every other L1
    /// rule still applies.
    pub clock: bool,
}

/// The single file allowed to read the wall clock directly: the
/// `bbc_obs::WallClock` impl. Everything else takes a `&dyn bbc_obs::Clock`
/// so timing stays injectable (and deterministic under `ManualClock`).
pub const BLESSED_CLOCK_FILE: &str = "crates/obs/src/clock.rs";

/// Repo-relative paths where bare narrowing casts are forbidden (L2): the
/// row-width kernels and the engine hot paths that feed them.
pub const NARROWING_FILES: &[&str] = &[
    "crates/graph/src/rows.rs",
    "crates/graph/src/csr.rs",
    "crates/graph/src/blocks.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/row_store.rs",
    "crates/core/src/best_response.rs",
    "crates/core/src/landmark.rs",
];

impl FileRules {
    /// Rules for a repo file, keyed by its repo-relative path.
    pub fn for_repo_path(rel: &str) -> Self {
        Self {
            narrowing: NARROWING_FILES.contains(&rel),
            bench: rel.starts_with("crates/bench/"),
            reference_imports: rel == "crates/core/src/reference.rs",
            clock: rel == BLESSED_CLOCK_FILE,
        }
    }

    /// Rules from a fixture header comment: whitespace-separated flags
    /// after `bbc-lint-fixture:`, e.g. `// bbc-lint-fixture: narrowing`.
    pub fn apply_fixture_flags(&mut self, flags: &str) {
        for flag in flags.split_whitespace() {
            match flag {
                "narrowing" => self.narrowing = true,
                "bench" => self.bench = true,
                "reference" => self.reference_imports = true,
                "clock" => self.clock = true,
                _ => {}
            }
        }
    }
}

/// An inline suppression parsed from a comment.
#[derive(Clone, Debug)]
struct Allow {
    /// The comment's line; the allow covers this line and the next.
    line: u32,
    lint: String,
    /// Set once the allow suppressed at least one diagnostic.
    used: bool,
}

/// Lints one file's source text. `file` is the path used in diagnostics.
pub fn lint_source(file: &str, src: &str, rules: &FileRules) -> Vec<Diagnostic> {
    let tokens = lex(src);
    let mut out = Vec::new();
    let mut allows = collect_allows(file, &tokens, &mut out);
    let test_lines = test_spans(&tokens);
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();

    let mut raw = Vec::new();
    if !rules.bench {
        determinism(file, &code, rules.clock, &mut raw);
    }
    if rules.narrowing {
        narrowing(file, &code, &mut raw);
    }
    if rules.reference_imports {
        reference_imports(file, &code, &mut raw);
    }
    panic_freedom(file, &code, &mut raw);

    for d in raw {
        if test_lines.contains(&d.line) {
            continue;
        }
        // Same-line allows win over previous-line ones, so that consecutive
        // annotated lines each consume their own annotation rather than the
        // first allow absorbing its neighbour's diagnostic.
        let hit = allows
            .iter()
            .position(|a| a.lint == d.lint && a.line == d.line)
            .or_else(|| {
                allows
                    .iter()
                    .position(|a| a.lint == d.lint && a.line + 1 == d.line)
            });
        if let Some(i) = hit {
            allows[i].used = true;
            continue;
        }
        out.push(d);
    }

    for a in &allows {
        if !a.used {
            out.push(Diagnostic {
                file: file.to_string(),
                line: a.line,
                lint: "unused-allow",
                message: format!(
                    "allow({}) suppresses nothing on this or the next line; remove it",
                    a.lint
                ),
            });
        }
    }

    out.sort();
    // One diagnostic per (line, lint): `use crate::engine::…` would
    // otherwise fire both the path rule and the use-tree rule.
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.lint == b.lint);
    out
}

/// Extracts `bbc-lint: allow(<lint>, <reason>)` annotations from comments;
/// malformed ones (bad syntax, unknown lint id, missing reason) become
/// diagnostics immediately.
fn collect_allows(file: &str, tokens: &[Token], out: &mut Vec<Diagnostic>) -> Vec<Allow> {
    const SUPPRESSIBLE: &[&str] = &["determinism", "narrowing-cast", "layering", "panic"];
    let mut allows = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        // Anchored at the start of the comment (after the `//`/`/*`/doc
        // markers): prose *describing* the syntax never parses as an
        // annotation, while a typo'd trailing annotation still does — and
        // anything the parser rejects leaves the underlying lint firing.
        let body = t.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("bbc-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let mut bad = |msg: String| {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                lint: "malformed-allow",
                message: msg,
            });
        };
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|a| a.split_once(')'))
            .map(|(inside, _)| inside)
        else {
            bad("expected `bbc-lint: allow(<lint>, <reason>)`".to_string());
            continue;
        };
        let (lint, reason) = match args.split_once(',') {
            Some((l, r)) => (l.trim(), r.trim()),
            None => (args.trim(), ""),
        };
        if !SUPPRESSIBLE.contains(&lint) {
            bad(format!(
                "unknown or unsuppressible lint `{lint}` (suppressible: {})",
                SUPPRESSIBLE.join(", ")
            ));
            continue;
        }
        if reason.is_empty() {
            bad(format!(
                "allow({lint}) needs a written reason: allow({lint}, <why this is sound>)"
            ));
            continue;
        }
        allows.push(Allow {
            line: t.line,
            lint: lint.to_string(),
            used: false,
        });
    }
    allows
}

/// Lines belonging to test-only items: any item (or statement) introduced
/// by an attribute group containing the identifier `test` — `#[test]`,
/// `#[cfg(test)]`, `#[cfg(all(test, …))]` — including the whole brace body
/// of a `#[cfg(test)] mod tests { … }`.
fn test_spans(tokens: &[Token]) -> std::collections::BTreeSet<u32> {
    let code: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    let mut lines = std::collections::BTreeSet::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[") {
            let (end, has_test) = scan_attr(&code, i + 1);
            if has_test {
                let stop = skip_item(&code, end + 1);
                let from = code[i].line;
                let to = code.get(stop.saturating_sub(1)).map_or(from, |t| t.line);
                for l in from..=to {
                    lines.insert(l);
                }
                i = stop;
                continue;
            }
            i = end + 1;
            continue;
        }
        i += 1;
    }
    lines
}

/// From the `[` at `open`, returns (index of matching `]`, whether the
/// group contains the ident `test`).
fn scan_attr(code: &[&Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut has_test = false;
    let mut i = open;
    while i < code.len() {
        match code[i].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (i, has_test);
                }
            }
            "test" if code[i].kind == TokenKind::Ident => has_test = true,
            _ => {}
        }
        i += 1;
    }
    (code.len().saturating_sub(1), has_test)
}

/// Skips one item starting at `i` (past the introducing attribute):
/// further attributes, then either a `{ … }` body or a terminating `;`.
/// Returns the index just past the item.
fn skip_item(code: &[&Token], mut i: usize) -> usize {
    // Subsequent attributes on the same item.
    while i < code.len() && code[i].text == "#" && code.get(i + 1).is_some_and(|t| t.text == "[") {
        let (end, _) = scan_attr(code, i + 1);
        i = end + 1;
    }
    let mut paren = 0i64;
    let mut bracket = 0i64;
    while i < code.len() {
        match code[i].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            ";" if paren == 0 && bracket == 0 => return i + 1,
            "{" if paren == 0 && bracket == 0 => {
                let mut depth = 0i64;
                while i < code.len() {
                    match code[i].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                return i + 1;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                return i;
            }
            _ => {}
        }
        i += 1;
    }
    i
}

fn push(out: &mut Vec<Diagnostic>, file: &str, line: u32, lint: &'static str, message: String) {
    out.push(Diagnostic {
        file: file.to_string(),
        line,
        lint,
        message,
    });
}

/// L1: default-hasher collections and wall-clock / OS-entropy sources.
/// `clock` marks the blessed wall-clock boundary ([`BLESSED_CLOCK_FILE`]):
/// there — and only there — the `Instant::now`/`SystemTime` checks are
/// waived, while the hasher and entropy rules still apply.
fn determinism(file: &str, code: &[&Token], clock: bool, out: &mut Vec<Diagnostic>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "HashMap" | "HashSet" if !has_explicit_hasher(code, i) => {
                push(
                    out,
                    file,
                    t.line,
                    "determinism",
                    format!(
                        "{} with the default randomly-seeded hasher; use \
                         bbc_core::det::{} (version-pinned FNV-1a) or spell out a \
                         deterministic BuildHasher",
                        t.text,
                        if t.text == "HashMap" {
                            "DetHashMap"
                        } else {
                            "DetHashSet"
                        },
                    ),
                );
            }
            "RandomState" | "DefaultHasher" => push(
                out,
                file,
                t.line,
                "determinism",
                format!(
                    "{} is randomly seeded; use the pinned FNV-1a hasher instead",
                    t.text
                ),
            ),
            "thread_rng" => push(
                out,
                file,
                t.line,
                "determinism",
                format!(
                    "{} is nondeterministic; library code must take seeds/clocks as inputs",
                    t.text
                ),
            ),
            "SystemTime" if !clock => push(
                out,
                file,
                t.line,
                "determinism",
                "SystemTime bypasses the blessed clock boundary; take a \
                 &dyn bbc_obs::Clock (bbc_obs::WallClock is the only sanctioned \
                 wall-clock source)"
                    .to_string(),
            ),
            "Instant"
                if !clock
                    && code.get(i + 1).is_some_and(|t| t.text == ":")
                    && code.get(i + 2).is_some_and(|t| t.text == ":")
                    && code.get(i + 3).is_some_and(|t| t.text == "now") =>
            {
                push(
                    out,
                    file,
                    t.line,
                    "determinism",
                    "Instant::now bypasses the blessed clock boundary; take a \
                     &dyn bbc_obs::Clock (bbc_obs::WallClock is the only sanctioned \
                     wall-clock source)"
                        .to_string(),
                );
            }
            _ => {}
        }
    }
}

/// True when `HashMap`/`HashSet` at `i` is written with an explicit hasher
/// type parameter (3 / 2 generic arguments respectively — the trailing
/// `S: BuildHasher` slot is spelled out).
fn has_explicit_hasher(code: &[&Token], i: usize) -> bool {
    let need = if code[i].text == "HashMap" { 3 } else { 2 };
    let mut j = i + 1;
    // Tolerate the turbofish form `HashMap::<…>`.
    if code.get(j).is_some_and(|t| t.text == ":") && code.get(j + 1).is_some_and(|t| t.text == ":")
    {
        j += 2;
    }
    if code.get(j).is_none_or(|t| t.text != "<") {
        return false;
    }
    let mut depth = 0i64;
    let mut args = 1usize;
    while j < code.len() {
        match code[j].text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return args >= need;
                }
            }
            "," if depth == 1 => args += 1,
            "(" | ";" | "{" => return false, // comparison operator, not generics
            _ => {}
        }
        j += 1;
    }
    false
}

/// L2: bare `as u32` / `as u16` / `as u8` / `as i16` / `as i8` in
/// row-width-critical files.
fn narrowing(file: &str, code: &[&Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in code.iter().enumerate() {
        if t.text == "as"
            && t.kind == TokenKind::Ident
            && code
                .get(i + 1)
                .is_some_and(|n| matches!(n.text.as_str(), "u32" | "u16" | "u8" | "i16" | "i8"))
        {
            push(
                out,
                file,
                t.line,
                "narrowing-cast",
                format!(
                    "bare `as {}` in a row-width-critical file; route the conversion \
                     through RowWord::from_u64/widen or justify it",
                    code[i + 1].text
                ),
            );
        }
    }
}

/// The `reference.rs` half of L3: the frozen executable spec may not reach
/// into the optimized `engine`/`landmark` modules, or it would stop being
/// an independent differential baseline.
fn reference_imports(file: &str, code: &[&Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in code.iter().enumerate() {
        let offending = |name: &str| matches!(name, "engine" | "landmark");
        let flagged = match t.text.as_str() {
            // `crate::engine…` / `super::landmark…` anywhere.
            "crate" | "super" => {
                code.get(i + 1).is_some_and(|t| t.text == ":")
                    && code.get(i + 2).is_some_and(|t| t.text == ":")
                    && code.get(i + 3).is_some_and(|t| offending(&t.text))
            }
            // `use …{… engine …}` trees: any path segment named engine/landmark
            // inside a use statement.
            "use" => {
                let mut j = i + 1;
                let mut hit = false;
                while j < code.len() && code[j].text != ";" {
                    if code[j].kind == TokenKind::Ident && offending(&code[j].text) {
                        hit = true;
                    }
                    j += 1;
                }
                hit
            }
            _ => false,
        };
        if flagged {
            push(
                out,
                file,
                t.line,
                "layering",
                "reference.rs is the frozen differential baseline; it may not import \
                 from the engine/landmark modules it exists to check"
                    .to_string(),
            );
        }
    }
}

/// L5: panicking constructs in non-test library code.
fn panic_freedom(file: &str, code: &[&Token], out: &mut Vec<Diagnostic>) {
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let flagged = match t.text.as_str() {
            "unwrap" | "expect" => {
                code.get(i.wrapping_sub(1)).is_some_and(|p| p.text == ".")
                    && code.get(i + 1).is_some_and(|n| n.text == "(")
            }
            "panic" | "todo" | "unimplemented" => code.get(i + 1).is_some_and(|n| n.text == "!"),
            _ => false,
        };
        if flagged {
            push(
                out,
                file,
                t.line,
                "panic",
                format!(
                    "{} in library code; return a typed Error or add \
                     `// bbc-lint: allow(panic, <why the invariant holds>)`",
                    match t.text.as_str() {
                        "unwrap" => ".unwrap()".to_string(),
                        "expect" => ".expect(…)".to_string(),
                        other => format!("{other}!"),
                    }
                ),
            );
        }
    }
}

/// FNV-1a 64-bit over raw bytes: the reference-drift (L4) content hash.
/// Same constants as the version-pinned hasher in `bbc_core::det`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parses a fixture header (`// bbc-lint-fixture: <flags…>`) from the
/// leading comments of `src`, if present.
pub fn fixture_rules(src: &str) -> FileRules {
    let mut rules = FileRules::default();
    for t in lex(src).iter().filter(|t| t.is_comment()) {
        if let Some(at) = t.text.find("bbc-lint-fixture:") {
            rules.apply_fixture_flags(&t.text[at + "bbc-lint-fixture:".len()..]);
        }
    }
    rules
}

/// Expected-diagnostic markers in fixture files: a comment containing
/// `~ ERROR <lint-id>` asserts that lint fires on that comment's line.
pub fn fixture_markers(src: &str) -> BTreeMap<(u32, String), bool> {
    let mut markers = BTreeMap::new();
    for t in lex(src).iter().filter(|t| t.is_comment()) {
        let mut rest = t.text.as_str();
        while let Some(at) = rest.find("~ ERROR ") {
            rest = &rest[at + "~ ERROR ".len()..];
            let id: String = rest
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                .collect();
            if !id.is_empty() {
                markers.insert((t.line, id), false);
            }
        }
    }
    markers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(src: &str, rules: &FileRules) -> Vec<(&'static str, u32)> {
        lint_source("f.rs", src, rules)
            .into_iter()
            .map(|d| (d.lint, d.line))
            .collect()
    }

    #[test]
    fn default_hasher_maps_fire_and_pinned_ones_do_not() {
        let rules = FileRules::default();
        assert_eq!(
            ids("use std::collections::HashMap;", &rules),
            [("determinism", 1)]
        );
        assert_eq!(
            ids("fn f(m: HashMap<u32, u64>) {}", &rules),
            [("determinism", 1)]
        );
        assert!(ids("type D = HashMap<K, V, BuildHasherDefault<Fnv1a>>;", &rules).is_empty());
        assert!(ids("type S = HashSet<K, DetState>;", &rules).is_empty());
        assert_eq!(
            ids("let m = HashMap::<K, V>::new();", &rules),
            [("determinism", 1)]
        );
    }

    #[test]
    fn comparison_with_less_than_is_not_generics() {
        // `HashMap < x` would only arise in expression position; the scanner
        // must not read the `<` as an argument list that never closes.
        assert_eq!(
            ids("let b = HashMap < x;", &FileRules::default()),
            [("determinism", 1)]
        );
    }

    #[test]
    fn clock_and_entropy_sources_fire() {
        let rules = FileRules::default();
        assert_eq!(ids("let t = Instant::now();", &rules), [("determinism", 1)]);
        assert_eq!(
            ids("let t = SystemTime::now();", &rules),
            [("determinism", 1)]
        );
        assert_eq!(ids("let r = thread_rng();", &rules), [("determinism", 1)]);
        // Plain `Instant` in a type position is fine (bench plumbing).
        assert!(ids("fn f(t: Instant) {}", &rules).is_empty());
        // And the bench crate is exempt from L1 wholesale.
        let bench = FileRules {
            bench: true,
            ..FileRules::default()
        };
        assert!(ids("let t = Instant::now();", &bench).is_empty());
    }

    #[test]
    fn blessed_clock_file_may_read_the_wall_clock_but_nothing_else() {
        let clock = FileRules {
            clock: true,
            ..FileRules::default()
        };
        // The waiver covers exactly the wall-clock sources…
        assert!(ids("let t = Instant::now();", &clock).is_empty());
        assert!(ids("let t = SystemTime::now();", &clock).is_empty());
        // …while the rest of L1 still applies inside the blessed file.
        assert_eq!(ids("let r = thread_rng();", &clock), [("determinism", 1)]);
        assert_eq!(
            ids("use std::collections::HashMap;", &clock),
            [("determinism", 1)]
        );
        // And the repo path map blesses only the WallClock impl.
        assert!(FileRules::for_repo_path(BLESSED_CLOCK_FILE).clock);
        assert!(!FileRules::for_repo_path("crates/obs/src/lib.rs").clock);
        assert!(!FileRules::for_repo_path("crates/serve/src/loadgen.rs").clock);
    }

    #[test]
    fn narrowing_casts_fire_only_where_configured() {
        let narrow = FileRules {
            narrowing: true,
            ..FileRules::default()
        };
        assert_eq!(ids("let x = y as u32;", &narrow), [("narrowing-cast", 1)]);
        assert_eq!(ids("let x = y as u16;", &narrow), [("narrowing-cast", 1)]);
        // The i16 row word and its smaller signed sibling.
        assert_eq!(ids("let x = y as i16;", &narrow), [("narrowing-cast", 1)]);
        assert_eq!(ids("let x = y as i8;", &narrow), [("narrowing-cast", 1)]);
        assert!(ids("let x = y as u64;", &narrow).is_empty());
        assert!(ids("let x = y as i32;", &narrow).is_empty());
        assert!(ids("let x = y as u32;", &FileRules::default()).is_empty());
        // Every file that holds row-width code is on the list.
        for rel in [
            "crates/graph/src/rows.rs",
            "crates/graph/src/csr.rs",
            "crates/core/src/engine.rs",
            "crates/core/src/row_store.rs",
        ] {
            assert!(FileRules::for_repo_path(rel).narrowing, "{rel}");
        }
    }

    #[test]
    fn panic_constructs_fire_but_fallible_combinators_do_not() {
        let rules = FileRules::default();
        assert_eq!(ids("let x = o.unwrap();", &rules), [("panic", 1)]);
        assert_eq!(ids("let x = o.expect(\"m\");", &rules), [("panic", 1)]);
        assert_eq!(ids("panic!(\"boom\");", &rules), [("panic", 1)]);
        assert_eq!(ids("todo!()", &rules), [("panic", 1)]);
        assert!(ids("let x = o.unwrap_or(0);", &rules).is_empty());
        assert!(ids("let x = o.unwrap_or_else(f);", &rules).is_empty());
        // `unwrap` in a string or comment is invisible.
        assert!(ids("let s = \"x.unwrap()\"; // .unwrap()", &rules).is_empty());
    }

    #[test]
    fn test_items_are_exempt() {
        let rules = FileRules::default();
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { o.unwrap(); }\n}\n";
        assert!(ids(src, &rules).is_empty());
        let src = "#[test]\nfn t() { o.unwrap(); }\nfn lib() { o.unwrap(); }\n";
        assert_eq!(ids(src, &rules), [("panic", 3)]);
    }

    #[test]
    fn allows_suppress_on_their_line_and_the_next() {
        let rules = FileRules::default();
        assert!(ids(
            "o.unwrap(); // bbc-lint: allow(panic, locally provable)",
            &rules
        )
        .is_empty());
        assert!(ids(
            "// bbc-lint: allow(panic, locally provable)\no.unwrap();",
            &rules
        )
        .is_empty());
        // Two lines down is out of range — and the allow itself goes stale.
        let src = "// bbc-lint: allow(panic, too far)\n\no.unwrap();";
        assert_eq!(ids(src, &rules), [("unused-allow", 1), ("panic", 3)]);
    }

    #[test]
    fn malformed_allows_are_diagnostics() {
        let rules = FileRules::default();
        assert_eq!(
            ids("o.unwrap(); // bbc-lint: allow(panic)", &rules),
            [("malformed-allow", 1), ("panic", 1)]
        );
        assert_eq!(
            ids("// bbc-lint: allow(no-such-lint, reason)", &rules),
            [("malformed-allow", 1)]
        );
        assert_eq!(
            ids("// bbc-lint: allowing things", &rules),
            [("malformed-allow", 1)]
        );
    }

    #[test]
    fn unused_allows_are_diagnostics() {
        let rules = FileRules::default();
        assert_eq!(
            ids(
                "// bbc-lint: allow(panic, nothing here panics)\nlet x = 1;",
                &rules
            ),
            [("unused-allow", 1)]
        );
    }

    #[test]
    fn reference_import_rule() {
        let rules = FileRules {
            reference_imports: true,
            ..FileRules::default()
        };
        assert_eq!(
            ids("use crate::engine::DistanceEngine;", &rules),
            [("layering", 1)]
        );
        assert_eq!(
            ids("use crate::{eval, landmark};", &rules),
            [("layering", 1)]
        );
        assert_eq!(
            ids("let e = crate::engine::new();", &rules),
            [("layering", 1)]
        );
        assert!(ids("use crate::{eval, spec};", &rules).is_empty());
        assert!(ids("use bbc_graph::BfsBuffer;", &rules).is_empty());
    }

    #[test]
    fn fnv1a_matches_the_pinned_vector() {
        // Classic FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fixture_marker_parsing() {
        let src = "let x = 1; //~ ERROR panic\n// plain comment\n";
        let m = fixture_markers(src);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(&(1, "panic".to_string())));
    }
}
