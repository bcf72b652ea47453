//! # sleepy-lint
//!
//! Determinism-zone static analysis for the sleepy workspace.
//!
//! Every load-bearing claim this repro makes — byte-identical
//! artifacts across thread counts, telemetry modes, and multi-process
//! shard merges, and the bit-identical in-place-vs-rebuild repair
//! oracle — is pinned dynamically by golden-run tests. Those tests
//! cannot see a freshly *introduced* `HashMap` iteration or a stray
//! `thread_rng` until its nondeterminism happens to change bytes under
//! test. This crate turns the determinism discipline into a
//! machine-checked property of the source tree:
//!
//! * **no-hash-collections** — `HashMap`/`HashSet` are forbidden in
//!   determinism zones (everything except telemetry internals and
//!   tests); their iteration order can leak into artifacts.
//! * **no-wall-clock** — `Instant::now`/`SystemTime::now` are
//!   forbidden outside `crates/telemetry` and allowlisted shims.
//! * **no-ambient-entropy** — `thread_rng`/`from_entropy`/
//!   `rand::random` are forbidden everywhere; randomness flows through
//!   the SplitMix64 domains in `crates/fleet/src/seed.rs`.
//! * **seed-domain-discipline** — the seed-domain constants must have
//!   unique tags and unique values.
//! * **telemetry-purity** — telemetry calls are forbidden inside the
//!   pure-arithmetic zones, so the side-channel invariant is
//!   structural, not conventional.
//!
//! Zones live in the root `lint.toml`; escape hatches are inline
//! `// sleepy-lint: allow(<rule>): <justification>` comments (the
//! justification is mandatory), and `deny(<rule>)`/`end-deny(<rule>)`
//! fences re-impose a rule inside an otherwise-exempt file (used to
//! keep the `AbsorbTotals` arithmetic telemetry-free in a file that
//! legitimately opens spans elsewhere).
//!
//! The scanner is a hand-rolled lexer ([`lexer`]) that masks comments,
//! strings (escapes, raw strings, byte strings), and char literals, so
//! a banned name inside a string or doc comment never fires — and no
//! external parser dependency (`syn` etc.) is needed, matching the
//! workspace's vendored-deps constraint.
//!
//! Run it as `fleet lint` or the standalone `sleepy-lint` binary; both
//! exit nonzero when diagnostics are found and support `--json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lexer;
pub mod rules;

pub use config::Config;
pub use rules::{check_source, Diagnostic, RULES};

use std::path::{Path, PathBuf};

/// The configuration file the workspace root is identified by.
pub const CONFIG_FILE: &str = "lint.toml";

/// A whole-workspace lint result.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is lint-clean.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The machine-readable rendering (`--json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"files_scanned\": ");
        s.push_str(&self.files_scanned.to_string());
        s.push_str(",\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {\"file\": ");
            push_json_str(&mut s, &d.file);
            s.push_str(", \"line\": ");
            s.push_str(&d.line.to_string());
            s.push_str(", \"rule\": ");
            push_json_str(&mut s, &d.rule);
            s.push_str(", \"message\": ");
            push_json_str(&mut s, &d.message);
            s.push('}');
        }
        if !self.diagnostics.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}\n");
        s
    }
}

/// Minimal JSON string escaping (control chars, quote, backslash).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Collects every `.rs` file under `root`, repo-relative with forward
/// slashes, honoring `exclude` patterns, in sorted (deterministic)
/// order. A lint about determinism must itself be deterministic.
pub fn workspace_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let rel = match path.strip_prefix(root) {
                Ok(r) => r
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/"),
                Err(_) => continue,
            };
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                // Never descend into VCS metadata or excluded trees.
                let dir_rel = format!("{rel}/");
                if name.starts_with('.')
                    || cfg.exclude.iter().any(|p| config::pattern_matches(&dir_rel, p))
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs")
                && !cfg.exclude.iter().any(|p| config::pattern_matches(&rel, p))
            {
                out.push((rel, path));
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the workspace rooted at `root` using its `lint.toml`.
///
/// # Errors
///
/// A description of a missing/unreadable config or an I/O failure.
/// Findings are *not* errors — they come back in the [`Report`].
pub fn run(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join(CONFIG_FILE);
    let text = std::fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = Config::parse(&text).map_err(|e| format!("{}: {e}", cfg_path.display()))?;
    run_with_config(root, &cfg)
}

/// Lints the workspace with an already-parsed config.
///
/// # Errors
///
/// I/O failures while walking or reading source files.
pub fn run_with_config(root: &Path, cfg: &Config) -> Result<Report, String> {
    let files =
        workspace_files(root, cfg).map_err(|e| format!("walking {}: {e}", root.display()))?;
    let mut diagnostics = Vec::new();
    let mut seed_file_seen = false;
    let seed_file = cfg.rules.get("seed-domain-discipline").and_then(|r| r.file.clone());
    for (rel, path) in &files {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if Some(rel.as_str()) == seed_file.as_deref() {
            seed_file_seen = true;
        }
        diagnostics.extend(rules::check_source(cfg, rel, &src));
    }
    // The seed-domain rule silently never running would be rot; fail
    // loudly if its file vanished out from under the config.
    if let Some(f) = seed_file {
        let enabled = cfg.rules.get("seed-domain-discipline").is_none_or(|r| r.enabled);
        if enabled && !seed_file_seen {
            diagnostics.push(Diagnostic {
                file: f.clone(),
                line: 1,
                rule: "seed-domain-discipline".to_string(),
                message: format!("configured seed file `{f}` was not found in the scan"),
            });
        }
    }
    diagnostics.sort();
    Ok(Report { diagnostics, files_scanned: files.len() })
}

/// Searches upward from `start` for a directory containing `lint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join(CONFIG_FILE).is_file() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

const USAGE: &str = "sleepy-lint — determinism-zone static analysis for the sleepy workspace

USAGE:
    sleepy-lint [--root DIR] [--json] [--list-rules]
    fleet lint  [--root DIR] [--json] [--list-rules]

Scans every .rs file in the workspace (vendor/ and target/ excluded)
and enforces the determinism-zone rules configured in lint.toml:
no-hash-collections, no-wall-clock, no-ambient-entropy,
seed-domain-discipline, telemetry-purity.

OPTIONS:
    --root DIR    workspace root (default: walk up from the current
                  directory to the nearest lint.toml)
    --json        machine-readable diagnostics on stdout
    --list-rules  print the rule catalog and exit
    --help        this text

EXIT CODE: 0 clean, 1 diagnostics found, 2 usage or I/O error.

Suppressions are inline and must carry a justification:
    // sleepy-lint: allow(<rule>): <why this one is safe>
Fenced re-enforcement inside exempt files:
    // sleepy-lint: deny(<rule>): <why this region must stay pure>
    ...
    // sleepy-lint: end-deny(<rule>)";

/// Writes `args` to stdout as `print!` does, except that a reader that
/// has gone away (`BrokenPipe`) is not an error: `--list-rules | head -1`
/// must neither panic nor change the exit code. Any other write failure
/// panics, as `print!`'s does.
fn print_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
    }
}

/// [`print_stdout`]'s twin for stderr: a closed stderr changes neither
/// the exit code nor the report, and any other write failure panics, as
/// `eprint!`'s does.
fn print_stderr(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stderr().write_fmt(args) {
        assert!(e.kind() == std::io::ErrorKind::BrokenPipe, "failed printing to stderr: {e}");
    }
}

/// The shared CLI driver behind `sleepy-lint` and `fleet lint`.
/// `args` excludes the program/subcommand name. Returns the exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--help" | "-h" => {
                print_stdout(format_args!("{USAGE}\n"));
                return 0;
            }
            "--list-rules" => {
                for r in RULES {
                    print_stdout(format_args!("{:24} {}\n", r.name, r.summary));
                }
                return 0;
            }
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    print_stderr(format_args!("sleepy-lint: missing value for --root\n"));
                    return 2;
                }
            },
            other => {
                print_stderr(format_args!("sleepy-lint: unknown flag `{other}` (try --help)\n"));
                return 2;
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_root(&cwd) {
                Some(r) => r,
                None => {
                    print_stderr(format_args!(
                        "sleepy-lint: no {CONFIG_FILE} found above {} (use --root)\n",
                        cwd.display()
                    ));
                    return 2;
                }
            }
        }
    };
    let report = match run(&root) {
        Ok(report) => report,
        Err(e) => {
            print_stderr(format_args!("sleepy-lint: {e}\n"));
            return 2;
        }
    };
    if json {
        print_stdout(format_args!("{}", report.to_json()));
    } else {
        for d in &report.diagnostics {
            print_stdout(format_args!("{}\n", d.render()));
        }
    }
    if report.is_clean() {
        print_stderr(format_args!(
            "sleepy-lint: clean — {} files scanned, {} rules enforced\n",
            report.files_scanned,
            RULES.len()
        ));
        0
    } else {
        print_stderr(format_args!(
            "sleepy-lint: {} diagnostic(s) in {} files scanned\n",
            report.diagnostics.len(),
            report.files_scanned
        ));
        1
    }
}
