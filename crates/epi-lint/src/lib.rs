//! epi-lint — in-tree static analysis for the epistasis workspace.
//!
//! Run it as `epi3 lint` or `cargo run -p epi-lint`; findings print as
//! `file:line: CHECK-ID message` and `--json` emits the
//! machine-readable form. There is no allowlist: every check here has
//! zero findings on the tree, and a new finding is fixed, not excused.
//!
//! The compiler owns what it can see. rustc's `unsafe_code` lint (set in
//! the root `[workspace.lints]`) keeps `unsafe` to the SIMD core and the
//! `polling` shim; clippy's `undocumented_unsafe_blocks` demands a
//! `// SAFETY:` comment on every block; `unwrap_used`, `expect_used`,
//! `panic`, `indexing_slicing` and `iter_over_hash_type` inventory the
//! `epi-server` and `epi-coord` request paths; `disallowed_methods`
//! (`clippy.toml`) bans wall-clock reads in scan, merge and codec code.
//! A justified site carries `#[expect(<lint>, reason = "…")]` next to
//! the code, and `-D warnings` rejects an expectation that no longer
//! fires. What is left here is what no compiler lint can see:
//!
//! **unsafe-simd** — `SIMD-TF-DISPATCH`: a `#[target_feature]` kernel
//! called from a `SimdLevel` dispatch arm whose runtime-detected level
//! does not guarantee the kernel's features. A call from a context
//! without those features needs `unsafe` whatever the arm says, so
//! rustc cannot tell an `Avx2` arm that calls an AVX-512 kernel from a
//! correct one — UB on the wrong CPU.
//!
//! **locks** — `LOCK-ORDER`: two mutexes acquired in opposite orders in
//! two functions, or re-acquired while held.
//!
//! **protocol** — verbs, spec keys, and checkpoint record kinds each
//! live in several places that drift independently:
//! * `PROTO-VERB`: server dispatch vs client wrappers vs README table
//!   vs crate docs.
//! * `PROTO-KEY`: spec parser vs emitter vs README spec-keys paragraph.
//! * `PROTO-RECORD`: checkpoint encoder vs decoder — an asymmetric kind
//!   is a checkpoint that cannot be resumed.

#![forbid(unsafe_code)]

pub mod checks;
pub mod lexer;
pub mod source;

use checks::{Tree, CHECKS};
use source::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint finding, printable as `file:line: CHECK-ID message`.
#[derive(Debug, Clone)]
pub struct Finding {
    pub check: String,
    pub file: String,
    pub line: usize,
    pub message: String,
    /// The trimmed source line the finding points at.
    pub excerpt: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: {} {}",
            self.file, self.line, self.check, self.message
        )
    }
}

/// Result of a lint run.
pub struct LintReport {
    pub findings: Vec<Finding>,
}

/// Directories under the repo root that hold lintable Rust sources.
const SOURCE_ROOTS: &[&str] = &["crates", "src", "shims", "tests", "benches"];

/// Walk the workspace and lex every `.rs` file.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for top in SOURCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut out = Vec::new();
    files.sort();
    for path in files {
        let text = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push(SourceFile::new(rel, text));
    }
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the named checks (all when `only` is empty) over an
/// already-built tree. This is the seam the fixture tests use.
pub fn lint_tree(tree: &Tree, only: &[String]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, _, run) in CHECKS {
        if only.is_empty() || only.iter().any(|o| o == name) {
            run(tree, &mut findings);
        }
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.check, &a.message).cmp(&(&b.file, b.line, &b.check, &b.message))
    });
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.check == b.check);
    findings
}

/// Full run: collect sources under `root` and lint them.
pub fn run_lint(root: &Path, only: &[String]) -> Result<LintReport, String> {
    let files = collect_sources(root).map_err(|e| format!("walking {}: {e}", root.display()))?;
    if files.is_empty() {
        return Err(format!("no Rust sources found under {}", root.display()));
    }
    let readme_path = root.join("README.md");
    let readme = fs::read_to_string(&readme_path)
        .ok()
        .map(|t| ("README.md".to_string(), t));
    let tree = Tree { files, readme };
    Ok(LintReport {
        findings: lint_tree(&tree, only),
    })
}

// ------------------------------------------------------------- output

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"check\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\",\"excerpt\":\"{}\"}}",
        json_escape(&f.check),
        json_escape(&f.file),
        f.line,
        json_escape(&f.message),
        json_escape(&f.excerpt),
    )
}

impl LintReport {
    pub fn to_json(&self) -> String {
        let findings: Vec<String> = self.findings.iter().map(finding_json).collect();
        format!(
            "{{\"findings\":[{}],\"ok\":{}}}",
            findings.join(","),
            self.findings.is_empty(),
        )
    }

    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!("epi-lint: {} finding(s)\n", self.findings.len()));
        out
    }
}

/// `--list` output: each nameable check with its IDs.
pub fn list_checks() -> String {
    let mut out = String::new();
    for (name, desc, _) in CHECKS {
        out.push_str(&format!("{name:12} {desc}\n"));
    }
    out
}
