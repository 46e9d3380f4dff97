//! The check suite. Each submodule exposes `run(&Tree, &mut Vec<Finding>)`
//! and is individually nameable via `epi3 lint --check <name>`.

pub mod locks;
pub mod protocol;
pub mod unsafe_simd;

use crate::source::SourceFile;
use crate::Finding;

/// Everything a check can see: the lexed Rust sources plus the README
/// (the protocol check cross-references its wire-protocol tables).
pub struct Tree {
    pub files: Vec<SourceFile>,
    /// `(path, text)` of README.md when present.
    pub readme: Option<(String, String)>,
}

impl Tree {
    pub fn file(&self, suffix: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.path.ends_with(suffix))
    }
}

/// One registry entry: (name, description, run).
pub type Check = (&'static str, &'static str, fn(&Tree, &mut Vec<Finding>));

/// Registry of nameable checks, in report order.
pub const CHECKS: &[Check] = &[
    (
        "unsafe-simd",
        "SIMD-TF-DISPATCH: target_feature kernels behind a matching SimdLevel arm",
        unsafe_simd::run,
    ),
    ("locks", "LOCK-ORDER: lock-order discipline", locks::run),
    (
        "protocol",
        "PROTO-VERB, PROTO-KEY, PROTO-RECORD: wire protocol client/server/README conformance",
        protocol::run,
    ),
];

/// Build a finding anchored at a byte offset of a source file.
pub fn finding(f: &SourceFile, byte: usize, check: &str, message: String) -> Finding {
    let line = f.lx.line_of(byte);
    Finding {
        check: check.to_string(),
        file: f.path.clone(),
        line,
        message,
        excerpt: f.line_text(line).trim_start().to_string(),
    }
}

/// Two adjacent single-char punct tokens forming one operator (`=>`,
/// `::`, `->`); adjacency distinguishes `=>` from `= >`.
pub fn punct2(f: &SourceFile, i: usize, a: char, b: char) -> bool {
    f.is_punct(i, a) && f.is_punct(i + 1, b) && f.sig[i].end == f.sig[i + 1].start
}

/// Inner text of a string-literal token: prefix (`b`/`r`/`br`/`c`…),
/// hashes, and quotes stripped.
pub fn str_content(raw: &str) -> &str {
    let s = raw.trim_start_matches(['b', 'r', 'c']);
    let s = s.trim_start_matches('#');
    let s = s.strip_prefix('"').unwrap_or(s);
    let s = s.trim_end_matches('#');
    s.strip_suffix('"').unwrap_or(s)
}

/// Last identifier of the receiver chain ending just before sig index
/// `dot` (the `.` of a method call): `self.shared.state.lock()` → `state`.
pub fn receiver_last_ident(f: &SourceFile, dot: usize) -> Option<&str> {
    let prev = f.sig.get(dot.checked_sub(1)?)?;
    if prev.kind == crate::lexer::Kind::Ident {
        Some(f.tok_text(*prev))
    } else {
        None
    }
}
