//! Wire-protocol conformance.
//!
//! The protocol lives in four places that drift independently: the
//! server dispatch (`server.rs`), the client wrappers (`client.rs`), the
//! README wire-protocol table, and the `epi-server` crate docs. Spec
//! `key=` fields likewise live in the parser, the emitter, and the
//! README. Checkpoint record kinds live in an encoder and a decoder that
//! must stay symmetric.
//!
//! * `PROTO-VERB` — a verb dispatched, wrapped, or documented in one
//!   place but not the others.
//! * `PROTO-KEY` — a spec `key=` parsed but never emitted, emitted but
//!   never parsed, or undocumented.
//! * `PROTO-RECORD` — a checkpoint record kind written by the encoder
//!   with no decoder arm (or vice versa): a checkpoint that cannot be
//!   resumed.

use super::{punct2, str_content, Tree};
use crate::lexer::Kind;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeMap;

/// Occurrence map: item → (file, 1-based line of first sighting).
type Sites = BTreeMap<String, (String, usize)>;

pub fn run(tree: &Tree, out: &mut Vec<Finding>) {
    verbs(tree, out);
    spec_keys(tree, out);
    for suffix in ["epi-server/src/codec.rs", "epi-coord/src/checkpoint.rs"] {
        if let Some(f) = tree.file(suffix) {
            record_symmetry(f, out);
        }
    }
}

fn is_verb(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
        && s.chars().all(|c| c.is_ascii_uppercase() || c == '_')
}

fn is_key(s: &str) -> bool {
    !s.is_empty() && s.chars().all(|c| c.is_ascii_lowercase() || c == '_')
}

fn first_word(s: &str) -> &str {
    s.split_whitespace().next().unwrap_or("")
}

fn note(map: &mut Sites, item: &str, file: &str, line: usize) {
    map.entry(item.to_string())
        .or_insert_with(|| (file.to_string(), line));
}

fn report_diffs(sets: &[(&str, &Sites)], check: &str, what: &str, out: &mut Vec<Finding>) {
    let mut universe: Vec<&String> = Vec::new();
    for (_, s) in sets {
        for k in s.keys() {
            if !universe.contains(&k) {
                universe.push(k);
            }
        }
    }
    universe.sort();
    for item in universe {
        let missing: Vec<&str> = sets
            .iter()
            .filter(|(_, s)| !s.contains_key(item))
            .map(|(name, _)| *name)
            .collect();
        if missing.is_empty() {
            continue;
        }
        // anchor at the first source that has it
        let (file, line) = sets
            .iter()
            .find_map(|(_, s)| s.get(item))
            .cloned()
            .expect("item came from one of the sets");
        out.push(Finding {
            check: check.to_string(),
            file,
            line,
            message: format!("{what} `{item}` missing from {}", missing.join(", ")),
            excerpt: item.clone(),
        });
    }
}

// -------------------------------------------------------------- verbs

fn verbs(tree: &Tree, out: &mut Vec<Finding>) {
    let Some(server) = tree.file("epi-server/src/server.rs") else {
        return; // fixture trees without a server skip protocol checks
    };
    let mut server_set = Sites::new();
    for (i, t) in server.sig.iter().enumerate() {
        if t.kind != Kind::Str {
            continue;
        }
        let c = str_content(server.tok_text(*t));
        if is_verb(first_word(c))
            && (punct2(server, i + 1, '=', '>') || server.is_punct(i + 1, '|'))
        {
            note(
                &mut server_set,
                first_word(c),
                &server.path,
                server.lx.line_of(t.start),
            );
        }
    }

    let mut client_set = Sites::new();
    if let Some(client) = tree.file("epi-server/src/client.rs") {
        for (i, t) in client.sig.iter().enumerate() {
            // `send` is a whole round trip, `post` the write half of a
            // split one (WAIT): either puts a verb on the wire
            if t.kind != Kind::Ident
                || !matches!(client.tok_text(*t), "send" | "post")
                || !client.is_punct(i + 1, '(')
            {
                continue;
            }
            // everything inside send(…) — format! nesting included
            let mut depth = 0i64;
            let mut j = i + 1;
            while j < client.sig.len() {
                if client.sig[j].kind == Kind::Punct {
                    match client.tok_text(client.sig[j]) {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                } else if client.sig[j].kind == Kind::Str {
                    let w = first_word(str_content(client.tok_text(client.sig[j])));
                    if is_verb(w) {
                        note(
                            &mut client_set,
                            w,
                            &client.path,
                            client.lx.line_of(client.sig[j].start),
                        );
                    }
                }
                j += 1;
            }
        }
    }

    let mut readme_set = Sites::new();
    if let Some((path, text)) = &tree.readme {
        for (verb, line) in table_verbs(text) {
            note(&mut readme_set, &verb, path, line);
        }
    }

    let mut doc_set = Sites::new();
    if let Some(lib) = tree.file("epi-server/src/lib.rs") {
        // crate-doc table rows: `//! | `VERB …` | … |`
        let doc_text: String = lib
            .lx
            .toks
            .iter()
            .filter(|t| t.kind == Kind::LineComment)
            .map(|t| {
                let line = lib.lx.line_of(t.start);
                let body = lib
                    .tok_text(*t)
                    .trim_start_matches('/')
                    .trim_start_matches('!');
                format!("{line}\u{1}{body}\n")
            })
            .collect();
        for row in doc_text.lines() {
            let Some((line_no, body)) = row.split_once('\u{1}') else {
                continue;
            };
            if let Some(verb) = row_verb(body) {
                note(&mut doc_set, &verb, &lib.path, line_no.parse().unwrap_or(1));
            }
        }
    }

    report_diffs(
        &[
            ("server dispatch", &server_set),
            ("client wrappers", &client_set),
            ("README wire-protocol table", &readme_set),
            ("epi-server crate docs", &doc_set),
        ],
        "PROTO-VERB",
        "verb",
        out,
    );
}

/// `| \`VERB …\` | …` — the verb of one markdown table row, if any.
fn row_verb(line: &str) -> Option<String> {
    let l = line.trim();
    if !l.starts_with('|') {
        return None;
    }
    let tick0 = l.find('`')? + 1;
    let tick1 = l[tick0..].find('`')? + tick0;
    let w = first_word(&l[tick0..tick1]);
    is_verb(w).then(|| w.to_string())
}

/// Verbs from the markdown table whose header row names a `Request`
/// column: (verb, 1-based line).
fn table_verbs(text: &str) -> Vec<(String, usize)> {
    let mut found = Vec::new();
    let mut in_table = false;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            in_table = false;
            continue;
        }
        if trimmed.contains("Request") {
            in_table = true;
            continue;
        }
        if in_table {
            if let Some(v) = row_verb(line) {
                found.push((v, idx + 1));
            }
        }
    }
    found
}

// ---------------------------------------------------------- spec keys

fn spec_keys(tree: &Tree, out: &mut Vec<Finding>) {
    let Some(spec) = tree.file("epi-server/src/spec.rs") else {
        return;
    };
    let mut parsed = Sites::new();
    let mut emitted = Sites::new();

    // parse side: string arms of `match key { … }`, skipping nested
    // matches (whose arms are *values* like "v1", not keys)
    for (i, t) in spec.sig.iter().enumerate() {
        if t.kind == Kind::Ident
            && spec.tok_text(*t) == "match"
            && spec.is_ident(i + 1, "key")
            && spec.is_punct(i + 2, '{')
        {
            if let Some(close) = spec.match_brace(i + 2) {
                let mut j = i + 3;
                while j < close {
                    if spec.is_ident(j, "match") {
                        // skip the nested match's brace span entirely
                        let mut k = j + 1;
                        while k < close && !spec.is_punct(k, '{') {
                            k += 1;
                        }
                        if let Some(inner_close) = spec.match_brace(k) {
                            j = inner_close + 1;
                            continue;
                        }
                    }
                    if spec.sig[j].kind == Kind::Str && punct2(spec, j + 1, '=', '>') {
                        let w = first_word(str_content(spec.tok_text(spec.sig[j])));
                        if is_key(w) {
                            note(
                                &mut parsed,
                                w,
                                &spec.path,
                                spec.lx.line_of(spec.sig[j].start),
                            );
                        }
                    }
                    j += 1;
                }
            }
        }
        // flag-style parse: `== "mi"`
        if t.kind == Kind::Str && i >= 2 && punct2(spec, i - 2, '=', '=') {
            let w = str_content(spec.tok_text(*t)).trim();
            if is_key(w) {
                note(&mut parsed, w, &spec.path, spec.lx.line_of(t.start));
            }
        }
        // emit side: `key=` inside any string literal, plus the bare
        // `mi` flag token
        if t.kind == Kind::Str && !spec.in_test(t.start) {
            let c = str_content(spec.tok_text(*t));
            for key in keys_in_literal(c) {
                note(&mut emitted, &key, &spec.path, spec.lx.line_of(t.start));
            }
            if c.trim() == "mi" {
                note(&mut emitted, "mi", &spec.path, spec.lx.line_of(t.start));
            }
        }
    }

    // README: the paragraph introduced by "spec keys:" up to its first
    // blank line; keys are the backticked `key=…` spans plus bare `mi`
    let mut documented = Sites::new();
    if let Some((path, text)) = &tree.readme {
        let mut in_para = false;
        for (idx, line) in text.lines().enumerate() {
            if line.contains("spec keys:") {
                in_para = true;
            } else if in_para && line.trim().is_empty() {
                break;
            }
            if !in_para {
                continue;
            }
            let mut rest = line;
            while let Some(t0) = rest.find('`') {
                let Some(t1) = rest[t0 + 1..].find('`') else {
                    break;
                };
                let span = &rest[t0 + 1..t0 + 1 + t1];
                // keys are documented as `key=<…>`; the only bare-token
                // key in the protocol is the `mi` flag
                if let Some((key, _)) = span.split_once('=') {
                    if is_key(key) {
                        note(&mut documented, key, path, idx + 1);
                    }
                } else if span == "mi" {
                    note(&mut documented, "mi", path, idx + 1);
                }
                rest = &rest[t0 + 2 + t1..];
            }
        }
    }

    report_diffs(
        &[
            ("spec parser", &parsed),
            ("spec emitter", &emitted),
            ("README spec-keys paragraph", &documented),
        ],
        "PROTO-KEY",
        "spec key",
        out,
    );
}

/// `a={…} b={…}` occurrences inside one emit literal: the words directly
/// before an `={` at a word boundary. Requiring the format placeholder
/// keeps prose like "expected key=value" out of the emitted-key set.
fn keys_in_literal(c: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let bytes = c.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'=' || bytes.get(i + 1) != Some(&b'{') {
            continue;
        }
        let mut s = i;
        while s > 0 && (bytes[s - 1].is_ascii_lowercase() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        if s == i {
            continue;
        }
        // word boundary on the left (start of literal or whitespace)
        if s > 0 && !bytes[s - 1].is_ascii_whitespace() {
            continue;
        }
        let key = &c[s..i];
        if is_key(key) && !keys.contains(&key.to_string()) {
            keys.push(key.to_string());
        }
    }
    keys
}

// ----------------------------------------------------- record symmetry

fn record_symmetry(f: &SourceFile, out: &mut Vec<Finding>) {
    let mut written = Sites::new();
    let mut parsed = Sites::new();
    for (i, t) in f.sig.iter().enumerate() {
        if f.in_test(t.start) {
            continue;
        }
        match t.kind {
            Kind::Ident => {
                let text = f.tok_text(*t);
                // writeln!(w, "kind …", …)
                if (text == "writeln" || text == "write")
                    && f.is_punct(i + 1, '!')
                    && f.is_punct(i + 2, '(')
                    && f.sig.get(i + 3).is_some_and(|x| x.kind == Kind::Ident)
                    && f.is_punct(i + 4, ',')
                    && f.sig.get(i + 5).is_some_and(|x| x.kind == Kind::Str)
                {
                    let s = f.sig[i + 5];
                    let w = first_word(str_content(f.tok_text(s)));
                    if is_record_kind(w) {
                        note(&mut written, w, &f.path, f.lx.line_of(s.start));
                    }
                }
                // strip_prefix("kind ")
                if text == "strip_prefix"
                    && f.is_punct(i + 1, '(')
                    && f.sig.get(i + 2).is_some_and(|x| x.kind == Kind::Str)
                {
                    let s = f.sig[i + 2];
                    let w = first_word(str_content(f.tok_text(s)));
                    if is_record_kind(w) {
                        note(&mut parsed, w, &f.path, f.lx.line_of(s.start));
                    }
                }
                // a `const NAME: &str = "…";` participates on both sides
                // (magic headers are written and matched via the const)
                if text == "const" {
                    for j in i + 1..(i + 8).min(f.sig.len()) {
                        if f.sig[j].kind == Kind::Str {
                            let w = first_word(str_content(f.tok_text(f.sig[j])));
                            if is_record_kind(w) {
                                note(&mut written, w, &f.path, f.lx.line_of(f.sig[j].start));
                                note(&mut parsed, w, &f.path, f.lx.line_of(f.sig[j].start));
                            }
                            break;
                        }
                        if f.is_punct(j, ';') {
                            break;
                        }
                    }
                }
            }
            Kind::Str => {
                let w = first_word(str_content(f.tok_text(*t)));
                if !is_record_kind(w) {
                    continue;
                }
                // match arm `"kind" =>`, `Some("kind")`, or `== "kind"`
                let arm = punct2(f, i + 1, '=', '>')
                    || (i >= 1 && f.is_punct(i - 1, '|'))
                    || (i >= 2 && f.is_ident(i - 2, "Some") && f.is_punct(i - 1, '('))
                    || (i >= 2 && punct2(f, i - 2, '=', '='));
                if arm {
                    note(&mut parsed, w, &f.path, f.lx.line_of(t.start));
                }
            }
            _ => {}
        }
    }
    report_diffs(
        &[
            ("encoder (writes)", &written),
            ("decoder (parses)", &parsed),
        ],
        "PROTO-RECORD",
        "record kind",
        out,
    );
}

fn is_record_kind(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_lowercase())
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
