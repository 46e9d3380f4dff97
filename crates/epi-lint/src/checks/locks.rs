//! Lock discipline.
//!
//! `LOCK-ORDER` — two mutexes acquired in opposite orders in two
//! functions is a deadlock waiting for the right interleaving; the check
//! derives per-function acquisition spans and reports inverted pairs and
//! re-acquisition of a mutex already held. (A raw `.lock().unwrap()` is
//! clippy's `unwrap_used` in the service crates.)

use super::{finding, punct2, receiver_last_ident, Tree};
use crate::lexer::Kind;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeMap;

pub fn run(tree: &Tree, out: &mut Vec<Finding>) {
    lock_order(tree, out);
}

// ---------------------------------------------------------- lock order

/// One acquisition inside a function: which mutex, where, and the byte
/// up to which the guard is (approximately) held.
struct Acq {
    mutex: String,
    at: usize,
    until: usize,
}

fn lock_order(tree: &Tree, out: &mut Vec<Finding>) {
    // mutex names are collected per file but compared globally; the
    // engine/coordinator field names are distinct so this stays precise
    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut order_findings: Vec<Finding> = Vec::new();
    for f in &tree.files {
        let mutexes = mutex_names(f);
        if mutexes.is_empty() {
            continue;
        }
        for fx in &f.fns {
            let acqs = acquisitions(f, fx.body, &mutexes);
            for (ai, a) in acqs.iter().enumerate() {
                for b in &acqs[ai + 1..] {
                    if b.at > a.at && b.at < a.until {
                        if b.mutex == a.mutex {
                            order_findings.push(finding(
                                f,
                                b.at,
                                "LOCK-ORDER",
                                format!(
                                    "`{}` re-acquired while already held in `{}`; \
                                     self-deadlock",
                                    a.mutex, fx.name
                                ),
                            ));
                        } else {
                            edges
                                .entry((a.mutex.clone(), b.mutex.clone()))
                                .or_insert_with(|| (f.path.clone(), b.at));
                        }
                    }
                }
            }
        }
    }
    // inverted pairs across the whole tree
    for ((a, b), (path, at)) in &edges {
        if a < b {
            if let Some((path2, _)) = edges.get(&(b.clone(), a.clone())) {
                if let Some(f) = tree.files.iter().find(|f| &f.path == path) {
                    order_findings.push(finding(
                        f,
                        *at,
                        "LOCK-ORDER",
                        format!(
                            "lock order inversion: `{a}` then `{b}` here, but `{b}` then \
                             `{a}` in {path2}"
                        ),
                    ));
                }
            }
        }
    }
    out.append(&mut order_findings);
}

/// Names bound to a `Mutex` in this file: `name: Mutex<…>` /
/// `name: Arc<Mutex<…>>` field declarations and `let name = Mutex::new`.
fn mutex_names(f: &SourceFile) -> Vec<String> {
    let mut names = Vec::new();
    for (i, t) in f.sig.iter().enumerate() {
        if t.kind != Kind::Ident || f.tok_text(*t) != "Mutex" {
            continue;
        }
        let mut k = i;
        let mut bind = None;
        while k > 0 {
            k -= 1;
            let tok = f.sig[k];
            let tt = f.tok_text(tok);
            match tok.kind {
                Kind::Punct => match tt {
                    ":" => {
                        let part_of_path =
                            punct2(f, k, ':', ':') || (k > 0 && punct2(f, k - 1, ':', ':'));
                        if !part_of_path {
                            bind = Some(k);
                            break;
                        }
                    }
                    "=" => {
                        bind = Some(k);
                        break;
                    }
                    "<" | "&" | ">" => {}
                    _ => break,
                },
                Kind::Ident => {} // wrapper types / path segments (Arc, std, sync…)
                _ => break,
            }
        }
        if let Some(b) = bind {
            if let Some(name_tok) = f.sig.get(b.wrapping_sub(1)) {
                if name_tok.kind == Kind::Ident {
                    let name = f.tok_text(*name_tok).to_string();
                    if name != "mut" && !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
    }
    names
}

/// Acquisitions in a fn body: `recv.lock()` method calls and
/// `lock(&recv)` helper calls whose receiver's last identifier is a
/// known mutex name. Guards bound with `let` are held to the end of the
/// enclosing block (or an explicit `drop(guard)`); temporaries to the
/// end of the statement.
fn acquisitions(f: &SourceFile, body: (usize, usize), mutexes: &[String]) -> Vec<Acq> {
    let mut acqs = Vec::new();
    for (i, t) in f.sig.iter().enumerate() {
        if t.start < body.0 || t.start >= body.1 {
            continue;
        }
        if t.kind != Kind::Ident || f.tok_text(*t) != "lock" || !f.is_punct(i + 1, '(') {
            continue;
        }
        let method_call = i > 0 && f.is_punct(i - 1, '.');
        let mutex = if method_call {
            receiver_last_ident(f, i - 1).map(str::to_string)
        } else {
            // helper form: last ident inside `lock( … )`
            let mut j = i + 2;
            let mut last = None;
            let mut depth = 1i64;
            while j < f.sig.len() && depth > 0 {
                if f.sig[j].kind == Kind::Punct {
                    match f.tok_text(f.sig[j]) {
                        "(" => depth += 1,
                        ")" => depth -= 1,
                        _ => {}
                    }
                } else if f.sig[j].kind == Kind::Ident && depth == 1 {
                    last = Some(f.tok_text(f.sig[j]).to_string());
                }
                j += 1;
            }
            last
        };
        let Some(mutex) = mutex else { continue };
        if !mutexes.iter().any(|m| m == &mutex) {
            continue;
        }
        let stmt_anchor = if method_call { i - 1 } else { i };
        let until = held_until(f, stmt_anchor, body.1);
        acqs.push(Acq {
            mutex,
            at: t.start,
            until,
        });
    }
    acqs
}

/// Byte up to which the guard from the acquisition anchored at sig index
/// `anchor` is held.
fn held_until(f: &SourceFile, anchor: usize, body_end: usize) -> usize {
    // was it `let g = …`? walk back to the statement start
    let mut k = anchor;
    let mut guard: Option<String> = None;
    while k > 0 {
        k -= 1;
        let tok = f.sig[k];
        let tt = f.tok_text(tok);
        if tok.kind == Kind::Punct && matches!(tt, ";" | "{" | "}") {
            break;
        }
        if tok.kind == Kind::Ident && tt == "let" {
            // the bound name: first ident after `let` (skip `mut`)
            let mut n = k + 1;
            if f.is_ident(n, "mut") {
                n += 1;
            }
            if let Some(name_tok) = f.sig.get(n) {
                if name_tok.kind == Kind::Ident {
                    guard = Some(f.tok_text(*name_tok).to_string());
                }
            }
            break;
        }
    }
    match guard {
        Some(g) => {
            // held to enclosing-block close or `drop(g)`
            let mut depth = 0i64;
            for j in anchor..f.sig.len() {
                let tok = f.sig[j];
                if tok.start >= body_end {
                    break;
                }
                if tok.kind == Kind::Punct {
                    match f.tok_text(tok) {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth < 0 {
                                return tok.start;
                            }
                        }
                        _ => {}
                    }
                }
                if tok.kind == Kind::Ident
                    && f.tok_text(tok) == "drop"
                    && f.is_punct(j + 1, '(')
                    && f.is_ident(j + 2, &g)
                    && f.is_punct(j + 3, ')')
                {
                    return tok.start;
                }
            }
            body_end
        }
        None => {
            // temporary: held to the end of the statement
            let mut depth = 0i64;
            for j in anchor..f.sig.len() {
                let tok = f.sig[j];
                if tok.start >= body_end {
                    break;
                }
                if tok.kind == Kind::Punct {
                    match f.tok_text(tok) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        ";" if depth <= 0 => return tok.start,
                        _ => {}
                    }
                }
            }
            body_end
        }
    }
}
