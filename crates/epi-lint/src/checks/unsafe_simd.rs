//! Unsafe/SIMD hygiene.
//!
//! `SIMD-TF-DISPATCH` — a `#[target_feature(enable = …)]` fn may only be
//! called from a fn whose own target features imply the callee's, or
//! from a `match level { SimdLevel::X => … }` arm whose runtime-detected
//! level guarantees those features. Anything else is UB on the wrong
//! CPU. rustc enforces the first half (a call without the features needs
//! `unsafe`), but a dispatch arm needs `unsafe` whatever it calls, so the
//! arm half stays here.

use super::{finding, punct2, Tree};
use crate::lexer::Kind;
use crate::source::SourceFile;
use crate::Finding;
use std::collections::BTreeMap;

pub fn run(tree: &Tree, out: &mut Vec<Finding>) {
    let tf_fns = collect_target_feature_fns(tree);
    for f in &tree.files {
        tf_dispatch(f, &tf_fns, out);
    }
}

// ------------------------------------------------------------- dispatch

/// `SimdLevel` variant → the target features its runtime detection
/// guarantees. AVX-512 levels are only ever selected when AVX2 also
/// probed true, hence the closure.
fn level_features(variant: &str) -> Vec<&'static str> {
    match variant {
        "Avx2" => vec!["avx2", "popcnt"],
        "Avx512" => vec!["avx512f", "avx512bw", "popcnt", "avx2"],
        "Avx512Vpopcnt" => vec!["avx512f", "avx512bw", "avx512vpopcntdq", "popcnt", "avx2"],
        _ => vec![], // Scalar and anything unknown guarantee nothing
    }
}

/// A caller already compiled with avx512 features implies avx2 paths are
/// sound on any CPU the caller itself can run on.
fn close_features(mut feats: Vec<String>) -> Vec<String> {
    if feats.iter().any(|f| f == "avx512f" || f == "avx512bw") && !feats.iter().any(|f| f == "avx2")
    {
        feats.push("avx2".to_string());
    }
    feats
}

fn collect_target_feature_fns(tree: &Tree) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    for f in &tree.files {
        for fx in &f.fns {
            if !fx.target_features.is_empty() {
                map.insert(fx.name.clone(), fx.target_features.clone());
            }
        }
    }
    map
}

fn tf_dispatch(f: &SourceFile, tf_fns: &BTreeMap<String, Vec<String>>, out: &mut Vec<Finding>) {
    if tf_fns.is_empty() {
        return;
    }
    for (i, t) in f.sig.iter().enumerate() {
        if t.kind != Kind::Ident {
            continue;
        }
        let name = f.tok_text(*t);
        let Some(callee_feats) = tf_fns.get(name) else {
            continue;
        };
        if !f.is_punct(i + 1, '(') {
            continue;
        }
        // skip the declaration itself
        if i > 0 && f.is_ident(i - 1, "fn") {
            continue;
        }
        let Some(encl) = f.enclosing_fn(t.start) else {
            continue;
        };
        // caller's own target features imply the callee's?
        let own = close_features(encl.target_features.clone());
        if callee_feats.iter().all(|c| own.iter().any(|o| o == c)) {
            continue;
        }
        // otherwise: nearest preceding dispatch arm within this fn
        let arm = nearest_arm_features(f, encl.body.0, t.start);
        let ok = match arm {
            Some(feats) => callee_feats.iter().all(|c| feats.iter().any(|a| a == c)),
            None => false,
        };
        if !ok {
            out.push(finding(
                f,
                t.start,
                "SIMD-TF-DISPATCH",
                format!(
                    "call to `{name}` (target_feature {:?}) not guarded by a matching \
                     `SimdLevel` dispatch arm or caller target features",
                    callee_feats
                ),
            ));
        }
    }
}

/// Features guaranteed by the `SimdLevel::X =>` arm nearest before
/// `until` inside the fn body starting at `body_start`. An `|` chain
/// guarantees only the intersection; a `_ =>` guarantees nothing.
fn nearest_arm_features(f: &SourceFile, body_start: usize, until: usize) -> Option<Vec<String>> {
    let mut current: Option<Vec<String>> = None;
    let mut buffer: Vec<&str> = Vec::new();
    for (i, t) in f.sig.iter().enumerate() {
        if t.start < body_start {
            continue;
        }
        if t.start >= until {
            break;
        }
        if t.kind == Kind::Ident && f.tok_text(*t) == "SimdLevel" && punct2(f, i + 1, ':', ':') {
            if let Some(v) = f.sig.get(i + 3) {
                if v.kind == Kind::Ident {
                    buffer.push(f.tok_text(*v));
                }
            }
        }
        if punct2(f, i, '=', '>') {
            if buffer.is_empty() {
                current = None; // `_ =>` or a non-SimdLevel match arm
            } else {
                // intersection over the chain
                let mut feats: Vec<String> = level_features(buffer[0])
                    .into_iter()
                    .map(String::from)
                    .collect();
                for v in &buffer[1..] {
                    let fv = level_features(v);
                    feats.retain(|x| fv.iter().any(|y| y == x));
                }
                current = Some(feats);
            }
            buffer.clear();
        }
    }
    current
}
