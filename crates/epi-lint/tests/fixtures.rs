//! Fixture tests for every lint check: at least one fixture proving the
//! check fires and one proving it stays silent, plus lexer-misfire
//! fixtures (comments, strings, raw strings, byte strings, lifetimes)
//! showing the token mask keeps look-alike text from triggering
//! findings. Fixtures are lexed, never compiled, so they only need to be
//! lexically plausible Rust.

use epi_lint::checks::Tree;
use epi_lint::lint_tree;
use epi_lint::source::SourceFile;
use epi_lint::Finding;

fn tree(files: &[(&str, &str)]) -> Tree {
    Tree {
        files: files
            .iter()
            .map(|(p, t)| SourceFile::new(p.to_string(), t.to_string()))
            .collect(),
        readme: None,
    }
}

fn run(t: &Tree, group: &str) -> Vec<Finding> {
    lint_tree(t, &[group.to_string()])
}

fn count(findings: &[Finding], id: &str) -> usize {
    findings.iter().filter(|f| f.check == id).count()
}

// ------------------------------------------------------- determinism

#[test]
fn det_hash_iter_fires_on_method_and_for_loop() {
    let t = tree(&[(
        "crates/core/src/result.rs",
        r#"
use std::collections::HashMap;
pub fn merge_counts() -> Vec<(u32, u32)> {
    let counts: HashMap<u32, u32> = HashMap::new();
    let mut v: Vec<(u32, u32)> = counts.iter().map(|(k, c)| (*k, *c)).collect();
    v.sort();
    v
}
pub fn sum_all(m: &mut HashMap<u32, u32>) -> u32 {
    let mut sum = 0;
    for (_k, c) in m {
        sum += *c;
    }
    sum
}
"#,
    )]);
    let f = run(&t, "determinism");
    assert_eq!(count(&f, "DET-HASH-ITER"), 2, "{f:?}");
}

#[test]
fn det_hash_iter_silent_on_btreemap_and_out_of_scope() {
    let t = tree(&[
        (
            // BTreeMap iteration is ordered: no finding
            "crates/core/src/result.rs",
            r#"
use std::collections::BTreeMap;
pub fn merge_counts(counts: &BTreeMap<u32, u32>) -> Vec<u32> {
    counts.values().copied().collect()
}
"#,
        ),
        (
            // HashMap iteration outside the merge/codec scope: no finding
            "crates/epi-server/src/server.rs",
            r#"
use std::collections::HashMap;
pub fn conns(m: &HashMap<u32, u32>) -> usize {
    m.iter().count()
}
"#,
        ),
    ]);
    assert_eq!(count(&run(&t, "determinism"), "DET-HASH-ITER"), 0);
}

#[test]
fn det_time_fires_in_scan_logic() {
    let t = tree(&[(
        "crates/core/src/scan.rs",
        r#"
use std::time::Instant;
pub fn scan() {
    let start = Instant::now();
    let _ = start;
}
"#,
    )]);
    assert_eq!(count(&run(&t, "determinism"), "DET-TIME"), 1);
}

#[test]
fn det_time_silent_in_tests_and_deadline_modules() {
    let t = tree(&[
        (
            // test code in a scoped file: no finding
            "crates/core/src/scan.rs",
            r#"
#[cfg(test)]
mod tests {
    use std::time::Instant;
    #[test]
    fn timing() {
        let _ = Instant::now();
    }
}
"#,
        ),
        (
            // the server accept/deadline loop is deliberately out of scope
            "crates/epi-server/src/server.rs",
            r#"
use std::time::Instant;
pub fn accept_loop() {
    let _deadline = Instant::now();
}
"#,
        ),
    ]);
    assert_eq!(count(&run(&t, "determinism"), "DET-TIME"), 0);
}

#[test]
fn det_float_fmt_fires_on_decimal_format_and_parse() {
    let t = tree(&[(
        "crates/epi-server/src/codec.rs",
        r#"
pub fn encode(mi: f64) -> String {
    format!("mi={:.6}", mi)
}
pub fn decode(s: &str) -> f64 {
    s.parse::<f64>().unwrap_or(0.0)
}
"#,
    )]);
    assert_eq!(count(&run(&t, "determinism"), "DET-FLOAT-FMT"), 2);
}

#[test]
fn det_float_fmt_silent_in_bits_helpers() {
    let t = tree(&[(
        "crates/epi-server/src/codec.rs",
        r#"
pub fn mi_to_bits_hex(mi: f64) -> String {
    format!("{:016x}", mi.to_bits())
}
pub fn debug_bits_dump(mi: f64) -> String {
    format!("{:.3} ({:016x})", mi, mi.to_bits())
}
"#,
    )]);
    // the exact-bits round-trip has no decimal text, and fns whose name
    // mentions `bits` are the sanctioned decimal escape hatch
    assert_eq!(count(&run(&t, "determinism"), "DET-FLOAT-FMT"), 0);
}

// ------------------------------------------------------- unsafe-simd

#[test]
fn unsafe_no_safety_fires_without_comment() {
    let t = tree(&[(
        "crates/core/src/simd.rs",
        r#"
pub fn run() {
    unsafe { core_op() }
}
"#,
    )]);
    assert_eq!(count(&run(&t, "unsafe-simd"), "UNSAFE-NO-SAFETY"), 1);
}

#[test]
fn unsafe_no_safety_silent_with_comment_even_through_attrs() {
    let t = tree(&[(
        "crates/core/src/simd.rs",
        r#"
pub fn run() {
    // SAFETY: fixture contract documented here.
    unsafe { core_op() }
}

// SAFETY: caller upholds the contract; attributes may sit between the
// comment and the unsafe token.
#[inline]
#[allow(dead_code)]
unsafe fn k() {}
"#,
    )]);
    assert_eq!(count(&run(&t, "unsafe-simd"), "UNSAFE-NO-SAFETY"), 0);
}

#[test]
fn unsafe_forbid_fires_and_goes_silent() {
    let bare = tree(&[("crates/foo/src/lib.rs", "pub fn f() {}\n")]);
    assert_eq!(count(&run(&bare, "unsafe-simd"), "UNSAFE-FORBID"), 1);

    let gated = tree(&[(
        "crates/foo/src/lib.rs",
        "#![forbid(unsafe_code)]\npub fn f() {}\n",
    )]);
    assert_eq!(count(&run(&gated, "unsafe-simd"), "UNSAFE-FORBID"), 0);

    // the attribute inside a comment does not count: the mask is checked
    let fake = tree(&[(
        "crates/foo/src/lib.rs",
        "// add #![forbid(unsafe_code)] some day\npub fn f() {}\n",
    )]);
    assert_eq!(count(&run(&fake, "unsafe-simd"), "UNSAFE-FORBID"), 1);
}

#[test]
fn simd_tf_dispatch_fires_from_wrong_arm() {
    let t = tree(&[(
        "crates/core/src/simd.rs",
        r#"
#[target_feature(enable = "avx2,popcnt")]
// SAFETY: fixture.
unsafe fn kern() {}

pub fn bad(level: SimdLevel) {
    match level {
        // SAFETY: (wrong) scalar arm guarantees nothing.
        SimdLevel::Scalar => unsafe { kern() },
        _ => debug_assert!(true),
    }
}
"#,
    )]);
    assert_eq!(count(&run(&t, "unsafe-simd"), "SIMD-TF-DISPATCH"), 1);
}

#[test]
fn simd_tf_dispatch_silent_behind_matching_arm_or_caller_features() {
    let t = tree(&[(
        "crates/core/src/simd.rs",
        r#"
#[target_feature(enable = "avx2,popcnt")]
// SAFETY: fixture.
unsafe fn kern() {}

pub fn good(level: SimdLevel) {
    match level {
        // SAFETY: detection guaranteed avx2+popcnt.
        SimdLevel::Avx2 => unsafe { kern() },
        _ => debug_assert!(true),
    }
}

#[target_feature(enable = "avx512f,avx512bw")]
// SAFETY: fixture; avx512 hosts always have avx2.
unsafe fn outer() {
    inner();
}
#[target_feature(enable = "avx2")]
// SAFETY: fixture.
unsafe fn inner() {}
"#,
    )]);
    assert_eq!(count(&run(&t, "unsafe-simd"), "SIMD-TF-DISPATCH"), 0);
}

#[test]
fn simd_nonx86_assert_fires_on_bare_wildcard_and_cfg_arm() {
    let t = tree(&[(
        "crates/core/src/simd.rs",
        r#"
pub fn pick(level: SimdLevel) -> u32 {
    match level {
        SimdLevel::Avx2 => 2,
        _ => 0,
    }
}

pub fn dispatch(level: SimdLevel) {
    match level {
        #[cfg(not(target_arch = "x86_64"))]
        SimdLevel::Avx2 => {}
        _ => debug_assert!(true),
    }
}
"#,
    )]);
    assert_eq!(count(&run(&t, "unsafe-simd"), "SIMD-NONX86-ASSERT"), 2);
}

#[test]
fn simd_nonx86_assert_silent_with_debug_assert_or_value_position() {
    let t = tree(&[(
        "crates/core/src/simd.rs",
        r#"
pub fn pick(level: SimdLevel) -> u32 {
    match level {
        SimdLevel::Avx2 => 2,
        _ => {
            debug_assert!(false, "no vector level on this arch");
            0
        }
    }
}

pub fn choose(v: u32) -> SimdLevel {
    // SimdLevel only in arm *values*: this is not a dispatch match
    match v {
        5 => SimdLevel::Avx2,
        _ => SimdLevel::Scalar,
    }
}
"#,
    )]);
    assert_eq!(count(&run(&t, "unsafe-simd"), "SIMD-NONX86-ASSERT"), 0);
}

// ------------------------------------------------------------- locks

#[test]
fn lock_raw_unwrap_fires() {
    let t = tree(&[(
        "crates/epi-server/src/engine.rs",
        r#"
pub fn touch(state: &std::sync::Mutex<u32>) -> u32 {
    *state.lock().unwrap()
}
"#,
    )]);
    assert_eq!(count(&run(&t, "locks"), "LOCK-RAW-UNWRAP"), 1);
}

#[test]
fn lock_raw_unwrap_silent_through_recovery_helper() {
    let t = tree(&[(
        "crates/epi-server/src/engine.rs",
        r#"
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
pub fn touch(state: &std::sync::Mutex<u32>) -> u32 {
    *lock(state)
}
"#,
    )]);
    assert_eq!(count(&run(&t, "locks"), "LOCK-RAW-UNWRAP"), 0);
}

#[test]
fn lock_order_fires_on_inversion_and_reacquisition() {
    let inverted = tree(&[(
        "crates/epi-server/src/engine.rs",
        r#"
struct S {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}
fn one(s: &S) {
    let ga = s.alpha.lock();
    let gb = s.beta.lock();
    let _ = (ga, gb);
}
fn two(s: &S) {
    let gb = s.beta.lock();
    let ga = s.alpha.lock();
    let _ = (ga, gb);
}
"#,
    )]);
    assert_eq!(count(&run(&inverted, "locks"), "LOCK-ORDER"), 1);

    let reacquired = tree(&[(
        "crates/epi-server/src/engine.rs",
        r#"
struct S {
    alpha: Mutex<u32>,
}
fn again(s: &S) {
    let g1 = s.alpha.lock();
    let g2 = s.alpha.lock();
    let _ = (g1, g2);
}
"#,
    )]);
    assert_eq!(count(&run(&reacquired, "locks"), "LOCK-ORDER"), 1);
}

#[test]
fn lock_order_silent_on_consistent_order_and_dropped_guards() {
    let t = tree(&[(
        "crates/epi-server/src/engine.rs",
        r#"
struct S {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}
fn one(s: &S) {
    let ga = s.alpha.lock();
    let gb = s.beta.lock();
    let _ = (ga, gb);
}
fn two(s: &S) {
    let ga = s.alpha.lock();
    drop(ga);
    let gb = s.beta.lock();
    let _ = gb;
}
fn three(s: &S) {
    let gb = s.beta.lock();
    drop(gb);
    let ga = s.alpha.lock();
    let _ = ga;
}
"#,
    )]);
    // one() establishes alpha→beta; two/three drop before re-acquiring,
    // so three's beta-then-alpha never holds both at once
    assert_eq!(count(&run(&t, "locks"), "LOCK-ORDER"), 0);
}

// ---------------------------------------------------------- protocol

const SERVER_RS: &str = r#"
pub fn dispatch(verb: &str) {
    match verb {
        "PING" => reply_pong(),
        "SUBMIT" => submit(),
        "WAIT" => park(),
        _ => err(),
    }
}
"#;

const LIB_RS: &str = r#"
//! | `PING` | `PONG` |
//! | `SUBMIT <spec>` | `OK <id>` |
//! | `WAIT <id> [done>=K] [timeout_ms=T]` | `OK <status>` |
"#;

const README_TABLE: &str = "\
## Wire protocol

| Request | Reply |
|----------|-------|
| `PING` | `PONG` |
| `SUBMIT <spec>` | `OK <id>` |
| `WAIT <id> [done>=K] [timeout_ms=T]` | `OK <status>` |
";

#[test]
fn proto_verb_fires_when_client_misses_a_verb() {
    let mut t = tree(&[
        ("crates/epi-server/src/server.rs", SERVER_RS),
        (
            "crates/epi-server/src/client.rs",
            r#"
impl Client {
    pub fn ping(&mut self) -> String {
        self.send("PING")
    }
    pub fn wait_post(&mut self, id: u64) {
        self.post(&format!("WAIT {id}"))
    }
}
"#,
        ),
        ("crates/epi-server/src/lib.rs", LIB_RS),
    ]);
    t.readme = Some(("README.md".to_string(), README_TABLE.to_string()));
    let f = run(&t, "protocol");
    assert_eq!(count(&f, "PROTO-VERB"), 1, "{f:?}");
    assert!(f[0].message.contains("SUBMIT") && f[0].message.contains("client wrappers"));
}

#[test]
fn proto_verb_silent_when_all_four_sources_agree() {
    let mut t = tree(&[
        ("crates/epi-server/src/server.rs", SERVER_RS),
        (
            "crates/epi-server/src/client.rs",
            r#"
impl Client {
    pub fn ping(&mut self) -> String {
        self.send("PING")
    }
    pub fn submit(&mut self, spec: &str) -> String {
        self.send(&format!("SUBMIT {spec}"))
    }
    // the write half of a split request names its verb through post()
    pub fn wait_post(&mut self, id: u64) {
        self.post(&format!("WAIT {id}"))
    }
}
"#,
        ),
        ("crates/epi-server/src/lib.rs", LIB_RS),
    ]);
    t.readme = Some(("README.md".to_string(), README_TABLE.to_string()));
    assert_eq!(count(&run(&t, "protocol"), "PROTO-VERB"), 0);
}

const SPEC_RS_BALANCED: &str = r#"
pub fn parse(key: &str, tok: &str) -> bool {
    if tok == "mi" {
        return true;
    }
    match key {
        "path" => true,
        "top" => true,
        _ => false,
    }
}
pub fn emit(p: &str, n: u32) -> String {
    let mut s = format!("path={p} top={n}");
    s.push_str(" mi");
    s
}
"#;

const README_KEYS: &str = "\
spec keys: `path=<file>` selects the dataset, `top=<n>` bounds the
candidate list, and the bare `mi` flag requests mutual information.

Next paragraph is out of the key list.
";

#[test]
fn proto_key_fires_on_parsed_but_never_emitted() {
    let mut t = tree(&[(
        "crates/epi-server/src/spec.rs",
        r#"
pub fn parse(key: &str) -> bool {
    match key {
        "path" => true,
        "shards" => true,
        _ => false,
    }
}
pub fn emit(p: &str) -> String {
    format!("path={p}")
}
"#,
    )]);
    t.readme = Some((
        "README.md".to_string(),
        "spec keys: `path=<file>` selects the dataset.\n\n".to_string(),
    ));
    let f = run(&t, "protocol");
    assert_eq!(count(&f, "PROTO-KEY"), 1, "{f:?}");
    assert!(f[0].message.contains("shards"));
}

#[test]
fn proto_key_silent_when_parser_emitter_and_readme_agree() {
    let mut t = tree(&[("crates/epi-server/src/spec.rs", SPEC_RS_BALANCED)]);
    t.readme = Some(("README.md".to_string(), README_KEYS.to_string()));
    let f = run(&t, "protocol");
    assert_eq!(count(&f, "PROTO-KEY"), 0, "{f:?}");
}

#[test]
fn proto_record_fires_on_write_without_parse() {
    let t = tree(&[(
        "crates/epi-server/src/codec.rs",
        r#"
pub fn save(w: &mut impl Write, id: u32) {
    writeln!(w, "shard {id}").ok();
    writeln!(w, "done {id}").ok();
}
pub fn load(line: &str) -> Option<u32> {
    line.strip_prefix("shard ").and_then(|r| r.parse().ok())
}
"#,
    )]);
    let f = run(&t, "protocol");
    assert_eq!(count(&f, "PROTO-RECORD"), 1, "{f:?}");
    assert!(f[0].message.contains("done") && f[0].message.contains("decoder"));
}

#[test]
fn proto_record_silent_when_encoder_and_decoder_are_symmetric() {
    let t = tree(&[(
        "crates/epi-server/src/codec.rs",
        r#"
pub fn save(w: &mut impl Write, id: u32) {
    writeln!(w, "shard {id}").ok();
    writeln!(w, "done {id}").ok();
}
pub fn load(line: &str) -> u32 {
    if let Some(r) = line.strip_prefix("shard ") {
        return r.parse().unwrap_or(0);
    }
    match line.split_whitespace().next() {
        Some("done") => 1,
        _ => 0,
    }
}
"#,
    )]);
    assert_eq!(count(&run(&t, "protocol"), "PROTO-RECORD"), 0);
}

// ------------------------------------------------------------- panics

const PANICKY: &str = r#"
pub fn handle(v: &[u32], o: Option<u32>) -> u32 {
    let a = o.unwrap();
    let b = o.expect("set");
    if v.is_empty() {
        panic!("boom");
    }
    a + b + v[0]
}
"#;

#[test]
fn panics_fire_on_all_four_kinds_in_scope() {
    let t = tree(&[("crates/epi-server/src/fixture.rs", PANICKY)]);
    let f = run(&t, "panics");
    assert_eq!(count(&f, "PANIC-UNWRAP"), 1);
    assert_eq!(count(&f, "PANIC-EXPECT"), 1);
    assert_eq!(count(&f, "PANIC-PANIC"), 1);
    assert_eq!(count(&f, "PANIC-INDEX"), 1);
}

#[test]
fn panics_silent_out_of_scope_and_in_tests() {
    let t = tree(&[
        // same code outside the server/coordinator request paths
        ("crates/core/src/fixture.rs", PANICKY),
        (
            "crates/epi-coord/src/fixture.rs",
            r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        assert_eq!(v[0], Some(1).unwrap());
    }
}
"#,
        ),
    ]);
    assert!(run(&t, "panics").is_empty());
}

#[test]
fn panic_index_silent_on_slice_types_and_patterns() {
    let t = tree(&[(
        "crates/epi-server/src/fixture.rs",
        r#"
pub fn shapes(x: &[u8]) -> &[u8] {
    let _t: &[u8] = x;
    match x {
        [a] => {
            let _ = a;
        }
        _ => {}
    }
    x
}
"#,
    )]);
    assert!(run(&t, "panics").is_empty());
}

// ----------------------------------------------------- lexer misfires

/// Comments, strings, raw strings, byte strings, and lifetimes full of
/// finding-shaped text must not fire — and the lexer must stay in sync
/// so the one real violation after them still does.
#[test]
fn lexer_mask_keeps_lookalike_text_silent() {
    let t = tree(&[(
        "crates/epi-server/src/lexmask.rs",
        r###"
//! doc: calling state.lock().unwrap() would wedge the server — don't.
/* block comment with v[0] and panic!("x")
   /* nested: o.unwrap() */
   still inside the outer comment: o.expect("x") */
pub fn clean(url: &str) -> String {
    let msg = "panic!(\"not real\") and x.lock().unwrap() inside a string";
    let raw = r#"v[0] o.unwrap() //"#;
    let bytes = b"PING bytes with o.expect(x)";
    let _ = (url, msg, raw, bytes);
    String::new()
}
pub fn after<'a>(s: &'a std::sync::Mutex<u32>) -> u32 {
    let url = "https://example.test"; // `//` in the string must not eat the line
    let g = s.lock().unwrap();
    url.len() as u32 + *g
}
"###,
    )]);
    let locks = run(&t, "locks");
    let panics = run(&t, "panics");
    // exactly the real `.lock().unwrap()` in `after` — nothing from the
    // comment/string bodies above it
    assert_eq!(count(&locks, "LOCK-RAW-UNWRAP"), 1, "{locks:?}");
    assert_eq!(count(&panics, "PANIC-UNWRAP"), 1, "{panics:?}");
    let line = locks[0].line;
    assert_eq!(panics[0].line, line);
    assert!(locks[0].excerpt.contains("let g = s.lock().unwrap();"));
}
