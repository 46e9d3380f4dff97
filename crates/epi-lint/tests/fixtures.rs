//! Fixture tests for every lint check: at least one fixture proving the
//! check fires and one proving it stays silent, plus a lexer-misfire
//! fixture (comments, strings, raw strings, byte strings, lifetimes)
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

// ------------------------------------------------------- unsafe-simd

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

// ------------------------------------------------------------- locks

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

// ----------------------------------------------------- lexer misfires

/// Comments, strings, raw strings, byte strings, and lifetimes full of
/// finding-shaped text must not fire — and the lexer must stay in sync
/// so the one real violation after them still does.
#[test]
fn lexer_mask_keeps_lookalike_text_silent() {
    let t = tree(&[(
        "crates/epi-server/src/lexmask.rs",
        r###"
//! doc: `let g2 = s.alpha.lock();` while `g` is held would deadlock — don't.
struct S {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
}
fn first(s: &S) {
    let gb = s.beta.lock();
    let ga = s.alpha.lock();
    let _ = (ga, gb);
}
pub fn clean(s: &S) -> String {
    let g = s.alpha.lock();
    // line comment: let g2 = s.alpha.lock();
    /* block comment with let g2 = s.alpha.lock();
       /* nested: let g3 = s.alpha.lock(); */
       still inside the outer comment: let g4 = s.alpha.lock(); */
    let msg = "let g2 = s.alpha.lock(); and \"s.alpha.lock()\" inside a string";
    let raw = r#"let g2 = s.alpha.lock(); //"#;
    let bytes = b"let g2 = s.alpha.lock();";
    let _ = (g, msg, raw, bytes);
    String::new()
}
pub fn after<'a>(s: &'a S) -> u32 {
    let url = "https://example.test"; // `//` in the string must not eat the line
    let ga = s.alpha.lock();
    let gb = s.beta.lock();
    url.len() as u32 + *ga + *gb
}
"###,
    )]);
    let locks = run(&t, "locks");
    // exactly the real alpha-then-beta in `after`, inverting `first` —
    // no re-acquisition from the comment/string bodies in `clean`
    assert_eq!(count(&locks, "LOCK-ORDER"), 1, "{locks:?}");
    assert!(
        locks[0].excerpt.contains("let gb = s.beta.lock();"),
        "{locks:?}"
    );
    assert!(locks[0].message.contains("inversion"), "{locks:?}");
}
