//! Integration tests for the `darsie-sim` and `figures` CLIs: usage
//! errors, workload-selection robustness (unknown names must fail fast
//! and list the valid ones) and golden schemas for every `--json`
//! document, parsed with a minimal validating JSON reader so a malformed
//! or restructured document fails loudly rather than by substring
//! accident.

use std::collections::BTreeMap;
use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_darsie-sim"))
        .args(args)
        .output()
        .expect("spawn darsie-sim");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// A minimal JSON value — the workspace deliberately has no serde, and
/// the CLI emits its documents by hand, so the test parses them by hand
/// too.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos);
        skip_ws(bytes, &mut pos);
        assert_eq!(pos, bytes.len(), "trailing garbage after JSON document");
        v
    }

    #[track_caller]
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("expected object with `{key}`, got {other:?}"),
        }
    }

    #[track_caller]
    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[track_caller]
    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("expected number, got {other:?}"),
        }
    }

    #[track_caller]
    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[track_caller]
    fn bool(&self) -> bool {
        match self {
            Json::Bool(b) => *b,
            other => panic!("expected bool, got {other:?}"),
        }
    }
}

/// Asserts the shared telemetry header every `--json` document leads
/// with: tool identity, version, schema version, echoed subcommand and
/// the configuration fingerprint (a hex string, or null for subcommands
/// that build no GPU configuration).
#[track_caller]
fn assert_header(doc: &Json, subcommand: &str) {
    assert_eq!(doc.get("tool").str(), "darsie-sim");
    assert!(!doc.get("version").str().is_empty());
    assert_eq!(doc.get("schema_version").num(), 1.0);
    assert_eq!(doc.get("subcommand").str(), subcommand);
    match doc.get("config_fingerprint") {
        Json::Null => {}
        fp => assert!(fp.str().starts_with("0x"), "fingerprint is a hex string"),
    }
}

/// Asserts a `"0x"`-prefixed 16-digit hex digest string.
#[track_caller]
fn assert_hex_digest(v: &Json) {
    let s = v.str();
    assert!(s.starts_with("0x") && s.len() == 18, "digest `{s}` is 0x + 16 hex digits");
    assert!(s[2..].bytes().all(|b| b.is_ascii_hexdigit()), "digest `{s}`");
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && (b[*pos] as char).is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) {
    assert!(b[*pos..].starts_with(lit.as_bytes()), "expected `{lit}` at byte {pos}");
    *pos += lit.len();
}

fn parse_value(b: &[u8], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut m = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Json::Obj(m);
            }
            loop {
                skip_ws(b, pos);
                let k = parse_string(b, pos);
                skip_ws(b, pos);
                expect(b, pos, ":");
                let v = parse_value(b, pos);
                assert!(m.insert(k.clone(), v).is_none(), "duplicate key `{k}`");
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Json::Obj(m);
                    }
                    other => panic!("expected `,` or `}}`, got {other:?}"),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut a = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Json::Arr(a);
            }
            loop {
                a.push(parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Json::Arr(a);
                    }
                    other => panic!("expected `,` or `]`, got {other:?}"),
                }
            }
        }
        Some(b'"') => Json::Str(parse_string(b, pos)),
        Some(b't') => {
            expect(b, pos, "true");
            Json::Bool(true)
        }
        Some(b'f') => {
            expect(b, pos, "false");
            Json::Bool(false)
        }
        Some(b'n') => {
            expect(b, pos, "null");
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).unwrap();
            Json::Num(s.parse().unwrap_or_else(|_| panic!("bad number `{s}`")))
        }
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> String {
    expect(b, pos, "\"");
    let mut s = String::new();
    loop {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return s;
            }
            b'\\' => {
                *pos += 1;
                match b[*pos] {
                    b'"' => s.push('"'),
                    b'\\' => s.push('\\'),
                    b'n' => s.push('\n'),
                    b't' => s.push('\t'),
                    b'r' => s.push('\r'),
                    b'u' => {
                        let hex = std::str::from_utf8(&b[*pos + 1..*pos + 5]).unwrap();
                        let c = u32::from_str_radix(hex, 16).unwrap();
                        s.push(char::from_u32(c).unwrap());
                        *pos += 4;
                    }
                    e => panic!("unsupported escape `\\{}`", e as char),
                }
                *pos += 1;
            }
            _ => {
                let start = *pos;
                while b[*pos] != b'"' && b[*pos] != b'\\' {
                    *pos += 1;
                }
                s.push_str(std::str::from_utf8(&b[start..*pos]).unwrap());
            }
        }
    }
}

/// Every subcommand that selects workloads rejects an unknown
/// `--workload` name with a usage exit and the full list of valid
/// abbreviations so the caller never has to guess.
#[test]
fn unknown_workload_name_fails_and_lists_valid_names() {
    for sub in ["verify", "analyze", "prove", "profile", "estimate", "bench"] {
        let (code, _, err) = run(&[sub, "--workload", "nosuch"]);
        assert_eq!(code, Some(2), "{sub}: exit code");
        assert!(err.contains("unknown workload `nosuch`"), "{sub}: {err}");
        for abbr in ["BIN", "PT", "DCT8x8", "MM"] {
            assert!(err.contains(abbr), "{sub}: `{abbr}` missing from\n{err}");
        }
    }
}

/// Positional abbreviations get the same treatment.
#[test]
fn unknown_positional_abbr_fails_and_lists_valid_names() {
    for sub in ["verify", "analyze", "prove", "profile", "estimate", "bench"] {
        let (code, _, err) = run(&[sub, "NOSUCH"]);
        assert_eq!(code, Some(2), "{sub}: exit code");
        assert!(err.contains("unknown benchmark `NOSUCH`"), "{sub}: {err}");
        assert!(err.contains("BIN"), "{sub}: valid names missing from\n{err}");
    }
}

/// Zero SMs cannot hold a thread block: every `--sms` is a usage error
/// at 0 instead of a panic inside the simulator.
#[test]
fn zero_sms_is_a_usage_error() {
    for args in [
        &["BIN", "--sms", "0", "--scale", "test"][..],
        &["replay-diff", "BIN", "--sms", "0", "--scale", "test"][..],
        &["replay-diff", "BIN", "--scale", "test", "--against", "sms=0"][..],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert!(err.starts_with("usage:"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "test", "--sms", "0", "fig8"])
        .output()
        .expect("spawn figures");
    let err = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert_eq!(out.status.code(), Some(2), "figures --sms 0: {err}");
    assert!(err.starts_with("usage: figures"), "{err}");
}

/// `figures` checks every artifact name before it simulates anything.
#[test]
fn figures_rejects_an_unknown_artifact_up_front() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["--scale", "test", "table3", "nosuch"])
        .output()
        .expect("spawn figures");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing is printed before the usage exit");
}

/// Golden schema for `verify --json`.
#[test]
fn verify_json_schema() {
    let (code, out, _) = run(&["verify", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "verify");
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    assert!(!w.get("kernel").str().is_empty());
    assert_eq!(w.get("block").arr().len(), 3);
    for d in w.get("diagnostics").arr() {
        d.get("code").str();
        d.get("severity").str();
        d.get("message").str();
        assert!(matches!(d.get("pc"), Json::Num(_) | Json::Null));
    }
    w.get("errors").num();
    w.get("warnings").num();
    assert!(matches!(doc.get("by_code"), Json::Obj(_)));
    assert_eq!(doc.get("total_errors").num(), 0.0);
    doc.get("total_warnings").num();
}

/// Golden schema for `analyze --json`.
#[test]
fn analyze_json_schema() {
    let (code, out, _) = run(&["analyze", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "analyze");
    let w = &doc.get("workloads").arr()[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    for side in ["baseline", "refined"] {
        let s = w.get(side);
        s.get("vector").num();
        s.get("cond").num();
        s.get("def").num();
        s.get("skippable").num();
    }
    assert!(matches!(w.get("refined").get("upgrades"), Json::Obj(_)));
    assert_eq!(w.get("oracle_errors").num(), 0.0);
    w.get("headroom").get("dynamically_redundant").num();
    w.get("headroom").get("never_aligned").num();
    assert!(matches!(w.get("blame"), Json::Obj(_)));
    let mem = w.get("mem");
    mem.get("accesses").num();
    mem.get("unpredictable").num();
    mem.get("violations").num();
    mem.get("checks").arr();
    mem.get("lints").arr();
    let t = doc.get("totals");
    assert_eq!(t.get("oracle_errors").num(), 0.0);
    assert_eq!(t.get("mem_violations").num(), 0.0);
    t.get("coverage_wins").num();
    t.get("marking_wins").num();
}

/// Golden schema for `prove --json`, plus the headline property: the
/// catalog workload proves every claim with nothing left unknown.
#[test]
fn prove_json_schema() {
    let (code, out, _) = run(&["prove", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "prove");
    let w = &doc.get("workloads").arr()[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    assert!(!w.get("kernel").str().is_empty());
    assert_eq!(w.get("block").arr().len(), 3);
    let claims = w.get("value_claims").num() + w.get("branch_claims").num();
    assert!(claims > 0.0);
    assert_eq!(w.get("proved").num(), claims);
    assert_eq!(w.get("disproved").num(), 0.0);
    assert_eq!(w.get("unknown").num(), 0.0);
    assert!(w.get("complete").bool());
    assert_eq!(w.get("diagnostics").arr().len(), 0);
    assert!(matches!(doc.get("by_code"), Json::Obj(_)));
    assert!(doc.get("total_proved").num() > 0.0);
    assert_eq!(doc.get("total_disproved").num(), 0.0);
    assert_eq!(doc.get("total_unknown").num(), 0.0);
    // Per-claim ledger: one entry per obligation, every verdict proved on
    // this catalog workload, reasons null, with deterministic eval costs.
    assert!(w.get("fuel_used").num() > 0.0);
    assert!(w.get("terms").num() > 0.0);
    let ledger = w.get("claims").arr();
    assert_eq!(ledger.len() as f64, claims);
    for c in ledger {
        c.get("pc").num();
        assert!(matches!(c.get("kind").str(), "value" | "branch"));
        assert!(!c.get("family").str().is_empty());
        assert_eq!(c.get("verdict").str(), "proved");
        assert_eq!(*c.get("unknown_reason"), Json::Null);
        c.get("evals").num();
    }
    assert!(matches!(doc.get("unknown_reasons"), Json::Obj(_)));
}

/// `--threads N` must not change the document: the discharge engine
/// shards work but merges results in deterministic claim order, so the
/// JSON output is byte-identical for any thread count.
#[test]
fn prove_threads_output_is_byte_identical() {
    let (code1, base, _) = run(&["prove", "BIN", "MM", "--scale", "test", "--json"]);
    assert_eq!(code1, Some(0));
    for threads in ["1", "2", "7"] {
        let (code, out, err) =
            run(&["prove", "BIN", "MM", "--scale", "test", "--json", "--threads", threads]);
        assert_eq!(code, Some(0));
        assert_eq!(out, base, "--threads {threads} changed the JSON document");
        assert!(err.contains("prover wall time"), "wall time must go to stderr");
    }
}

/// Repeated single-valued flags are usage errors (exit 2), not
/// silently-take-the-last; `--threads` outside `prove` warns and is
/// ignored; a non-positive or malformed `--threads` value exits 2.
#[test]
fn flag_validation_rejects_duplicates_and_bad_thread_counts() {
    for args in [
        &["prove", "BIN", "--scale", "test", "--json", "--json"][..],
        &["prove", "BIN", "--scale", "test", "--scale", "test"][..],
        &["prove", "BIN", "--scale", "test", "--threads", "2", "--threads", "2"][..],
    ] {
        let (code, _, err) = run(args);
        assert_eq!(code, Some(2), "{args:?} must exit 2");
        assert!(err.contains("duplicate"), "{args:?}: {err}");
    }
    for bad in ["0", "-1", "many"] {
        let (code, _, err) = run(&["prove", "BIN", "--scale", "test", "--threads", bad]);
        assert_eq!(code, Some(2), "--threads {bad} must exit 2");
        assert!(err.contains("positive integer"), "--threads {bad}: {err}");
    }
    let (code, _, err) = run(&["analyze", "BIN", "--scale", "test", "--threads", "4"]);
    assert_eq!(code, Some(0));
    assert!(err.contains("ignores it"), "analyze must warn: {err}");
    let (code, _, err) = run(&["verify", "BIN", "--scale", "test", "--threads", "4"]);
    assert_eq!(code, Some(0));
    assert!(!err.contains("ignores it"), "verify consumes --threads: {err}");
}

/// Golden schema for `certify --json`, plus the headline acceptance
/// gate: every catalog workload certifies `block-independent` or
/// `commutative-atomics-only` with zero `V310`/`V312` findings.
#[test]
fn certify_json_schema_and_catalog_certifies() {
    let (code, out, _) = run(&["certify", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "certify");
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 13, "all catalog workloads certified");
    for w in ws {
        assert!(!w.get("abbr").str().is_empty());
        assert!(!w.get("kernel").str().is_empty());
        assert_eq!(w.get("grid").arr().len(), 3);
        let class = w.get("classification").str();
        assert!(
            class == "block-independent" || class == "commutative-atomics-only",
            "{} must certify, got {class}",
            w.get("abbr").str()
        );
        w.get("global_accesses").num();
        w.get("unanalyzable").num();
        w.get("checked_pairs").num();
        assert!(
            !w.get("dynamically_discharged").bool(),
            "test scale certifies statically, no replay discharge"
        );
        assert!(matches!(w.get("witness"), Json::Obj(_) | Json::Null));
        for d in w.get("diagnostics").arr() {
            let code = d.get("code").str();
            assert!(code != "V310" && code != "V312", "no races in the catalog: {code}");
        }
    }
    assert_eq!(doc.get("total_errors").num(), 0.0);
}

/// `verify --threads N` and `certify --threads N` shard workloads across
/// worker threads but must render byte-identical documents.
#[test]
fn verify_and_certify_threads_output_is_byte_identical() {
    for sub in ["verify", "certify"] {
        let (code1, base, _) = run(&[sub, "--scale", "test", "--json"]);
        assert_eq!(code1, Some(0));
        for threads in ["1", "3", "8"] {
            let (code, out, _) = run(&[sub, "--scale", "test", "--json", "--threads", threads]);
            assert_eq!(code, Some(0));
            assert_eq!(out, base, "{sub} --threads {threads} changed the JSON document");
        }
    }
}

/// Golden schema for `certify --family --json`, plus the headline
/// acceptance gate: every catalog workload reaches at least
/// `FamilySampled` (no refutations) with an empty differential gate, and
/// at least 9 of 13 reach `FamilyProved` outright.
#[test]
fn certify_family_json_schema_and_catalog_proves() {
    let (code, out, _) = run(&["certify", "--family", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "certify-family");
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 13, "one family certificate per catalog workload");
    let mut proved = 0usize;
    for w in ws {
        assert!(!w.get("abbr").str().is_empty());
        assert!(!w.get("kernel").str().is_empty());
        let region = w.get("region");
        for axis in ["grid_x", "grid_y", "block_x", "block_y", "block_z"] {
            let a = region.get(axis);
            let lo = a.get("lo").num();
            let hi = a.get("hi").num();
            assert!(1.0 <= lo && lo <= hi, "{axis}: [{lo}, {hi}]");
            assert!(a.get("step").num() >= 1.0);
        }
        assert!(w.get("member_count").num() >= 1.0);
        let verdict = w.get("verdict").str();
        assert!(
            verdict == "FamilyProved" || verdict == "FamilySampled",
            "{} must not be refuted, got {verdict}",
            w.get("abbr").str()
        );
        if verdict == "FamilyProved" {
            proved += 1;
            assert_eq!(w.get("unresolved").arr().len(), 0);
            assert_eq!(w.get("sampled_corners").num(), 0.0);
        } else {
            assert!(!w.get("unresolved").arr().is_empty());
            assert!(w.get("sampled_corners").num() > 0.0);
        }
        assert_eq!(w.get("checked_pairs").num(), w.get("proved_pairs").num());
        assert_eq!(*w.get("witness_launch"), Json::Null);
        assert_eq!(*w.get("witness"), Json::Null);
        let costs = w.get("cost").arr();
        assert_eq!(costs.len(), 2, "Base and DARSIE brackets");
        let labels: Vec<&str> = costs.iter().map(|c| c.get("technique").str()).collect();
        assert_eq!(labels, ["BASE", "DARSIE"]);
        for c in costs {
            let min = c.get("min_cycles").num();
            match c.get("max_cycles") {
                Json::Num(max) => assert!(min <= *max),
                Json::Null => {}
                other => panic!("max_cycles: {other:?}"),
            }
        }
        assert_eq!(w.get("disagreements").arr().len(), 0, "differential gate clean");
    }
    assert!(proved >= 9, "only {proved}/13 workloads reached FamilyProved");
    assert_eq!(doc.get("proved").num(), proved as f64);
    assert_eq!(doc.get("refuted").num(), 0.0);
    assert_eq!(doc.get("disagreements").num(), 0.0);
    assert_eq!(doc.get("samples").num(), 25.0);
}

/// `certify --family --threads N` shards workloads but must render
/// byte-identical documents, and `--samples` without `--family` is a
/// usage error.
#[test]
fn certify_family_threads_and_samples_validation() {
    let (code1, base, _) = run(&["certify", "--family", "BIN", "MM", "--scale", "test", "--json"]);
    assert_eq!(code1, Some(0));
    for threads in ["2", "5"] {
        let (code, out, _) = run(&[
            "certify",
            "--family",
            "BIN",
            "MM",
            "--scale",
            "test",
            "--json",
            "--threads",
            threads,
        ]);
        assert_eq!(code, Some(0));
        assert_eq!(out, base, "--threads {threads} changed the JSON document");
    }
    let (code, _, err) = run(&["certify", "BIN", "--scale", "test", "--samples", "5"]);
    assert_eq!(code, Some(2));
    assert!(err.contains("only applies to `certify --family`"), "{err}");
    for bad in ["0", "nope"] {
        let (code, _, err) =
            run(&["certify", "--family", "BIN", "--scale", "test", "--samples", bad]);
        assert_eq!(code, Some(2), "--samples {bad} must exit 2");
        assert!(err.contains("positive integer"), "--samples {bad}: {err}");
    }
}

/// `--threads` on a subcommand that does not consume it warns with one
/// shared message — the acceptance/warn-ignore decision lives in the one
/// parser, so the text is pinned identical across all of them.
#[test]
fn threads_warning_is_identical_across_non_threaded_subcommands() {
    let mut warnings: Vec<String> = Vec::new();
    for sub in ["analyze", "profile", "estimate", "bench"] {
        let (code, _, err) = run(&[sub, "BIN", "--scale", "test", "--threads", "4"]);
        assert_eq!(code, Some(0), "{sub}: exit code");
        let warn = err
            .lines()
            .find(|l| l.starts_with("warning:"))
            .unwrap_or_else(|| panic!("{sub} must warn about --threads:\n{err}"));
        assert_eq!(
            warn,
            format!(
                "warning: --threads is only used by `verify`, `certify` and `prove`; \
                 `{sub}` ignores it"
            )
        );
        warnings.push(warn.replace(&format!("`{sub}`"), "`<sub>`"));
    }
    warnings.dedup();
    assert_eq!(warnings.len(), 1, "warning text drifted between subcommands: {warnings:?}");
}

/// Golden schema for `profile --json`, plus the headline invariant: the
/// slot counts sum to exactly `cycles × schedulers × issue_width` (the
/// accounting identity) and the document says so via `identity_ok`.
#[test]
fn profile_json_schema() {
    let (code, out, _) = run(&["profile", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "profile");
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    assert!(!w.get("kernel").str().is_empty());
    let techs = w.get("techniques").arr();
    assert_eq!(techs.len(), 2, "Base and DARSIE");
    let labels: Vec<&str> = techs.iter().map(|t| t.get("technique").str()).collect();
    assert_eq!(labels, ["BASE", "DARSIE"]);
    for t in techs {
        assert!(t.get("identity_ok").bool());
        let slots = match t.get("slots") {
            Json::Obj(m) => m,
            other => panic!("expected slots object, got {other:?}"),
        };
        assert_eq!(slots.len(), 12, "one key per stall cause");
        for key in [
            "issued",
            "skipped_by_darsie",
            "scoreboard",
            "operand_collector",
            "exec_unit_busy",
            "lsu_queue",
            "ibuffer_empty",
            "wait_leader",
            "branch_sync",
            "barrier",
            "majority_evict",
            "idle_no_warp",
        ] {
            assert!(slots.contains_key(key), "missing slot cause `{key}`");
        }
        let sum: f64 = slots.values().map(Json::num).sum();
        assert_eq!(sum, t.get("issue_slots").num(), "accounting identity in the document");
        assert_eq!(
            t.get("slots").get("issued").num(),
            t.get("executed").num() + t.get("reused").num(),
            "issued slots cross-check"
        );
        for h in t.get("hot_pcs").arr() {
            h.get("pc").num();
            h.get("issued").num();
            h.get("skipped").num();
            h.get("stall_slots").num();
            h.get("top_stall").str();
        }
        let lat = t.get("leader_latency");
        lat.get("count").num();
        assert_eq!(lat.get("buckets").arr().len(), 16);
        let occ = t.get("occupancy");
        occ.get("samples").num();
        occ.get("dropped").num();
        occ.get("peak_skip_entries").num();
        occ.get("peak_live_versions").num();
        occ.get("peak_waiting_warps").num();
        let d = t.get("darsie");
        d.get("leaders_elected").num();
        d.get("instructions_skipped").num();
        d.get("leader_giveups").num();
        t.get("trace_dropped").num();
        t.get("trace_capacity").num();
        assert_hex_digest(t.get("digest_root"));
    }
    // DARSIE actually skips on BIN: the slots and counters show it.
    let dars = &techs[1];
    assert!(dars.get("slots").get("skipped_by_darsie").num() > 0.0);
    assert!(dars.get("darsie").get("leaders_elected").num() > 0.0);
    let t = doc.get("totals");
    assert_eq!(t.get("workloads").num(), 1.0);
    assert_eq!(t.get("identity_violations").num(), 0.0);
}

/// `profile --perfetto` writes a valid Chrome trace-event document:
/// round-trip parse it and check the event structure Perfetto requires.
#[test]
fn profile_perfetto_trace_round_trips() {
    let dir = std::env::temp_dir().join("darsie-sim-perfetto-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("bin.trace.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, _, err) =
        run(&["profile", "BIN", "--scale", "test", "--json", "--perfetto", path_str]);
    assert_eq!(code, Some(0), "{err}");
    let text = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(text.trim());
    let evs = doc.get("traceEvents").arr();
    assert!(!evs.is_empty(), "trace has events");
    let mut complete = 0usize;
    let mut meta = 0usize;
    let mut phases = 0usize;
    for e in evs {
        match e.get("ph").str() {
            "X" => {
                complete += 1;
                e.get("ts").num();
                e.get("dur").num();
                e.get("pid").num();
                e.get("tid").num();
                assert!(!e.get("name").str().is_empty());
                if e.get("cat").str() == "phase" {
                    // Host phase spans live on their own synthetic process
                    // and carry no pc.
                    phases += 1;
                    assert!(e.get("dur").num() >= 1.0);
                } else {
                    e.get("args").get("pc").num();
                }
            }
            "M" => {
                meta += 1;
                assert!(!e.get("args").get("name").str().is_empty());
            }
            "C" => {
                e.get("args").get("skip_entries").num();
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    assert!(complete > 0, "at least one complete event");
    assert!(meta > 0, "process/thread name metadata present");
    assert!(phases > 0, "host phase spans exported into the trace");
    doc.get("otherData").get("dropped_events").num();
}

/// Golden schema for `lints --json`: one row per `LintCode` variant with
/// all four columns, including the symbolic-validator codes.
#[test]
fn lints_json_schema() {
    let (code, out, _) = run(&["lints", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "lints");
    let rows = doc.get("lints").arr();
    let codes: Vec<&str> = rows
        .iter()
        .map(|r| {
            r.get("severity").str();
            r.get("pass").str();
            assert!(!r.get("doc").str().is_empty());
            r.get("code").str()
        })
        .collect();
    for c in ["V001", "V201", "V301", "P101", "S401", "S402", "S403", "E201", "E202"] {
        assert!(codes.contains(&c), "lint registry is missing {c}");
    }
}

/// Golden schema for `estimate --json`, plus the headline invariant: the
/// measured cycles sit inside the static bracket for both techniques
/// (zero `E202`) and every catalog loop has a two-sided bound.
#[test]
fn estimate_json_schema() {
    let (code, out, _) = run(&["estimate", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    assert_header(&doc, "estimate");
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    assert!(!w.get("kernel").str().is_empty());
    let techs = w.get("techniques").arr();
    assert_eq!(techs.len(), 2, "Base and DARSIE");
    let labels: Vec<&str> = techs.iter().map(|t| t.get("technique").str()).collect();
    assert_eq!(labels, ["BASE", "DARSIE"]);
    for t in techs {
        let min = t.get("min_cycles").num();
        let max = t.get("max_cycles").num();
        let measured = t.get("measured_cycles").num();
        assert!(t.get("in_bracket").bool());
        assert!(min <= measured && measured <= max, "{measured} outside [{min}, {max}]");
        let skip = t.get("predicted_skip_fraction").num();
        assert!((0.0..=1.0).contains(&skip));
        for l in t.get("loops").arr() {
            l.get("back_edge_pc").num();
            let lo = l.get("min_trips").num();
            let hi = l.get("max_trips").num();
            assert!(lo >= 1.0 && lo <= hi);
        }
        let b = t.get("breakdown");
        for key in [
            "fetch_bound",
            "issue_bound",
            "lsu_bound",
            "chain_bound",
            "fetch_serial",
            "issue_serial",
            "lsu_serial",
            "sfu_serial",
            "dram_serial",
            "exposed",
            "darsie_slack",
            "tbs_per_sm",
            "waves",
        ] {
            b.get(key).num();
        }
        assert_eq!(t.get("diagnostics").arr().len(), 0, "BIN estimates clean");
    }
    // DARSIE predicts actual savings on BIN.
    assert!(techs[1].get("predicted_skip_fraction").num() > 0.0);
    let t = doc.get("totals");
    assert_eq!(t.get("bound_violations").num(), 0.0);
    assert_eq!(t.get("unbounded_loops").num(), 0.0);
    assert!(t.get("mean_bracket_width").num() > 0.0);
}

/// Golden schema for `bench --json`, and the snapshot side effect: the
/// document on stdout is also written verbatim to `BENCH_<date>.json` in
/// the working directory.
#[test]
fn bench_json_schema_and_snapshot_file() {
    let dir = std::env::temp_dir().join("darsie-sim-bench-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_darsie-sim"))
        .args(["bench", "BIN", "--scale", "test", "--json"])
        .current_dir(&dir)
        .output()
        .expect("spawn darsie-sim");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = Json::parse(stdout.trim());
    assert_header(&doc, "bench");
    let date = doc.get("date").str().to_string();
    assert_eq!(date.len(), 10, "YYYY-MM-DD");
    assert_eq!(doc.get("scale").str(), "test");
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    assert!(!w.get("kernel").str().is_empty());
    assert!(w.get("darsie_speedup").num() > 0.0);
    let techs = w.get("techniques").arr();
    assert_eq!(techs.len(), 2, "Base and DARSIE");
    let labels: Vec<&str> = techs.iter().map(|t| t.get("technique").str()).collect();
    assert_eq!(labels, ["BASE", "DARSIE"]);
    for t in techs {
        assert!(t.get("cycles").num() > 0.0);
        assert!(t.get("wall_seconds").num() >= 0.0);
        assert!(t.get("sim_cycles_per_sec").num() > 0.0);
        t.get("instructions_skipped").num();
        assert!(t.get("instructions_executed").num() > 0.0);
        let min = t.get("static_min_cycles").num();
        let max = t.get("static_max_cycles").num();
        assert!(min <= t.get("cycles").num() && t.get("cycles").num() <= max);
        assert_hex_digest(t.get("digest_root"));
    }
    let snapshot = dir.join(format!("BENCH_{date}.json"));
    let text = std::fs::read_to_string(&snapshot).expect("snapshot file written");
    std::fs::remove_file(&snapshot).ok();
    assert_eq!(text.trim(), stdout.trim(), "snapshot must match stdout document");
}

/// Golden schema for `replay-diff --json` in self-comparison mode: two
/// runs of the same spec must be digest-identical, exit 0.
#[test]
fn replay_diff_self_comparison_is_identical() {
    let (code, out, err) = run(&["replay-diff", "BIN", "--scale", "test", "--json"]);
    assert_eq!(code, Some(0), "{err}");
    let doc = Json::parse(out.trim());
    assert_header(&doc, "replay-diff");
    assert!(doc.get("self_compare").bool());
    let ws = doc.get("workloads").arr();
    assert_eq!(ws.len(), 1);
    let w = &ws[0];
    assert_eq!(w.get("abbr").str(), "BIN");
    assert!(!w.get("kernel").str().is_empty());
    assert!(w.get("identical").bool());
    assert_hex_digest(w.get("root_a"));
    assert_eq!(w.get("root_a"), w.get("root_b"));
    assert_eq!(w.get("cycles_a").num(), w.get("cycles_b").num());
    assert!(w.get("epochs").num() >= 1.0);
    assert_eq!(*w.get("divergence"), Json::Null);
    let t = doc.get("totals");
    assert_eq!(t.get("workloads").num(), 1.0);
    assert_eq!(t.get("divergent").num(), 0.0);
}

/// `replay-diff --perturb CYCLE` flips one global-memory word in run B;
/// the bisector must localize the first divergence to the memory chain
/// at exactly that cycle — and, as a divergence hunt, still exit 0.
#[test]
fn replay_diff_perturbation_is_bisected_to_memory_at_cycle() {
    let (code, out, err) =
        run(&["replay-diff", "BIN", "--scale", "test", "--json", "--perturb", "10"]);
    assert_eq!(code, Some(0), "a hunt that finds its divergence succeeds: {err}");
    let doc = Json::parse(out.trim());
    assert_header(&doc, "replay-diff");
    assert!(!doc.get("self_compare").bool());
    let w = &doc.get("workloads").arr()[0];
    assert!(!w.get("identical").bool());
    assert_ne!(w.get("root_a"), w.get("root_b"));
    let d = w.get("divergence");
    assert_eq!(d.get("chain").str(), "memory");
    assert_eq!(*d.get("sm"), Json::Null);
    assert_eq!(d.get("component").str(), "memory");
    assert_eq!(d.get("cycle").num(), 10.0, "fine mode pins the perturbation cycle");
    let subs = d.get("subs").arr();
    assert!(!subs.is_empty());
    for s in subs {
        s.get("component").str();
        assert_hex_digest(s.get("a"));
        assert_hex_digest(s.get("b"));
    }
    assert_eq!(doc.get("totals").get("divergent").num(), 1.0);
}

/// `--against technique=base` compares DARSIE to the baseline pipeline:
/// the runs must diverge (that is the point of the hunt) and exit 0.
#[test]
fn replay_diff_against_differing_technique_diverges() {
    let (code, out, _) =
        run(&["replay-diff", "BIN", "--scale", "test", "--json", "--against", "technique=base"]);
    assert_eq!(code, Some(0));
    let doc = Json::parse(out.trim());
    let w = &doc.get("workloads").arr()[0];
    assert!(!w.get("identical").bool());
    assert!(matches!(w.get("divergence"), Json::Obj(_)));
}

/// Golden schema for the run manifest every subcommand emits under
/// `--manifest PATH`: header, phase spans with wall/alloc counters,
/// counters, metrics, digest roots and the exit code.
#[test]
fn manifest_golden_schema() {
    let dir = std::env::temp_dir().join("darsie-sim-manifest-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("verify.manifest.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, _, err) =
        run(&["verify", "BIN", "--scale", "test", "--json", "--manifest", path_str]);
    assert_eq!(code, Some(0), "{err}");
    let text = std::fs::read_to_string(&path).expect("manifest written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(text.trim());
    assert_eq!(doc.get("tool").str(), "darsie-sim");
    assert!(!doc.get("version").str().is_empty());
    assert_eq!(doc.get("schema_version").num(), 1.0);
    assert_eq!(doc.get("subcommand").str(), "verify");
    assert!(doc.get("args").arr().iter().any(|a| a.str() == "BIN"));
    assert!(doc.get("wall_seconds").num() >= 0.0);
    assert_eq!(doc.get("exit_code").num(), 0.0);
    let phases = doc.get("phases").arr();
    assert!(!phases.is_empty(), "at least one phase span");
    for p in phases {
        assert!(!p.get("name").str().is_empty());
        assert!(p.get("start_seconds").num() >= 0.0);
        assert!(p.get("wall_seconds").num() >= 0.0);
        p.get("alloc_bytes").num();
        p.get("allocs").num();
    }
    let counters = match doc.get("counters") {
        Json::Obj(m) => m,
        other => panic!("expected counters object, got {other:?}"),
    };
    assert!(counters.contains_key("workloads"));
    assert!(matches!(doc.get("metrics"), Json::Obj(_)));
    assert!(matches!(doc.get("digest_roots"), Json::Obj(_)));
}

/// The manifest of a digest-bearing subcommand records per-run digest
/// roots (hex strings) and a config fingerprint; a `replay-diff`
/// self-comparison records matching A/B roots.
#[test]
fn manifest_records_digest_roots() {
    let dir = std::env::temp_dir().join("darsie-sim-manifest-digest-test");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("replay.manifest.json");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (code, _, err) = run(&["replay-diff", "BIN", "--scale", "test", "--manifest", path_str]);
    assert_eq!(code, Some(0), "{err}");
    let text = std::fs::read_to_string(&path).expect("manifest written");
    std::fs::remove_file(&path).ok();
    let doc = Json::parse(text.trim());
    assert_hex_digest(doc.get("config_fingerprint"));
    let roots = match doc.get("digest_roots") {
        Json::Obj(m) => m,
        other => panic!("expected digest_roots object, got {other:?}"),
    };
    assert_hex_digest(roots.get("BIN/A").expect("run A root recorded"));
    assert_eq!(roots.get("BIN/A"), roots.get("BIN/B"), "self-comparison roots match");
}
