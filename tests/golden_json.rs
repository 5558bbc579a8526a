//! Golden bytes for the `darsie-sim --json` documents CI gates on.
//!
//! Each test renders one report for `BIN` (1D, barriers in a uniform
//! loop) and `MM` (2D, heavy elimination) at test scale through
//! `darsie_bench::report` and compares it byte for byte with the document
//! under `tests/golden_json/`, as `darsie-sim <subcommand> BIN MM --scale
//! test --json` prints it. `bench` is not pinned: it carries wall times.
//!
//! A deliberate change to a document regenerates its file, e.g.
//! `darsie-sim estimate BIN MM --scale test --json > tests/golden_json/estimate.json`.

use darsie_bench::manifest::RunManifest;
use darsie_bench::replay::RunSpec;
use darsie_bench::report::{self, Output};
use workloads::{by_abbr, Scale, Workload};

fn bin_and_mm() -> Vec<Workload> {
    ["BIN", "MM"].iter().map(|a| by_abbr(a, Scale::Test).expect("catalog workload")).collect()
}

fn manifest() -> RunManifest {
    RunManifest::new("golden", &[])
}

/// Up to 80 bytes either side of byte `at`.
fn around(s: &str, at: usize) -> &str {
    s.get(at.saturating_sub(80)..(at + 80).min(s.len())).unwrap_or(s)
}

#[track_caller]
fn assert_golden(name: &str, output: Output) {
    assert_eq!(output.code, 0, "{name}: exit code");
    let path = format!("{}/tests/golden_json/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if output.out != golden {
        let at = output.out.bytes().zip(golden.bytes()).take_while(|(a, b)| a == b).count();
        panic!(
            "{name}: the document differs from {path} at byte {at}\n  \
             golden:   …{}…\n  rendered: …{}…",
            around(&golden, at),
            around(&output.out, at)
        );
    }
}

#[test]
fn verify_document_matches_the_golden_bytes() {
    assert_golden("verify", report::verify(&bin_and_mm(), true, 2, &mut manifest()));
}

#[test]
fn certify_documents_match_the_golden_bytes() {
    let ws = bin_and_mm();
    assert_golden("certify", report::certify(&ws, true, 2, &mut manifest()));
    assert_golden("certify-family", report::certify_family(&ws, true, 2, 25, &mut manifest()));
}

#[test]
fn analyze_document_matches_the_golden_bytes() {
    assert_golden("analyze", report::analyze(&bin_and_mm(), true, &mut manifest()));
}

#[test]
fn prove_document_matches_the_golden_bytes() {
    assert_golden("prove", report::prove(&bin_and_mm(), true, 2, &mut manifest()));
}

#[test]
fn profile_document_matches_the_golden_bytes() {
    assert_golden("profile", report::profile(&bin_and_mm(), true, None, &mut manifest()));
}

#[test]
fn estimate_document_matches_the_golden_bytes() {
    assert_golden("estimate", report::estimate(&bin_and_mm(), true, &mut manifest()));
}

#[test]
fn replay_diff_documents_match_the_golden_bytes() {
    let (ws, spec) = (bin_and_mm(), RunSpec::default());
    let self_compare = report::replay_diff(&ws, true, &spec, None, None, &mut manifest());
    assert_golden("replay-diff", self_compare);
    let perturbed = report::replay_diff(&ws, true, &spec, None, Some(10), &mut manifest());
    assert_golden("replay-diff-perturb", perturbed);
}

#[test]
fn lints_document_matches_the_golden_bytes() {
    assert_golden("lints", report::lints(true, &mut manifest()));
}
