//! Golden-diagnostic tests over the fixture trees: the clean tree must
//! stay quiet (with its one justified suppression recorded), and the
//! violations tree must reproduce the expected diagnostics exactly —
//! proving every rule both fires and stays quiet.

use std::path::{Path, PathBuf};
use std::process::Command;
use txboost_lint::{lint_source, lint_tree, Report, RULES};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn compact(report: &Report) -> Vec<String> {
    report
        .unsuppressed()
        .map(|d| format!("{} {}:{}", d.rule, d.path, d.line))
        .collect()
}

#[test]
fn clean_fixture_tree_is_quiet() {
    let report = lint_tree(&fixture_root("clean")).expect("lint clean tree");
    let noisy = compact(&report);
    assert!(noisy.is_empty(), "clean fixtures produced: {noisy:#?}");
    // The deliberate justified exception is recorded, not lost.
    let suppressed: Vec<_> = report.suppressed().collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].rule, "inverse-pairing");
    assert!(suppressed[0]
        .suppressed
        .as_deref()
        .unwrap_or("")
        .contains("residue"));
    // Unsafe sites are inventoried with their justifications.
    assert!(report.inventory.len() >= 3);
    assert!(
        report.inventory.iter().all(|s| !s.justification.is_empty()),
        "clean-tree unsafe sites must all be justified: {:#?}",
        report.inventory
    );
}

#[test]
fn violations_fixture_tree_matches_golden_diagnostics() {
    let root = fixture_root("violations");
    let report = lint_tree(&root).expect("lint violations tree");
    let got = compact(&report);
    let golden = std::fs::read_to_string(root.join("expected_diagnostics.txt"))
        .expect("read expected_diagnostics.txt");
    let expected: Vec<String> = golden
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    assert_eq!(
        got, expected,
        "diagnostics diverged from the golden file\n got: {got:#?}\n expected: {expected:#?}"
    );
}

#[test]
fn every_rule_in_the_table_fires_on_the_violations_tree() {
    let report = lint_tree(&fixture_root("violations")).expect("lint violations tree");
    let fired: std::collections::BTreeSet<&str> = report.unsuppressed().map(|d| d.rule).collect();
    for rule in RULES {
        assert!(
            fired.contains(rule.name),
            "rule `{}` never fired on the violations fixtures",
            rule.name
        );
    }
    // The suppression policy check fires too (an allow without reason).
    assert!(fired.contains(txboost_lint::SUPPRESSION_MISSING_REASON));
}

#[test]
fn suppressed_finding_in_violations_tree_is_counted_but_silent() {
    // bad ffi.rs suppresses one unsafe-inventory finding (without a
    // reason — which is its own diagnostic, but the original finding
    // must still be silenced rather than double-reported).
    let report = lint_tree(&fixture_root("violations")).expect("lint violations tree");
    assert_eq!(report.suppressed().count(), 1);
}

#[test]
fn an_unparseable_boosted_body_is_one_cfg_parse_finding_and_fails_deny_all() {
    // The golden diagnostics pin the `cfg-parse` finding itself; here
    // the parse failure alone must fail `--deny-all`: lint a tree
    // holding only that file.
    let root = fixture_root("violations");
    let rel = "crates/boosted/src/bad_parse.rs";
    let src = std::fs::read_to_string(root.join(rel)).expect("read bad_parse.rs");
    let tree = std::env::temp_dir().join(format!("txboost-lint-cfg-parse-{}", std::process::id()));
    let file = tree.join(rel);
    std::fs::create_dir_all(file.parent().expect("fixture path has a parent"))
        .expect("create scratch tree");
    std::fs::write(&file, &src).expect("write scratch fixture");
    let out = Command::new(env!("CARGO_BIN_EXE_txboost-lint"))
        .arg("--path")
        .arg(&tree)
        .args(["--deny-all", "--quiet"])
        .output()
        .expect("run txboost-lint");
    let _ = std::fs::remove_dir_all(&tree);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(": 1 finding(s)"), "{stdout}");

    // Rewriting the construct clears the finding, and the now-parsed
    // method passes every other rule.
    let fixed = src.replace("delta << shift", "delta * u64::from(shift)");
    let noisy: Vec<&str> = lint_source(rel, &fixed)
        .unsuppressed()
        .map(|d| d.rule)
        .collect();
    assert!(noisy.is_empty(), "{noisy:?}");
}
