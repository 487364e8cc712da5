//! Fixture-based self-tests of the das-lint rule engine.
//!
//! Every negative fixture under `crates/lint/fixtures/` contains known
//! violations at known lines; these tests pin the exact `(line, rule)`
//! set each one must produce — both that the violations ARE caught and
//! that the justified/exempt lines are NOT. The final test runs the
//! full workspace audit: it is the same gate CI runs, so deleting any
//! justification comment in the tree turns `cargo test` red too.

use std::path::{Path, PathBuf};

use das_lint::lexer::mask;
use das_lint::rules::{
    check_contract, rule_blocking, rule_lock_order, FileKind, LockEdge, RULE_ATOMICS,
    RULE_BLOCKING, RULE_CONTRACT, RULE_DETERMINISM, RULE_FAULT, RULE_LOCK_ORDER, RULE_PANIC,
    RULE_UNSAFE,
};
use das_lint::{audit_source, graph_source, Config};

const DET_LIB: FileKind = FileKind {
    det_critical: true,
    lib_code: true,
    test_file: false,
    control_plane: false,
};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).expect("fixture file exists")
}

/// Audit one fixture and return its `(line, rule)` findings, sorted.
fn audit(name: &str, kind: FileKind) -> Vec<(usize, &'static str)> {
    let src = fixture(name);
    let (diags, _) = audit_source(Path::new(name), &src, kind);
    let mut got: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
    got.sort();
    got
}

#[test]
fn det_clock_flags_unjustified_reads_only() {
    let got = audit("det_clock.rs", DET_LIB);
    // Line 4: Instant::now. Line 11: std::env + env::var both match (one
    // line, two patterns). Line 10 is justified by the det-ok above it.
    assert_eq!(
        got,
        vec![
            (4, RULE_DETERMINISM),
            (11, RULE_DETERMINISM),
            (11, RULE_DETERMINISM),
        ]
    );
}

#[test]
fn det_map_iter_flags_hash_iteration_not_justified_drain() {
    let got = audit("det_map_iter.rs", DET_LIB);
    // Line 11: entries.values(). Line 22: `for … in &self.seen`.
    // Line 16 (entries.drain) is justified by the det-ok above it.
    assert_eq!(got, vec![(11, RULE_DETERMINISM), (22, RULE_DETERMINISM)]);
}

#[test]
fn det_rules_do_not_fire_outside_critical_crates() {
    let kind = FileKind {
        det_critical: false,
        lib_code: true,
        test_file: false,
        control_plane: false,
    };
    assert_eq!(audit("det_clock.rs", kind), vec![]);
    assert_eq!(audit("det_map_iter.rs", kind), vec![]);
}

#[test]
fn relaxed_bare_flags_every_unannotated_site() {
    let got = audit("relaxed_bare.rs", DET_LIB);
    assert_eq!(got, vec![(5, RULE_ATOMICS), (10, RULE_ATOMICS)]);
}

#[test]
fn relaxed_mixed_accepts_same_line_and_preceding_annotations() {
    let got = audit("relaxed_mixed.rs", DET_LIB);
    assert_eq!(got, vec![(5, RULE_ATOMICS)]);
}

#[test]
fn relaxed_inventory_counts_orderings() {
    let src = fixture("relaxed_bare.rs");
    let (_, counts) = audit_source(Path::new("relaxed_bare.rs"), &src, DET_LIB);
    // ORDERINGS = [Relaxed, Acquire, Release, AcqRel, SeqCst]
    assert_eq!(counts.0, [2, 1, 0, 0, 0]);
}

#[test]
fn unsafe_block_without_safety_is_flagged() {
    let got = audit("unsafe_block.rs", FileKind::default());
    assert_eq!(got, vec![(4, RULE_UNSAFE)]);
}

#[test]
fn unsafe_impl_and_fn_hygiene() {
    let got = audit("unsafe_impl.rs", FileKind::default());
    // Line 5: bare `unsafe impl Send`. Line 16: bare `unsafe fn`.
    // Line 8 has a SAFETY comment, line 12 a rustdoc `# Safety` section.
    assert_eq!(got, vec![(5, RULE_UNSAFE), (16, RULE_UNSAFE)]);
}

#[test]
fn bare_unwrap_in_lib_code_is_flagged() {
    let got = audit("unwrap_bare.rs", DET_LIB);
    assert_eq!(got, vec![(4, RULE_PANIC)]);
}

#[test]
fn unwrap_exemptions_tests_and_annotations() {
    let got = audit("unwrap_scoped.rs", DET_LIB);
    // Line 4 is annotated, line 15 sits in #[cfg(test)]; only line 8
    // is a bare library unwrap.
    assert_eq!(got, vec![(8, RULE_PANIC)]);

    // The same file as a test file produces no panic findings at all.
    let kind = FileKind {
        det_critical: false,
        lib_code: false,
        test_file: true,
        control_plane: false,
    };
    assert_eq!(audit("unwrap_scoped.rs", kind), vec![]);
}

#[test]
fn intentional_panics_need_fault_ok_in_det_critical_lib_code() {
    let got = audit("fault_panic.rs", DET_LIB);
    // Line 4: bare `panic!`. Line 13: bare `panic_any`. Line 9 is
    // justified, `catch_unwind` is not a macro call, and the
    // `#[cfg(test)]` module panics freely.
    assert_eq!(got, vec![(4, RULE_FAULT), (13, RULE_FAULT)]);
}

#[test]
fn fault_rule_is_scoped_to_det_critical_lib_code() {
    let non_critical = FileKind {
        det_critical: false,
        lib_code: true,
        test_file: false,
        control_plane: false,
    };
    assert_eq!(audit("fault_panic.rs", non_critical), vec![]);
    let test_kind = FileKind {
        det_critical: true,
        lib_code: false,
        test_file: true,
        control_plane: false,
    };
    assert_eq!(audit("fault_panic.rs", test_kind), vec![]);
}

#[test]
fn contract_missing_variant_points_at_its_definition_line() {
    let e = mask(&fixture("contract_enum.rs"));
    let t = mask(&fixture("contract_target_partial.rs"));
    let diags = check_contract(
        Path::new("contract_enum.rs"),
        &e,
        "Signal",
        Path::new("contract_target_partial.rs"),
        &t,
    );
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, RULE_CONTRACT);
    assert_eq!(diags[0].line, 7, "Stop is declared on line 7");
    assert!(diags[0].msg.contains("Signal::Stop"));
}

#[test]
fn contract_full_coverage_is_clean_and_stale_enum_is_loud() {
    let e = mask(&fixture("contract_enum.rs"));
    let t = mask(&fixture("contract_target_full.rs"));
    let clean = check_contract(
        Path::new("contract_enum.rs"),
        &e,
        "Signal",
        Path::new("contract_target_full.rs"),
        &t,
    );
    assert_eq!(clean, vec![]);

    // A contract naming an enum that no longer exists must fail loudly,
    // not silently pass with zero variants.
    let stale = check_contract(
        Path::new("contract_enum.rs"),
        &e,
        "Missing",
        Path::new("contract_target_full.rs"),
        &t,
    );
    assert_eq!(stale.len(), 1);
    assert!(stale[0].msg.contains("stale"));
}

#[test]
fn metric_contract_accepts_full_merge_and_render_matrices() {
    let e = mask(&fixture("metric_enum.rs"));
    for target in ["metric_merge_full.rs", "metric_render_full.rs"] {
        let t = mask(&fixture(target));
        let diags = check_contract(
            Path::new("metric_enum.rs"),
            &e,
            "MetricKind",
            Path::new(target),
            &t,
        );
        assert_eq!(diags, vec![], "{target} covers every metric kind");
    }
}

#[test]
fn metric_contract_flags_wildcard_hidden_and_forgotten_kinds() {
    let e = mask(&fixture("metric_enum.rs"));

    // A wildcard match arm hides two kinds from the merge.
    let t = mask(&fixture("metric_merge_partial.rs"));
    let diags = check_contract(
        Path::new("metric_enum.rs"),
        &e,
        "MetricKind",
        Path::new("metric_merge_partial.rs"),
        &t,
    );
    assert_eq!(diags.len(), 2);
    assert!(diags.iter().all(|d| d.rule == RULE_CONTRACT));
    assert!(diags[0].msg.contains("MetricKind::Utilization"));
    assert_eq!(diags[0].line, 8, "Utilization is declared on line 8");
    assert!(diags[1].msg.contains("MetricKind::SojournP99"));
    assert_eq!(diags[1].line, 9, "SojournP99 is declared on line 9");

    // The dashboard render matrix misses its p99 row.
    let t = mask(&fixture("metric_render_partial.rs"));
    let diags = check_contract(
        Path::new("metric_enum.rs"),
        &e,
        "MetricKind",
        Path::new("metric_render_partial.rs"),
        &t,
    );
    assert_eq!(diags.len(), 1);
    assert!(diags[0].msg.contains("MetricKind::SojournP99"));
}

#[test]
fn clean_fixture_is_clean_under_strictest_classification() {
    assert_eq!(audit("clean.rs", DET_LIB), vec![]);
}

// ---------------------------------------------------------------------
// Graph-layer fixtures: rules 7 (lock-order) and 8 (blocking).
// ---------------------------------------------------------------------

/// Control-plane library code: the classification rule 8 fires on.
const CONTROL: FileKind = FileKind {
    det_critical: false,
    lib_code: true,
    test_file: false,
    control_plane: true,
};

/// Run the lock-order pass over one fixture as its own single-file
/// crate; returns the sorted `(line, rule)` findings plus the graph.
fn lock_audit(name: &str) -> (Vec<(usize, &'static str)>, Vec<LockEdge>) {
    let src = fixture(name);
    let graph = graph_source(Path::new(name), &src, DET_LIB);
    let (diags, edges) = rule_lock_order(&[(PathBuf::from(name), graph)]);
    let mut got: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
    got.sort();
    (got, edges)
}

/// Run the blocking pass over one fixture under `kind`.
fn blocking_audit(name: &str, kind: FileKind) -> Vec<(usize, &'static str)> {
    let src = fixture(name);
    let graph = graph_source(Path::new(name), &src, kind);
    let diags = rule_blocking(Path::new(name), &graph, kind);
    let mut got: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
    got.sort();
    got
}

#[test]
fn lock_cycle_reports_both_inversion_sites() {
    // forward: alpha -> beta at line 9; backward: beta -> alpha via a
    // multi-line chain whose `lock` token lands on line 18. Each edge
    // closes the cycle, so both sites are reported.
    let (got, edges) = lock_audit("lock_cycle.rs");
    assert_eq!(got, vec![(9, RULE_LOCK_ORDER), (18, RULE_LOCK_ORDER)]);
    assert_eq!(edges.len(), 2);
    assert!(edges.iter().all(|e| !e.justified));
}

#[test]
fn graph_inversion_is_invisible_to_line_local_rules() {
    // Each function takes one lock directly and the other through a
    // helper call: no single line shows two locks, so the line-local
    // pass (rules 1-4, 6) sees nothing at all…
    let src = fixture("lock_inversion_xfn.rs");
    let (line_local, _) = audit_source(Path::new("lock_inversion_xfn.rs"), &src, DET_LIB);
    assert_eq!(line_local, vec![]);
    // …while the graph pass propagates held sets through the call
    // edges and reports the cycle at both call sites.
    let (got, _) = lock_audit("lock_inversion_xfn.rs");
    assert_eq!(got, vec![(10, RULE_LOCK_ORDER), (21, RULE_LOCK_ORDER)]);
}

#[test]
fn locks_held_across_blocking_calls_are_flagged() {
    // Line 10: recv under the stats guard. Line 18: condvar wait with
    // two guards live — the waited guard (`inner`) is exempt, `outer`
    // is not. The outer->inner acquisition is an edge but no cycle.
    let (got, edges) = lock_audit("lock_across_wait.rs");
    assert_eq!(got, vec![(10, RULE_LOCK_ORDER), (18, RULE_LOCK_ORDER)]);
    assert_eq!(edges.len(), 1);
    assert_eq!(
        (edges[0].from.as_str(), edges[0].to.as_str()),
        ("outer", "inner")
    );
}

#[test]
fn lock_ok_suppresses_diagnostics_but_keeps_edges() {
    // The same inversion and held-across-recv shapes as the positive
    // fixtures, each justified: no findings, but the graph still
    // reports both edges (marked justified) for the JSON artifact.
    let (got, edges) = lock_audit("lock_ok.rs");
    assert_eq!(got, vec![]);
    assert_eq!(edges.len(), 2);
    assert!(edges.iter().all(|e| e.justified));
}

#[test]
fn scoped_and_dropped_guards_produce_no_edges() {
    // Scope exit, explicit `drop(g)` and within-statement temporaries
    // all release before the next acquisition or blocking call.
    let (got, edges) = lock_audit("lock_scoped.rs");
    assert_eq!(got, vec![]);
    assert_eq!(edges, vec![]);
}

#[test]
fn unbounded_recv_flagged_on_control_plane_only() {
    // Line 9: the idle-loop recv; line 15: the spec-pump recv.
    let got = blocking_audit("block_recv.rs", CONTROL);
    assert_eq!(got, vec![(9, RULE_BLOCKING), (15, RULE_BLOCKING)]);
    // The same file outside the control plane is out of scope.
    assert_eq!(blocking_audit("block_recv.rs", DET_LIB), vec![]);
}

#[test]
fn justified_and_bounded_receives_are_clean() {
    assert_eq!(blocking_audit("block_ok.rs", CONTROL), vec![]);
    assert_eq!(blocking_audit("block_bounded.rs", CONTROL), vec![]);
}

/// The real gate: the workspace itself must audit clean. This is what
/// makes deleting any justification comment turn CI red twice over —
/// once through `cargo run -p das-lint`, once through `cargo test`.
#[test]
fn workspace_audits_clean() {
    let cfg = Config::workspace(das_lint::workspace_root());
    let report = das_lint::run(&cfg).expect("workspace tree is readable");
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "das-lint found violations:\n{}",
        rendered.join("\n")
    );
}
