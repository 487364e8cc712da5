//! cluster_top — a `top(1)`-style text dashboard over a metrics-enabled
//! 4-node sim cluster.
//!
//! Streams a Poisson job mix into the cluster in batches and renders a
//! frame after every batch: one row per [`MetricKind`], one column per
//! node plus the merged cluster total. A node's snapshots (taken every
//! few admissions) reach the dispatcher with its replies, so after each
//! batch the client redeems one job per node — a sync point on every
//! link — and the mid-stream frame shows the snapshots that came back
//! with those waits: queue depth and admissions building up. The final
//! frame comes from [`drain_summary`](das::cluster::Cluster::drain_summary),
//! whose percentiles are read from the mergeable log-bucket sketches —
//! no per-job record ever crosses a node boundary.
//!
//! Non-interactive by design: it prints a fixed number of frames and
//! exits, so CI can smoke-run it like any other example.
//!
//! ```sh
//! cargo run --release --example cluster_top
//! ```

use das::cluster::{metric_scalar, ClusterBuilder, RoutePolicy};
use das::core::{MetricKind, MetricsConfig, MetricsReport, Policy};
use das::exec::{Executor, SessionBuilder};
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Render order and display unit for every metric family. das-lint's
/// cross-file contract check requires each `MetricKind` variant to be
/// handled here by name; adding a variant without a row fails CI.
const ROWS: [(MetricKind, Unit); 12] = [
    (MetricKind::QueueDepth, Unit::Count),
    (MetricKind::JobsAdmitted, Unit::Count),
    (MetricKind::JobsCompleted, Unit::Count),
    (MetricKind::TasksCompleted, Unit::Count),
    (MetricKind::Steals, Unit::Count),
    (MetricKind::FailedSteals, Unit::Count),
    (MetricKind::Events, Unit::Count),
    (MetricKind::Utilization, Unit::Percent),
    (MetricKind::PttResidual, Unit::Seconds),
    (MetricKind::SojournP50, Unit::Seconds),
    (MetricKind::SojournP99, Unit::Seconds),
    (MetricKind::QueueingP99, Unit::Seconds),
];

#[derive(Clone, Copy)]
enum Unit {
    Count,
    Percent,
    Seconds,
}

fn cell(v: f64, unit: Unit) -> String {
    match unit {
        Unit::Count => format!("{:>12}", v as u64),
        Unit::Percent => format!("{:>11.1}%", v * 100.0),
        Unit::Seconds => format!("{v:>12.6}"),
    }
}

fn render(frame: usize, label: &str, report: &MetricsReport) {
    println!("── frame {frame} ({label}) ──");
    if report.nodes.is_empty() {
        println!("  (no snapshots received yet)\n");
        return;
    }
    let totals = report.totals();
    print!("  {:<16}", "metric");
    for s in &report.nodes {
        print!("{:>12}", format!("node{}", s.node));
    }
    println!("{:>12}", "TOTAL");
    for (kind, unit) in ROWS {
        print!("  {:<16}", kind.name());
        for s in &report.nodes {
            print!("{}", cell(metric_scalar(kind, &s.probe), unit));
        }
        println!("{}", cell(metric_scalar(kind, &totals), unit));
    }
    println!();
}

fn main() {
    const NODES: usize = 4;
    const BATCH: usize = 16;

    let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
        .seed(7)
        .metrics(MetricsConfig::default().every(4));
    let mut cluster = ClusterBuilder::new(base, NODES)
        .route(RoutePolicy::RoundRobin)
        .build_sim();

    let jobs = StreamConfig::poisson(7, 48, 300.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 5,
        })
        .generate();
    println!(
        "cluster_top: {NODES}-node sim cluster, {} jobs in batches of {BATCH}, \
         snapshots every 4 admissions\n",
        jobs.len()
    );

    let mut frame = 0;
    let mut waited = 0u64;
    let mut pending = jobs.into_iter();
    loop {
        let batch: Vec<_> = pending.by_ref().take(BATCH).collect();
        if batch.is_empty() {
            break;
        }
        let admitted = cluster.submit_many(batch).expect("batch admitted");
        println!("submitted {} jobs", admitted.len());
        // Redeem the batch's first job on each node: each wait is a
        // sync point that brings that node's newest snapshot back.
        let mut synced = BTreeSet::new();
        for ticket in admitted {
            let node = cluster.node_of(&ticket).expect("just routed");
            if synced.insert(node) {
                cluster.wait(ticket).expect("job completes");
                waited += 1;
            }
        }
        frame += 1;
        render(frame, "mid-stream", &cluster.metrics_report());
    }

    let summary = cluster.drain_summary().expect("cluster drains");
    frame += 1;
    render(frame, "drained", &summary.report);

    let totals = summary.report.totals();
    println!(
        "cluster: {} jobs drained ({waited} redeemed mid-stream) / {} tasks \
         in {:.3}s simulated ({:.0} jobs/s), \
         sojourn p50 {:.6}s p99 {:.6}s (sketch, ±{:.1}% relative error)",
        summary.jobs,
        summary.tasks,
        summary.span,
        summary.jobs as f64 / summary.span,
        totals.sojourn.quantile(0.50).unwrap_or(0.0),
        totals.sojourn.quantile(0.99).unwrap_or(0.0),
        totals.sojourn.relative_error() * 100.0,
    );
    for s in &summary.report.nodes {
        println!(
            "  node{}: {} jobs ({:.0} jobs/s), utilization {:.1}%",
            s.node,
            s.probe.jobs_completed,
            s.probe.jobs_completed as f64 / summary.span,
            s.probe.utilization() * 100.0,
        );
    }
    // The probes are cumulative: they count the jobs redeemed by the
    // mid-stream waits as well as the drained ones.
    assert_eq!(
        summary.jobs + waited,
        totals.jobs_completed,
        "sketch counts agree"
    );
}
