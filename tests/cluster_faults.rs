//! The fault-tolerance acceptance harness of the das-cluster tier:
//!
//! * a **seeded mid-stream node kill strands no work** — every job in
//!   the stream completes on the survivors, and the merged extras
//!   attribute the failure (`node{i}.failed`, `jobs_requeued`);
//! * a **faulty run is bit-reproducible** — every fault trigger is
//!   logical (the n-th admitted job, the n-th frame), never wall-clock,
//!   so two executions of the same seeded schedule produce identical
//!   reports down to the timestamps;
//! * an **inert fault plane costs nothing**: a 1-node cluster carrying
//!   a `FaultSchedule` that schedules no faults stays bit-identical to
//!   a bare `Simulator` session — the plane is pure bookkeeping until
//!   a fault fires;
//! * **lost frames become typed errors, not hangs**: withheld acks
//!   surface as `ExecError::Timeout` through the bounded control RPCs,
//!   and a fully-dead fleet surfaces `ExecError::Failed`;
//! * **membership churn between drains loses nothing**: a node added
//!   mid-stream takes traffic, a removed node's queue drains onto its
//!   peers before departure.

use das::cluster::{Cluster, ClusterBuilder, RoutePolicy};
use das::core::jobs::{JobId, JobSpec, StreamStats};
use das::core::Policy;
use das::dag::Dag;
use das::exec::{ExecError, ExecReport, Executor, SessionBuilder, Ticket};
use das::sim::Simulator;
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use das_core::FaultSchedule;
use std::sync::Arc;
use std::time::Duration;

/// The seeded stream every section executes (14 mixed-shape jobs).
fn stream() -> Vec<JobSpec<Dag>> {
    StreamConfig::poisson(42, 14, 250.0)
        .shape(JobShape::Mixed {
            parallelism: 4,
            layers: 6,
        })
        .slack(30.0)
        .generate()
}

fn base_session(seed: u64) -> SessionBuilder {
    SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(seed)
}

/// 4 round-robin nodes; node 3 dies at its second admission — roughly
/// the middle of the 14-job stream.
fn faulty_run() -> ExecReport {
    let base = base_session(7).fault_schedule(FaultSchedule::new(7).kill(3, 1));
    let mut cluster = ClusterBuilder::new(base, 4)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    cluster
        .run_stream(stream())
        .expect("stream survives the kill")
}

#[test]
fn a_mid_stream_kill_completes_every_job_on_the_survivors() {
    let mut bare = Simulator::from_session(&base_session(7));
    let baseline = Executor::run_stream(&mut bare, stream()).expect("baseline");

    let report = faulty_run();
    // The full job set completes: same count, same per-job task totals
    // (routing and recovery never rewrite a spec).
    assert_eq!(report.jobs.jobs.len(), baseline.jobs.jobs.len());
    assert_eq!(report.tasks(), baseline.tasks());
    let ids: Vec<u64> = report.jobs.jobs.iter().map(|j| j.id.0).collect();
    assert_eq!(ids, (0..14).collect::<Vec<_>>(), "ids stay dense");
    // The failure is attributed, the recovery is counted: node 3's
    // three jobs (3, 7 and 11 — it admitted 3 and died at 7) had not
    // begun when the drain discovered the death, so all three requeue.
    assert_eq!(report.extras.get("node3.failed"), Some(1.0));
    assert_eq!(report.extras.get("jobs_requeued"), Some(3.0));
    assert_eq!(report.extras.get("retries"), None);
    assert_eq!(report.extras.get("jobs_lost"), None, "nothing was lost");
    assert_eq!(report.extras.get("nodes"), Some(3.0), "3 survivors");
    // The dead node kept its pre-death work; the survivors absorbed the
    // rest.
    let routed: f64 = (0..4)
        .map(|n| report.extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
        .sum();
    assert_eq!(routed as usize, 14);
}

#[test]
fn a_faulty_run_is_bit_reproducible() {
    // Fault triggers are logical (admission counts, frame counts), so
    // the whole report — records, timestamps, merged extras — must be
    // identical across executions.
    assert_eq!(faulty_run(), faulty_run());
}

#[test]
fn an_inert_fault_plane_keeps_the_one_node_differential_exact() {
    let jobs = stream();
    let mut bare = Simulator::from_session(&base_session(3));
    let bare_report = Executor::run_stream(&mut bare, jobs.clone()).expect("bare stream");

    // A schedule with no faults: the plane rides along but never fires.
    let base = base_session(3).fault_schedule(FaultSchedule::new(99));
    let mut cluster = ClusterBuilder::new(base, 1).build_sim();
    let cluster_report = cluster.run_stream(jobs).expect("cluster stream");

    assert_eq!(
        cluster_report.jobs, bare_report.jobs,
        "bit-identical records"
    );
    assert_eq!(cluster_report.extras.steals, bare_report.extras.steals);
    assert_eq!(cluster_report.extras.events, bare_report.extras.events);
    assert_eq!(cluster_report.extras.get("jobs_requeued"), None);
    assert_eq!(cluster_report.extras.get("node0.failed"), None);
}

#[test]
fn withheld_acks_become_typed_timeouts_not_hangs() {
    let base = base_session(5).fault_schedule(FaultSchedule::new(5).drop_acks(0, 1));
    let mut cluster = ClusterBuilder::new(base, 1)
        .rpc_deadline(Duration::from_millis(2))
        .rpc_attempts(2)
        .build_sim();
    // Admission is one-way: there is no ack to withhold, so the token
    // waits for the first reply — the drain's.
    let t = cluster
        .submit(stream().remove(0))
        .expect("admission sends nothing back");
    let err = cluster.drain().unwrap_err();
    assert!(
        matches!(err, ExecError::Timeout { waited_ms: _ }),
        "{err:?}"
    );
    // The node did drain; its record left with the withheld reply, and
    // the failed drain retired the ticket — never invented as a
    // completion.
    assert_eq!(cluster.wait(t), Err(ExecError::UnknownTicket(JobId(0))));
    let stats = cluster.drain().expect("drain recovers after the timeout");
    assert!(stats.jobs.is_empty());
    assert_eq!(cluster.take_extras().get("jobs_orphaned"), None);
}

#[test]
fn a_fully_dead_fleet_fails_typed_instead_of_hanging() {
    // The single node dies at its first admission. The submission only
    // routes, so it succeeds; the wait discovers the death and, with no
    // survivor to requeue onto, redeems the job as lost. Once no live
    // node remains, submission itself fails typed.
    let base = base_session(9).fault_schedule(FaultSchedule::new(9).kill(0, 0));
    let mut cluster = ClusterBuilder::new(base, 1).build_sim();
    let t = cluster
        .submit(stream().remove(0))
        .expect("routed before the death is known");
    assert_eq!(cluster.live_nodes(), 1);
    assert_eq!(cluster.wait(t), Err(ExecError::NodeFailed { node: 0 }));
    assert_eq!(cluster.live_nodes(), 0);
    let err = cluster.submit(stream().remove(0)).unwrap_err();
    assert!(matches!(err, ExecError::Failed(_)), "{err:?}");
    // Drop with a dead fleet must not hang either.
    drop(cluster);
}

#[test]
fn membership_churn_mid_stream_loses_no_jobs() {
    let jobs = stream();
    let (first, rest) = jobs.split_at(6);
    let mut cluster = ClusterBuilder::new(base_session(11), 2)
        .route(RoutePolicy::RoundRobin)
        .build_sim();
    for spec in first {
        cluster.submit(spec.clone()).expect("accepted");
    }
    // Scale up, then retire node 0: its pending queue drains onto the
    // peers before the agent shuts down.
    assert_eq!(cluster.add_node(&base_session(11)), 2);
    cluster.remove_node(0).expect("retires cleanly");
    for spec in rest {
        cluster.submit(spec.clone()).expect("accepted");
    }
    let stats = cluster.drain().expect("drains");
    assert_eq!(stats.jobs.len(), 14, "no job lost across churn");
    let extras = cluster.take_extras();
    assert_eq!(extras.get("node0.removed"), Some(1.0));
    assert_eq!(extras.get("nodes"), Some(2.0));
    assert!(extras.get("jobs_requeued").unwrap_or(0.0) >= 1.0);
    // The retired slot keeps its pre-departure attribution; the fleet
    // covered the whole stream.
    let routed: f64 = (0..3)
        .map(|n| extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
        .sum();
    assert_eq!(routed as usize, 14);
}

/// Drives `jobs` through `cluster` in rounds of 4 submissions; after
/// each round it waits on the round's first job on each node, so every
/// node that took work replies — and its load report reaches the
/// dispatcher — mid-stream, then drains. Returns the node each job was
/// routed to and the report over the waited and drained records.
fn rounds_with_waits(
    cluster: &mut Cluster<Dag>,
    jobs: Vec<JobSpec<Dag>>,
) -> (Vec<usize>, ExecReport) {
    let mut routed = Vec::new();
    let mut records = Vec::new();
    let mut jobs = jobs.into_iter().peekable();
    while jobs.peek().is_some() {
        let mut firsts: Vec<(usize, Ticket)> = Vec::new();
        for spec in jobs.by_ref().take(4) {
            let t = cluster.submit(spec).expect("routed");
            let node = cluster.node_of(&t).expect("just routed");
            routed.push(node);
            if firsts.iter().all(|(n, _)| *n != node) {
                firsts.push((node, t));
            }
        }
        for (_, t) in firsts {
            records.push(cluster.wait(t).expect("redeemed"));
        }
    }
    records.extend(cluster.drain().expect("drains").jobs);
    let report = ExecReport::new(
        cluster.backend(),
        StreamStats::from_jobs(records),
        cluster.take_extras(),
    );
    (routed, report)
}

/// Jobs routed to each of `nodes` nodes.
fn per_node(routed: &[usize], nodes: usize) -> Vec<usize> {
    (0..nodes)
        .map(|n| routed.iter().filter(|&&r| r == n).count())
        .collect()
}

#[test]
fn a_slow_node_receives_fewer_jobs_under_least_outstanding() {
    // The load view is the last report read with a node's reply plus
    // the jobs routed there since; `slow(1, 4.0)` inflates node 1's
    // reports fourfold, so each of its waits pushes it away.
    let run = |faults: FaultSchedule| {
        let base = base_session(12).fault_schedule(faults);
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::LeastOutstanding)
            .build_sim();
        let (routed, report) = rounds_with_waits(&mut cluster, stream());
        assert_eq!(report.jobs.jobs.len(), 14, "every job completes");
        per_node(&routed, 2)
    };
    assert_eq!(run(FaultSchedule::new(12)), vec![7, 7]);
    assert_eq!(run(FaultSchedule::new(12).slow(1, 4.0)), vec![10, 4]);
}

#[test]
fn a_load_faulted_power_of_two_run_is_bit_reproducible() {
    // Every load fault at once on a load-sensitive policy: the view
    // (reports read only at sync points, plus the jobs routed since) is
    // a pure function of the schedule, so routing, recovery and every
    // record repeat exactly.
    let run = || {
        let faults = FaultSchedule::new(13)
            .slow(1, 3.0)
            .drop_load_reports(2, 2)
            .delay_load_reports(0, 3)
            .kill(3, 2);
        let base = base_session(13).fault_schedule(faults);
        let mut cluster = ClusterBuilder::new(base, 4)
            .route(RoutePolicy::PowerOfTwo)
            .build_sim();
        rounds_with_waits(&mut cluster, stream())
    };
    let (routed, report) = run();
    assert_eq!(report.jobs.jobs.len(), 14, "every job completes");
    assert_eq!(
        report.extras.get("node3.failed"),
        Some(1.0),
        "the kill fired"
    );
    assert_eq!((routed.clone(), report.clone()), run());
}
