//! Frames of the cluster link.
//!
//! Each node talks to the dispatcher over a private 2-rank
//! [`das_msg::Communicator`] whose payload is [`Frame`]: commands,
//! replies, load reports and metrics snapshots travel as typed values —
//! graphs, job records, extras, snapshots, trace spans and errors
//! included — so there is no codec and nothing to misframe. The link is
//! in-process; a socket transport would add a codec at this boundary.
//! Every frame goes out on the tag of its plane ([`Frame::tag`]), so a
//! receive on one tag only ever yields that plane's variants.

use das_core::exec::{ExecError, ExecExtras};
use das_core::jobs::{JobSpec, JobStats, StreamStats};
use das_core::metrics::{NodeSnapshot, TraceSpan};
use das_msg::Endpoint;

/// Dispatcher → node commands.
pub(crate) const T_CTRL: u32 = 1;
/// Node → dispatcher command replies and admission refusals.
pub(crate) const T_ACK: u32 = 2;
/// Node → dispatcher load reports (outstanding jobs). A node posts its
/// newest report just before each reply, so the dispatcher reads it
/// right after the reply — only ever at a point the dispatcher chose.
/// Collapsed to the newest report with
/// [`das_msg::Endpoint::try_recv_latest`].
pub(crate) const T_LOAD: u32 = 3;
/// Node → dispatcher metrics snapshots, posted immediately *before* the
/// load report they ride with — the dispatcher's keep-latest read then
/// always observes a snapshot at least as fresh as the load value beside
/// it. The pair shares **one** fault decision: a
/// `DropLoadReports`/`DelayLoadReports` token that suppresses (or
/// staleness-shifts) the load report does the same to the snapshot.
/// Cumulative counters make the stream loss-tolerant: any later
/// snapshot subsumes a dropped one.
pub(crate) const T_METRICS: u32 = 4;

/// The dispatcher's rank on every per-node link.
pub(crate) const DISPATCHER: usize = 0;
/// The node's rank on its own link: each node talks to the dispatcher
/// over a private 2-rank communicator, so membership churn never
/// resizes a shared rank space and a dead node can never wedge a
/// collective.
pub(crate) const NODE: usize = 1;

/// One message on a node link; the variant names its plane.
pub(crate) enum Frame<G> {
    /// Dispatcher → node, on [`T_CTRL`].
    Command(Command<G>),
    /// Node → dispatcher, on [`T_ACK`].
    Reply(Reply),
    /// Node → dispatcher, on [`T_ACK`]: the node refused an admission
    /// carrying these cluster ids, for this reason. The only reply an
    /// admission ever causes.
    Refused(Vec<u64>, ExecError),
    /// Node → dispatcher outstanding-job count, on [`T_LOAD`].
    Load(f64),
    /// Node → dispatcher metrics snapshot, on [`T_METRICS`].
    Snapshot(NodeSnapshot),
}

impl<G> Frame<G> {
    /// The tag of this frame's plane.
    pub(crate) fn tag(&self) -> u32 {
        match self {
            Frame::Command(_) => T_CTRL,
            Frame::Reply(_) | Frame::Refused(..) => T_ACK,
            Frame::Load(_) => T_LOAD,
            Frame::Snapshot(_) => T_METRICS,
        }
    }
}

/// Send `frame` to `dst` on the tag of its plane.
pub(crate) fn post<G>(ep: &Endpoint<Frame<G>>, dst: usize, frame: Frame<G>) {
    ep.send(dst, frame.tag(), frame);
}

/// Dispatcher → node commands. Each is answered by exactly one
/// [`Reply`] (unless a `DropAcks` fault withholds it), except `Admit`,
/// which is one-way, and `Shutdown`, which ends the agent.
pub(crate) enum Command<G> {
    /// Admit jobs under their cluster ids (`ids[i]` names `specs[i]`),
    /// in order: one frame per touched node per submission. Unanswered
    /// unless the node refuses it ([`Frame::Refused`]).
    Admit {
        ids: Vec<u64>,
        specs: Vec<JobSpec<G>>,
    },
    /// Redeem the cluster job id; answered by [`Ack::Waited`].
    Wait(u64),
    /// Drain the node; answered by [`Ack::Drained`].
    Drain,
    /// Drain, but reply with counts, stream endpoints and the node's
    /// post-drain snapshot instead of per-job records; answered by
    /// [`Ack::Summary`].
    DrainSummary,
    /// Hand over (and clear) the node's trace spans; answered by
    /// [`Ack::Trace`].
    PullTrace,
    /// Stop the agent. `Cluster::drop` sends it last.
    Shutdown,
}

impl<G> Command<G> {
    /// Whether serving this command executes the node's pending batch
    /// (the recovery plane's at-most-once boundary).
    pub(crate) fn executes(&self) -> bool {
        matches!(
            self,
            Command::Wait(_) | Command::Drain | Command::DrainSummary
        )
    }
}

/// Node → dispatcher replies.
pub(crate) enum Reply {
    /// The outcome of one command.
    Ack(Result<Ack, ExecError>),
    /// The agent died: sent by its panic wrapper as its last frame. It
    /// carries no node id — the link it arrives on names the node, so
    /// a confused agent cannot frame a peer.
    NodeDown,
}

impl Reply {
    /// The outcome of a reply that arrived on node `node`'s link,
    /// attributed to that node: a death frame becomes
    /// [`ExecError::NodeFailed`] for this link, and an error is
    /// attributed by [`on_link`].
    pub(crate) fn on_link(self, node: usize) -> Result<Ack, ExecError> {
        match self {
            Reply::Ack(ack) => ack.map_err(|e| on_link(e, node)),
            Reply::NodeDown => Err(ExecError::NodeFailed { node }),
        }
    }
}

/// A node's error as it crosses node `node`'s link: a `Rejected` or
/// `Failed` reason gains a `node {node}: ` prefix, and a `NodeFailed`
/// names this link. The match names every [`ExecError`] variant, so a
/// new one must decide here how it crosses the link.
pub(crate) fn on_link(e: ExecError, node: usize) -> ExecError {
    match e {
        ExecError::Rejected(why) => ExecError::Rejected(format!("node {node}: {why}")),
        ExecError::Failed(why) => ExecError::Failed(format!("node {node}: {why}")),
        ExecError::NodeFailed { .. } => ExecError::NodeFailed { node },
        e @ (ExecError::UnknownTicket(_)
        | ExecError::Overloaded { .. }
        | ExecError::Timeout { .. }) => e,
    }
}

/// The successful answer to each [`Command`].
pub(crate) enum Ack {
    /// The waited job's record, under its cluster id.
    Waited(JobStats),
    /// The node's drained stream (records under cluster ids) and its
    /// extras since the last drain.
    Drained(StreamStats, ExecExtras),
    /// The answer to [`Command::DrainSummary`].
    Summary(Box<Summary>),
    /// The node's trace spans since the last pull.
    Trace(Vec<TraceSpan>),
}

/// A node's drain summary. `t0`/`t1` are its first arrival and last
/// completion (not a pre-folded span), so the dispatcher computes the
/// *global* stream span across nodes — identical to what
/// `StreamStats::from_jobs` reports over the merged records. An empty
/// epoch carries the fold identities (`t0 = +inf`, `t1 = 0`).
pub(crate) struct Summary {
    pub jobs: u64,
    pub tasks: u64,
    pub t0: f64,
    pub t1: f64,
    pub extras: ExecExtras,
    pub snapshot: NodeSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterBuilder;
    use das_core::exec::{Executor, SessionBuilder, Ticket};
    use das_core::jobs::JobId;
    use das_core::{Policy, TaskTypeId};
    use das_dag::{generators, Dag};
    use das_sim::Simulator;
    use das_topology::Topology;
    use std::sync::Arc;

    #[test]
    fn failure_errors_round_trip_and_trust_the_link() {
        // A death frame names no node: the link it arrived on does.
        let on_2 = |r: Reply| r.on_link(2).err();
        assert_eq!(
            on_2(Reply::NodeDown),
            Some(ExecError::NodeFailed { node: 2 })
        );
        // A node cannot frame a peer either.
        assert_eq!(
            on_2(Reply::Ack(Err(ExecError::NodeFailed { node: 7 }))),
            Some(ExecError::NodeFailed { node: 2 })
        );
        // Typed fields cross unchanged; reasons gain the node once.
        for e in [
            ExecError::Timeout { waited_ms: 1500 },
            ExecError::UnknownTicket(JobId(9)),
            ExecError::Overloaded {
                outstanding: 64,
                limit: 64,
            },
        ] {
            assert_eq!(on_2(Reply::Ack(Err(e.clone()))), Some(e));
        }
        assert_eq!(
            on_2(Reply::Ack(Err(ExecError::Failed("budget".into())))),
            Some(ExecError::Failed("node 2: budget".into()))
        );
    }

    /// A simulator that reports no steal counter.
    struct NoSteals(Simulator);

    impl Executor for NoSteals {
        type Graph = Dag;

        fn backend(&self) -> &'static str {
            "no-steals"
        }

        fn submit(&mut self, spec: JobSpec<Dag>) -> Result<Ticket, ExecError> {
            Executor::submit(&mut self.0, spec)
        }

        fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
            Executor::wait(&mut self.0, ticket)
        }

        fn drain(&mut self) -> Result<StreamStats, ExecError> {
            Executor::drain(&mut self.0)
        }

        fn take_extras(&mut self) -> ExecExtras {
            let mut e = self.0.take_extras();
            e.steals = None;
            e
        }
    }

    #[test]
    fn extras_round_trip_preserves_absence() {
        let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(5);
        let mut cluster = ClusterBuilder::new(base, 2)
            .build_with(|_, session| NoSteals(Simulator::from_session(session)));
        for j in 0..4 {
            let dag = generators::chain(TaskTypeId(0), 4);
            Executor::submit(&mut cluster, JobSpec::new(dag).at(j as f64 * 1e-3)).unwrap();
        }
        cluster.drain().unwrap();
        let extras = cluster.take_extras();
        assert_eq!(extras.steals, None, "absent stays absent, not Some(0)");
        assert!(extras.get("node0.steals").is_none());
        assert!(
            extras.events.is_some_and(|e| e > 0),
            "present stays present"
        );
    }
}
