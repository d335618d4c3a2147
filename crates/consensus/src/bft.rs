//! The shell every BFT engine runs in.
//!
//! PBFT ([`crate::pbft`]), Istanbul BFT ([`crate::ibft`]) and DiemBFT
//! ([`crate::diembft`]) differ only in their protocol. Everything around the
//! protocol lives here once: the epoch-versioned [`Membership`], crash and
//! recover, Byzantine fault windows, the safety and liveness monitors,
//! state-sync joins, the stale-epoch vote gate, command reclaim and the
//! [`BftCluster::run_until`] event loop.
//!
//! A [`Protocol`] supplies its messages, its node and protocol-wide state
//! and its handlers, plus a few hooks:
//!
//! - [`Protocol::start`] sizes the node state and arms the initial timers;
//! - [`Protocol::gate`] marks which messages are epoch-tagged votes and
//!   which one is the sync-completion timer ([`Protocol::sync_done`]);
//! - [`Protocol::synced_batches`] prices a joiner's catch-up;
//! - [`Protocol::adopt_joiner`] sets what a synced joiner adopts;
//! - [`Protocol::restart`] abandons in-flight work after a membership
//!   change, hands its commands to the shell's reclaim and restarts the
//!   pipeline;
//! - [`Protocol::on_recover`] and [`Protocol::before_run`] do nothing by
//!   default; DiemBFT uses them for its round catch-up and leader kick.
//!
//! Dispatch is static: `BftCluster<P>` is compiled once per protocol, so no
//! trait object sits on the message path.

use std::collections::BTreeSet;
use std::fmt::Debug;

use coconut_simnet::{ByzantineBehaviour, FaultEvent, NetConfig, NetSim, NetStats, Topology};
use coconut_types::{NodeId, SimDuration, SimTime};

use crate::liveness::{LivenessMonitor, LivenessReport};
use crate::safety::{ByzantineFlags, SafetyMonitor, SafetyReport};
use crate::{
    bft_quorum, BatchConfig, Command, CommittedBatch, CpuModel, Membership, SYNC_BASE,
    SYNC_PER_BATCH,
};

/// Salt an equivocating proposer mixes into its sibling block's digest:
/// same commands, different serialization, so honest nodes see two
/// irreconcilable proposals for one slot.
pub(crate) const SIBLING_SALT: u64 = 0xB12A_57DE;

/// How the shell routes a message before the protocol sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// A proposal, timer or other message: handed to [`Protocol::handle`].
    Protocol,
    /// A vote cast in the given membership epoch. Votes of a superseded
    /// epoch are counted in [`BftCluster::stale_epoch_rejections`] and
    /// dropped.
    Vote(u64),
    /// The timer that ends a joiner's catch-up.
    SyncDone(NodeId),
}

/// A BFT protocol that runs inside a [`BftCluster`].
///
/// The implementing type holds the protocol's settings (its timers) and its
/// per-node and protocol-wide state; its `Default` is the protocol's
/// default configuration with no nodes yet.
pub trait Protocol: Default + Debug {
    /// Protocol messages and local timers. Engines declare the enum `pub`
    /// inside a private module: an associated type may not name a private
    /// type, and the module keeps it out of the crate's API.
    type Msg: Debug;
    /// Default batch-cut policy.
    const BATCH: BatchConfig;
    /// Default fixed CPU cost of handling any protocol message.
    const PROC_PER_MSG: SimDuration;
    /// Default additional CPU cost per command in a proposal.
    const PROC_PER_COMMAND: SimDuration;

    /// Sizes the per-node state for every provisioned node and arms the
    /// initial timers.
    fn start(c: &mut BftCluster<Self>);
    /// Classifies `msg` for the shell's dispatch gates.
    fn gate(msg: &Self::Msg) -> Gate;
    /// The timer message that ends `node`'s catch-up.
    fn sync_done(node: NodeId) -> Self::Msg;
    /// Handles `msg` at an alive, active node `me`. Votes reaching this
    /// point carry the current epoch; sync timers never do.
    fn handle(c: &mut BftCluster<Self>, me: NodeId, at: SimTime, msg: Self::Msg);
    /// Committed batches a joiner transfers during catch-up.
    fn synced_batches(&self) -> u64;
    /// Sets the state joiner `node` adopts once it is an active member.
    fn adopt_joiner(c: &mut BftCluster<Self>, node: NodeId);
    /// After a membership change (the safety monitor already runs the new
    /// epoch): abandons in-flight work, returns its commands through
    /// the shell's reclaim and restarts the pipeline over the new
    /// membership.
    fn restart(c: &mut BftCluster<Self>);
    /// Runs after `node` recovered from a crash.
    fn on_recover(_c: &mut BftCluster<Self>, _node: NodeId) {}
    /// Runs at the start of every [`BftCluster::run_until`] call.
    fn before_run(_c: &mut BftCluster<Self>) {}
}

/// Configuration for a [`BftCluster`]; start with [`BftCluster::builder`].
/// Protocol-specific settings are further methods on the concrete builder.
#[derive(Debug, Clone)]
pub struct BftBuilder<P> {
    nodes: u32,
    standby: u32,
    topology: Option<Topology>,
    net: NetConfig,
    seed: u64,
    batch: BatchConfig,
    proc_per_msg: SimDuration,
    proc_per_command: SimDuration,
    /// The protocol's settings; its node state is sized at build.
    pub(crate) proto: P,
}

impl<P: Protocol> BftBuilder<P> {
    /// Node placement (defaults to one node per server).
    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    /// Pre-provisions `k` standby nodes (ids `nodes..nodes + k`) that start
    /// outside the active membership and can be admitted at runtime via
    /// [`BftCluster::join`]. Default 0.
    pub fn standby(mut self, k: u32) -> Self {
        self.standby = k;
        self
    }

    /// Network characteristics.
    pub fn net(mut self, c: NetConfig) -> Self {
        self.net = c;
        self
    }

    /// RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Batch-cut policy: `max_commands` bounds a block (Sawtooth's block
    /// size, Quorum's transactions per block, Diem's `max_block_size`).
    pub fn batch(mut self, b: BatchConfig) -> Self {
        self.batch = b;
        self
    }

    /// Fixed CPU cost of handling any protocol message.
    pub fn proc_per_msg(mut self, d: SimDuration) -> Self {
        self.proc_per_msg = d;
        self
    }

    /// Additional CPU cost per command in a proposal.
    pub fn proc_per_command(mut self, d: SimDuration) -> Self {
        self.proc_per_command = d;
        self
    }

    /// Builds the cluster and arms the protocol's initial timers.
    pub fn build(self) -> BftCluster<P> {
        let n = self.nodes;
        let total = n + self.standby;
        let topology = self
            .topology
            .unwrap_or_else(|| Topology::round_robin(total, total));
        assert_eq!(
            topology.node_count(),
            total,
            "topology must cover baseline + standby nodes"
        );
        let mut c = BftCluster {
            proto: self.proto,
            alive: vec![true; total as usize],
            membership: Membership::new(n, self.standby),
            net: NetSim::new(topology, self.net, self.seed),
            cpu: CpuModel::new(total),
            batch: self.batch,
            pending: Vec::new(),
            committed: Vec::new(),
            byz: vec![ByzantineFlags::default(); total as usize],
            monitor: SafetyMonitor::new(bft_quorum(n)),
            liveness: LivenessMonitor::default(),
            stale_epoch_rejections: 0,
            committed_txs: BTreeSet::new(),
            proc_per_msg: self.proc_per_msg,
            proc_per_command: self.proc_per_command,
        };
        P::start(&mut c);
        c
    }
}

/// A simulated BFT cluster running protocol `P`; see [`crate::pbft`],
/// [`crate::ibft`] and [`crate::diembft`].
#[derive(Debug)]
pub struct BftCluster<P: Protocol> {
    /// The protocol's settings and state.
    pub(crate) proto: P,
    /// Per-node crash flag: a crashed node processes nothing.
    pub(crate) alive: Vec<bool>,
    /// Epoch-versioned active membership over the provisioned universe.
    pub(crate) membership: Membership,
    pub(crate) net: NetSim<P::Msg>,
    pub(crate) cpu: CpuModel,
    pub(crate) batch: BatchConfig,
    /// Commands accepted but not yet proposed.
    pub(crate) pending: Vec<Command>,
    /// Batches finalized since the last [`BftCluster::run_until`] returned.
    pub(crate) committed: Vec<CommittedBatch>,
    /// Per-node Byzantine fault windows.
    pub(crate) byz: Vec<ByzantineFlags>,
    /// Message-level safety invariant checker.
    pub(crate) monitor: SafetyMonitor,
    /// Commit-cadence and view-change-storm liveness tracker.
    pub(crate) liveness: LivenessMonitor,
    /// Votes dropped because they carried a superseded membership epoch.
    stale_epoch_rejections: u64,
    /// Transactions already finalized, so a batch orphaned by a view or
    /// epoch change is never re-proposed after its commands committed.
    pub(crate) committed_txs: BTreeSet<u64>,
    pub(crate) proc_per_msg: SimDuration,
    pub(crate) proc_per_command: SimDuration,
}

impl<P: Protocol> BftCluster<P> {
    /// Starts building a cluster of `nodes` active nodes with the
    /// protocol's defaults.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn builder(nodes: u32) -> BftBuilder<P> {
        assert!(nodes > 0, "a cluster needs at least one node");
        BftBuilder {
            nodes,
            standby: 0,
            topology: None,
            net: NetConfig::lan(),
            seed: 0,
            batch: P::BATCH,
            proc_per_msg: P::PROC_PER_MSG,
            proc_per_command: P::PROC_PER_COMMAND,
            proto: P::default(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// Network counters.
    pub fn net_stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Applies a network-level fault (partition, heal, loss burst, latency
    /// spike) to the cluster's message fabric. Crash/restart events are not
    /// network faults and return `false`.
    pub fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        self.net.apply_fault(at, event)
    }

    /// Commands accepted but not yet proposed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Submits a command for ordering.
    pub fn submit(&mut self, cmd: Command) {
        self.pending.push(cmd);
    }

    /// Flags `node` to misbehave (`behaviour`) until virtual time `until`.
    pub fn set_byzantine(&mut self, node: NodeId, behaviour: ByzantineBehaviour, until: SimTime) {
        self.byz[node.0 as usize].arm(behaviour, until);
    }

    /// The safety monitor's verdict over everything observed so far.
    pub fn safety_report(&self) -> SafetyReport {
        self.monitor.report()
    }

    /// The liveness monitor's verdict as of the current virtual time.
    pub fn liveness_report(&self) -> LivenessReport {
        self.liveness.report(self.net.now())
    }

    /// Crashes a node: it processes no message until it recovers.
    pub fn crash(&mut self, node: NodeId) {
        self.alive[node.0 as usize] = false;
    }

    /// Recovers a crashed node in its old protocol state (DiemBFT moves it
    /// up to the highest known round).
    pub fn recover(&mut self, node: NodeId) {
        self.alive[node.0 as usize] = true;
        P::on_recover(self, node);
    }

    /// Current active-membership size (`n` of the quorum arithmetic).
    pub fn active_count(&self) -> u32 {
        self.membership.active_count()
    }

    /// Current membership-configuration epoch.
    pub fn config_epoch(&self) -> u64 {
        self.membership.epoch()
    }

    /// Votes dropped for carrying a superseded membership epoch.
    pub fn stale_epoch_rejections(&self) -> u64 {
        self.stale_epoch_rejections
    }

    /// Admits standby node `node`: catch-up (state transfer of the
    /// committed ledger, longer the more batches committed) starts now, and
    /// only once it completes does the epoch advance and the joiner vote or
    /// lead. Returns `false` when `node` is not a provisioned standby or is
    /// already joining/active.
    pub fn join(&mut self, node: NodeId) -> bool {
        if node.0 >= self.membership.provisioned()
            || self.membership.is_active(node)
            || self.monitor.is_syncing(node)
        {
            return false;
        }
        self.monitor.observe_sync_start(node);
        let sync = SYNC_BASE + SYNC_PER_BATCH * self.proto.synced_batches();
        self.net.timer(node, sync, P::sync_done(node));
        true
    }

    /// Removes `node` from the active membership: the epoch advances,
    /// quorum sizes shrink with `n`, and in-flight votes of the superseded
    /// epoch are rejected. Returns `false` when `node` is not active or is
    /// the last active node.
    pub fn leave(&mut self, node: NodeId) -> bool {
        if !self.membership.leave(node) {
            return false;
        }
        self.on_epoch_change();
        true
    }

    /// Runs the protocol until `deadline`, returning batches committed in
    /// this window.
    pub fn run_until(&mut self, deadline: SimTime) -> Vec<CommittedBatch> {
        P::before_run(self);
        while let Some(ev) = self.net.pop_at_or_before(deadline) {
            self.dispatch(ev.dst, ev.at, ev.msg);
        }
        self.net.advance_to(deadline);
        std::mem::take(&mut self.committed)
    }

    /// Byzantine quorum over the current active membership.
    pub(crate) fn quorum(&self) -> u32 {
        bft_quorum(self.membership.active_count())
    }

    /// `true` when `node` is alive and an active member.
    pub(crate) fn participates(&self, node: NodeId) -> bool {
        self.alive[node.0 as usize] && self.membership.is_active(node)
    }

    /// `true` while `node` runs the equivocating-proposer attack (it needs
    /// at least two peers to split).
    pub(crate) fn equivocates(&self, node: NodeId) -> bool {
        self.byz[node.0 as usize].equivocates(self.net.now()) && self.alive.len() >= 3
    }

    /// An equivocating proposer's fan-out of two conflicting versions of
    /// one proposal, `make(digest)` and `make(alt)`: honest peers alternate
    /// between them, so each version reaches half, while fellow Byzantine
    /// nodes receive both.
    pub(crate) fn send_equivocal(
        &mut self,
        me: NodeId,
        delay: SimDuration,
        bytes: usize,
        (digest, alt): (u64, u64),
        make: impl Fn(u64) -> P::Msg,
    ) {
        let now = self.net.now();
        let mut honest = 0usize;
        for i in 0..self.alive.len() {
            let dst = NodeId(i as u32);
            if dst == me {
                continue;
            }
            if self.byz[i].is_byzantine(now) {
                self.net.send_delayed(me, dst, delay, bytes, make(digest));
                self.net.send_delayed(me, dst, delay, bytes, make(alt));
            } else {
                let d = if honest.is_multiple_of(2) {
                    digest
                } else {
                    alt
                };
                honest += 1;
                self.net.send_delayed(me, dst, delay, bytes, make(d));
            }
        }
    }

    /// Returns the commands of orphaned batches (given in a deterministic
    /// order) to the queue: at its front when `front`, else behind it.
    /// Commands already committed, already queued, or seen earlier in
    /// `batches` are skipped.
    pub(crate) fn reclaim(&mut self, batches: impl IntoIterator<Item = Vec<Command>>, front: bool) {
        let orphaned: Vec<Command> = batches.into_iter().flatten().collect();
        if orphaned.is_empty() {
            return;
        }
        let mut seen: BTreeSet<u64> = self.pending.iter().map(|c| c.tx.as_u64()).collect();
        let committed = &self.committed_txs;
        let fresh = orphaned
            .into_iter()
            .filter(|c| !committed.contains(&c.tx.as_u64()) && seen.insert(c.tx.as_u64()));
        if front {
            let mut restored: Vec<Command> = fresh.collect();
            restored.append(&mut self.pending);
            self.pending = restored;
        } else {
            self.pending.extend(fresh);
        }
    }

    fn dispatch(&mut self, me: NodeId, at: SimTime, msg: P::Msg) {
        if !self.alive[me.0 as usize] {
            return;
        }
        let gate = P::gate(&msg);
        // Only the sync-completion timer reaches a node outside the active
        // membership: standbys and departed nodes neither vote nor lead.
        if !self.membership.is_active(me) {
            if let Gate::SyncDone(node) = gate {
                self.on_sync_done(node);
            }
            return;
        }
        match gate {
            Gate::SyncDone(_) => {} // already active: stale sync timer
            Gate::Vote(epoch) if epoch != self.membership.epoch() => {
                self.stale_epoch_rejections += 1;
            }
            _ => P::handle(self, me, at, msg),
        }
    }

    /// A joiner finished catch-up: it enters the membership, adopts the
    /// protocol's current position, and the epoch advances.
    fn on_sync_done(&mut self, node: NodeId) {
        if !self.monitor.is_syncing(node) || !self.membership.join(node) {
            return;
        }
        self.monitor.observe_sync_complete(node);
        P::adopt_joiner(self, node);
        self.on_epoch_change();
    }

    /// Applies a membership change: the safety monitor starts the new epoch
    /// with the quorum over the new active count, then the protocol
    /// restarts over the new membership.
    fn on_epoch_change(&mut self) {
        let quorum = self.quorum();
        self.monitor.begin_epoch(self.membership.epoch(), quorum);
        P::restart(self);
    }
}

#[cfg(test)]
mod tests {
    use coconut_types::{ClientId, TxId};

    use super::*;
    use crate::diembft::DiemBftCluster;
    use crate::ibft::IbftCluster;
    use crate::pbft::PbftCluster;

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    /// Runs `c` until `done` holds, in `step` slices, collecting batches.
    fn run_while<P: Protocol>(
        c: &mut BftCluster<P>,
        batches: &mut Vec<CommittedBatch>,
        step: SimDuration,
        done: impl Fn(&BftCluster<P>, &[CommittedBatch]) -> bool,
    ) {
        let give_up = c.now() + SimDuration::from_secs(60);
        while !done(c, batches) {
            assert!(c.now() < give_up, "condition never reached");
            let next = c.now() + step;
            batches.extend(c.run_until(next));
        }
    }

    /// The shell's contract on one engine of seven nodes:
    /// - under netem's N(12 ms, 2 ms) links the slowest votes of the first
    ///   committed batch are still in flight when it commits; a `leave`
    ///   then makes them stale-epoch votes, which are counted and dropped;
    /// - crashing node 0 forces a view (round) change, and after a second
    ///   `leave` every transaction still commits, each in exactly one
    ///   batch;
    /// - the safety report stays clean throughout.
    fn shell_contract<P: Protocol>(mut c: BftCluster<P>) {
        let engine = std::any::type_name::<P>();
        let mut batches = Vec::new();
        for s in 0..60 {
            c.submit(tx(s));
        }
        let fine = SimDuration::from_micros(100);
        run_while(&mut c, &mut batches, fine, |_, b| {
            b.iter().any(|b| !b.commands.is_empty())
        });
        assert!(c.leave(NodeId(6)));
        batches.extend(c.run_until(c.now() + SimDuration::from_secs(1)));
        assert!(c.stale_epoch_rejections() > 0, "{engine}: no stale vote");
        for s in 60..90 {
            c.submit(tx(s));
        }
        c.crash(NodeId(0));
        run_while(
            &mut c,
            &mut batches,
            SimDuration::from_millis(100),
            |c, _| c.liveness_report().view_changes > 0,
        );
        assert!(c.leave(NodeId(5)));
        for s in 90..120 {
            c.submit(tx(s));
        }
        batches.extend(c.run_until(c.now() + SimDuration::from_secs(30)));
        let mut seen = BTreeSet::new();
        for cmd in batches.iter().flat_map(|b| &b.commands) {
            assert!(
                seen.insert(cmd.tx.seq()),
                "{engine}: {} twice",
                cmd.tx.seq()
            );
        }
        assert_eq!(seen.len(), 120, "{engine}: every transaction commits");
        let r = c.safety_report();
        assert!(r.violations.is_clean(), "{engine}: {:?}", r.violations);
    }

    #[test]
    fn every_engine_keeps_the_shell_contract() {
        let net = NetConfig::emulated_latency();
        shell_contract(PbftCluster::builder(7).net(net.clone()).seed(51).build());
        shell_contract(IbftCluster::builder(7).net(net.clone()).seed(52).build());
        shell_contract(DiemBftCluster::builder(7).net(net.clone()).seed(53).build());
    }
}
