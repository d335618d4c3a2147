//! Istanbul BFT — the consensus of the modelled Quorum (the paper runs
//! ConsenSys Quorum with `istanbul.blockperiod` ∈ {1, 2, 5, 10} s, Table 6).
//!
//! IBFT is a three-phase BFT protocol with a rotating proposer: the proposer
//! of height *h*, round *r* is node `(h + r) mod n`. Like the real Quorum,
//! the modelled cluster produces a block every `blockperiod` *even when the
//! transaction pool is empty* — empty blocks are exactly what the paper
//! observes during Quorum's liveness anomaly (§5.5), so the engine must be
//! able to emit them.
//!
//! A round change (`RoundChange` messages, 2f + 1 quorum) replaces a
//! non-performing proposer.
//!
//! # Byzantine behaviour
//!
//! Nodes flagged via [`IbftCluster::set_byzantine`] misbehave while their
//! fault window is open, mirroring the PBFT engine: an equivocating
//! proposer sends conflicting blocks for one height to disjoint halves of
//! the honest validators, and a double-voting validator backs both with
//! prepare and commit votes. The embedded
//! [`SafetyMonitor`](crate::SafetyMonitor) counts observed misbehaviour and
//! any invariant actually broken.

use std::collections::{BTreeMap, HashMap};

use coconut_types::{Hasher64, NodeId, SimDuration, SimTime};

use crate::bft::{BftBuilder, BftCluster, Gate, Protocol, SIBLING_SALT};
use crate::safety::VotePhase;
use crate::{BatchConfig, Command, CommittedBatch};

use msg::IbftMsg;

mod msg {
    use coconut_types::NodeId;

    use crate::Command;

    /// IBFT protocol messages and timers.
    #[derive(Debug, Clone)]
    pub enum IbftMsg {
        /// Proposer cadence timer for a height/round.
        ProposeTimer { height: u64, round: u64 },
        /// Round-progress timer at a validator.
        RoundTimeout { height: u64, round: u64 },
        PrePrepare {
            height: u64,
            round: u64,
            digest: u64,
            batch: Vec<Command>,
        },
        Prepare {
            epoch: u64,
            height: u64,
            round: u64,
            digest: u64,
            from: NodeId,
        },
        Commit {
            epoch: u64,
            height: u64,
            round: u64,
            digest: u64,
            from: NodeId,
        },
        RoundChange {
            height: u64,
            round: u64,
            from: NodeId,
        },
        /// A joiner's catch-up/state transfer finished: activate it.
        SyncDone { node: NodeId },
    }
}

/// Per-(height, round) progress at one validator; vote tallies are kept per
/// digest so an equivocated sibling block can never inflate the count of
/// the block this node actually holds.
#[derive(Debug, Default, Clone)]
struct SlotState {
    digest: Option<u64>,
    batch: Option<Vec<Command>>,
    prepares: HashMap<u64, u32>,
    commits: HashMap<u64, u32>,
    prepared: bool,
    committed: bool,
}

#[derive(Debug, Default, Clone)]
struct IbftNode {
    height: u64,
    round: u64,
    slots: HashMap<(u64, u64), SlotState>,
    round_change_votes: HashMap<(u64, u64), u32>,
    voted_round: HashMap<u64, u64>,
}

/// IBFT's settings and state: per-validator heights, rounds and slots, the
/// chain's next height, Quorum's block period and round timeout, and
/// whether empty blocks reach the caller.
#[derive(Debug, Clone)]
pub struct Ibft {
    nodes: Vec<IbftNode>,
    next_height: u64,
    block_period: SimDuration,
    round_timeout: SimDuration,
    commit_quorum: HashMap<(u64, u64), Vec<(NodeId, SimTime)>>,
    emit_empty_blocks: bool,
    /// (height, round) → the conflicting sibling digest an equivocating
    /// proposer broadcast alongside its real proposal.
    equiv_sibling: HashMap<(u64, u64), u64>,
}

impl Default for Ibft {
    fn default() -> Self {
        Ibft {
            nodes: Vec::new(),
            next_height: 0,
            block_period: SimDuration::from_secs(1),
            round_timeout: SimDuration::from_secs(4),
            commit_quorum: HashMap::new(),
            emit_empty_blocks: true,
            equiv_sibling: HashMap::new(),
        }
    }
}

/// Configuration for an [`IbftCluster`]; build with [`IbftCluster::builder`].
pub type IbftBuilder = BftBuilder<Ibft>;

/// A simulated Istanbul BFT validator set.
///
/// # Example
///
/// ```
/// use coconut_consensus::{ibft::IbftCluster, Command};
/// use coconut_types::{ClientId, SimDuration, SimTime, TxId};
///
/// let mut ibft = IbftCluster::builder(4)
///     .seed(5)
///     .block_period(SimDuration::from_secs(1))
///     .build();
/// ibft.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let blocks = ibft.run_until(SimTime::from_secs(3));
/// assert!(blocks.iter().any(|b| !b.commands.is_empty()));
/// ```
pub type IbftCluster = BftCluster<Ibft>;

impl IbftBuilder {
    /// Quorum's `istanbul.blockperiod`: minimum time between consecutive
    /// blocks.
    pub fn block_period(mut self, d: SimDuration) -> Self {
        self.proto.block_period = d;
        self
    }

    /// Round-change timeout.
    pub fn round_timeout(mut self, d: SimDuration) -> Self {
        self.proto.round_timeout = d;
        self
    }
}

impl Protocol for Ibft {
    type Msg = IbftMsg;
    const BATCH: BatchConfig = BatchConfig {
        max_commands: 1000,
        max_wait: SimDuration::from_secs(1),
    };
    const PROC_PER_MSG: SimDuration = SimDuration::from_micros(30);
    const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(4);

    /// The first proposal fires after one block period.
    fn start(c: &mut IbftCluster) {
        c.proto.nodes = vec![IbftNode::default(); c.alive.len()];
        c.net.timer(
            NodeId(0),
            c.proto.block_period,
            IbftMsg::ProposeTimer {
                height: 0,
                round: 0,
            },
        );
        // Every validator watches height 0 so a dead first proposer is
        // detected (Quorum keeps minting blocks via round changes).
        for i in 0..c.membership.active_count() {
            c.net.timer(
                NodeId(i),
                c.proto.round_timeout,
                IbftMsg::RoundTimeout {
                    height: 0,
                    round: 0,
                },
            );
        }
    }

    fn gate(msg: &IbftMsg) -> Gate {
        match *msg {
            IbftMsg::Prepare { epoch, .. } | IbftMsg::Commit { epoch, .. } => Gate::Vote(epoch),
            IbftMsg::SyncDone { node } => Gate::SyncDone(node),
            _ => Gate::Protocol,
        }
    }

    fn sync_done(node: NodeId) -> IbftMsg {
        IbftMsg::SyncDone { node }
    }

    fn handle(c: &mut IbftCluster, me: NodeId, at: SimTime, msg: IbftMsg) {
        match msg {
            IbftMsg::ProposeTimer { height, round } => c.on_propose_timer(me, height, round),
            IbftMsg::RoundTimeout { height, round } => c.on_round_timeout(me, height, round),
            IbftMsg::PrePrepare {
                height,
                round,
                digest,
                batch,
            } => c.on_pre_prepare(me, at, height, round, digest, batch),
            IbftMsg::Prepare {
                height,
                round,
                digest,
                from,
                ..
            } => c.on_prepare(me, at, height, round, digest, from),
            IbftMsg::Commit {
                height,
                round,
                digest,
                from,
                ..
            } => c.on_commit(me, at, height, round, digest, from),
            IbftMsg::RoundChange {
                height,
                round,
                from,
            } => c.on_round_change(me, at, height, round, from),
            IbftMsg::SyncDone { .. } => {}
        }
    }

    fn synced_batches(&self) -> u64 {
        self.next_height
    }

    /// The joiner starts at the next open height.
    fn adopt_joiner(c: &mut IbftCluster, node: NodeId) {
        let joiner = &mut c.proto.nodes[node.0 as usize];
        joiner.height = c.proto.next_height;
        joiner.round = 0;
    }

    /// Abandons in-flight slots (their epoch is superseded — a quorum of
    /// the old membership must not certify a commit), reclaims their
    /// commands, and restarts the proposal cadence over the new membership.
    fn restart(c: &mut IbftCluster) {
        // Reclaim commands stuck in uncommitted slots, in (height, round)
        // order (several validators hold the same in-flight block).
        let mut by_slot: BTreeMap<(u64, u64), Vec<Command>> = BTreeMap::new();
        for node in &mut c.proto.nodes {
            for (&(height, round), slot) in node.slots.iter() {
                if slot.committed {
                    continue;
                }
                if let Some(batch) = &slot.batch {
                    by_slot
                        .entry((height, round))
                        .or_insert_with(|| batch.clone());
                }
            }
            node.slots.retain(|_, s| s.committed);
            node.round_change_votes.clear();
            node.voted_round.clear();
        }
        c.reclaim(by_slot.into_values(), true);
        let height = c.proto.next_height;
        c.proto.commit_quorum.retain(|&(h, _), _| h < height);
        // Restart the pipeline under the new epoch: every active validator
        // realigns on (next_height, round 0) and the proposer re-proposes.
        for i in 0..c.proto.nodes.len() {
            let id = NodeId(i as u32);
            if c.participates(id) {
                let node = &mut c.proto.nodes[i];
                node.height = height;
                node.round = 0;
                c.net.timer(
                    id,
                    c.proto.round_timeout,
                    IbftMsg::RoundTimeout { height, round: 0 },
                );
            }
        }
        c.net.timer(
            c.proposer_of(height, 0),
            c.proto.block_period,
            IbftMsg::ProposeTimer { height, round: 0 },
        );
    }
}

impl IbftCluster {
    /// Whether empty blocks are emitted to the caller (Quorum's behaviour).
    /// Disable to only surface non-empty blocks.
    pub fn set_emit_empty_blocks(&mut self, emit: bool) {
        self.proto.emit_empty_blocks = emit;
    }

    /// Removes every queued command (models a txpool flush).
    pub fn drop_pending(&mut self) -> usize {
        let n = self.pending.len();
        self.pending.clear();
        n
    }

    fn proposer_of(&self, height: u64, round: u64) -> NodeId {
        // Rotation over the active membership; identical to
        // `(height + round) mod n` until the first join/leave.
        self.membership.select(height + round)
    }

    fn on_propose_timer(&mut self, me: NodeId, height: u64, round: u64) {
        {
            let node = &self.proto.nodes[me.0 as usize];
            if height != self.proto.next_height
                || node.round != round
                || self.proposer_of(height, round) != me
            {
                return;
            }
            if node
                .slots
                .get(&(height, round))
                .is_some_and(|s| s.digest.is_some())
            {
                return; // already proposed this slot
            }
        }
        // Unlike PBFT/Sawtooth, IBFT proposes on cadence even with an empty
        // pool — Quorum mints empty blocks.
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let digest = digest_of(&batch, height, round, 0);
        let bytes = 64 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let now = self.net.now();
        let done = self.cpu.process(me, now, cost);
        {
            let slot = self.proto.nodes[me.0 as usize]
                .slots
                .entry((height, round))
                .or_default();
            slot.digest = Some(digest);
            slot.batch = Some(batch.clone());
            slot.prepares.insert(digest, 1);
        }
        self.monitor.observe_proposal(round, height, me, digest);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, round, height, digest, me);
        if self.equivocates(me) {
            // Equivocating proposer: a sibling block with the same commands
            // but a conflicting digest goes to half the honest validators;
            // Byzantine accomplices receive both versions.
            let alt = digest_of(&batch, height, round, SIBLING_SALT);
            self.proto.equiv_sibling.insert((height, round), alt);
            self.monitor.observe_proposal(round, height, me, alt);
            self.send_equivocal(me, done - now, bytes, (digest, alt), |digest| {
                IbftMsg::PrePrepare {
                    height,
                    round,
                    digest,
                    batch: batch.clone(),
                }
            });
        } else {
            self.net
                .broadcast_delayed(me, done - now, bytes, |_| IbftMsg::PrePrepare {
                    height,
                    round,
                    digest,
                    batch: batch.clone(),
                });
        }
        self.net.timer(
            me,
            self.proto.round_timeout,
            IbftMsg::RoundTimeout { height, round },
        );
    }

    fn on_pre_prepare(
        &mut self,
        me: NodeId,
        at: SimTime,
        height: u64,
        round: u64,
        digest: u64,
        batch: Vec<Command>,
    ) {
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let done = self.cpu.process(me, at, cost);
        let extra = done - at;
        let epoch = self.membership.epoch();
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if height != node.height || round != node.round {
                return;
            }
            let slot = node.slots.entry((height, round)).or_default();
            if slot.batch.is_some() {
                if slot.digest != Some(digest) && self.byz[me.0 as usize].double_votes(at) {
                    // A conflicting proposal for a slot we already accepted:
                    // honest validators drop it; a double-voting validator
                    // votes for it anyway without adopting it.
                    self.net
                        .broadcast_delayed(me, extra, 64, |_| IbftMsg::Prepare {
                            epoch,
                            height,
                            round,
                            digest,
                            from: me,
                        });
                    self.net
                        .broadcast_delayed(me, extra, 64, |_| IbftMsg::Commit {
                            epoch,
                            height,
                            round,
                            digest,
                            from: me,
                        });
                }
                return;
            }
            slot.digest = Some(digest);
            slot.batch = Some(batch);
            *slot.prepares.entry(digest).or_insert(0) += 2; // proposer implicit + own
        }
        let proposer = self.proposer_of(height, round);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, round, height, digest, proposer);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, round, height, digest, me);
        self.net
            .broadcast_delayed(me, extra, 64, |_| IbftMsg::Prepare {
                epoch,
                height,
                round,
                digest,
                from: me,
            });
        self.net.timer(
            me,
            self.proto.round_timeout,
            IbftMsg::RoundTimeout { height, round },
        );
        self.check_prepared(me, height, round, digest);
    }

    fn on_prepare(
        &mut self,
        me: NodeId,
        at: SimTime,
        height: u64,
        round: u64,
        digest: u64,
        from: NodeId,
    ) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if height != node.height || round != node.round {
                return;
            }
            let slot = node.slots.entry((height, round)).or_default();
            if slot.digest.is_some() && slot.digest != Some(digest) {
                return;
            }
            *slot.prepares.entry(digest).or_insert(0) += 1;
        }
        self.monitor
            .observe_vote(me, VotePhase::Prepare, round, height, digest, from);
        self.check_prepared(me, height, round, digest);
    }

    fn check_prepared(&mut self, me: NodeId, height: u64, round: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        let should_commit;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            let slot = node.slots.entry((height, round)).or_default();
            should_commit = !slot.prepared
                && slot.digest == Some(digest)
                && slot.prepares.get(&digest).copied().unwrap_or(0) >= quorum;
            if should_commit {
                slot.prepared = true;
                *slot.commits.entry(digest).or_insert(0) += 1;
            }
        }
        if should_commit {
            self.monitor
                .observe_quorum(me, VotePhase::Prepare, round, height, digest);
            self.monitor
                .observe_vote(me, VotePhase::Commit, round, height, digest, me);
            let epoch = self.membership.epoch();
            let done = self.cpu.process(me, now, self.proc_per_msg);
            self.net
                .broadcast_delayed(me, done - now, 64, |_| IbftMsg::Commit {
                    epoch,
                    height,
                    round,
                    digest,
                    from: me,
                });
            // An equivocating proposer finishes its attack: the sibling
            // fork needs its commit vote too.
            if self.proposer_of(height, round) == me {
                if let Some(&alt) = self.proto.equiv_sibling.get(&(height, round)) {
                    if alt != digest {
                        self.net
                            .broadcast_delayed(me, done - now, 64, |_| IbftMsg::Commit {
                                epoch,
                                height,
                                round,
                                digest: alt,
                                from: me,
                            });
                    }
                }
            }
            self.check_committed(me, height, round, digest);
        }
    }

    fn on_commit(
        &mut self,
        me: NodeId,
        at: SimTime,
        height: u64,
        round: u64,
        digest: u64,
        from: NodeId,
    ) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if height != node.height || round != node.round {
                return;
            }
            let slot = node.slots.entry((height, round)).or_default();
            if slot.digest.is_some() && slot.digest != Some(digest) {
                return;
            }
            *slot.commits.entry(digest).or_insert(0) += 1;
        }
        self.monitor
            .observe_vote(me, VotePhase::Commit, round, height, digest, from);
        self.check_committed(me, height, round, digest);
    }

    fn check_committed(&mut self, me: NodeId, height: u64, round: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        let locally_committed;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            let slot = node.slots.entry((height, round)).or_default();
            locally_committed = !slot.committed
                && slot.prepared
                && slot.digest == Some(digest)
                && slot.commits.get(&digest).copied().unwrap_or(0) >= quorum;
            if locally_committed {
                slot.committed = true;
                node.height = node.height.max(height + 1);
                node.round = 0;
            }
        }
        if !locally_committed {
            return;
        }
        self.liveness.observe_progress(me, now);
        self.monitor
            .observe_quorum(me, VotePhase::Commit, round, height, digest);
        // Vote tallies are reset on every membership change, so the quorum
        // behind this commit formed entirely in the current epoch.
        self.monitor
            .observe_epoch_commit(self.membership.epoch(), height, digest);
        // Watch the next height: its proposer might be dead.
        self.net.timer(
            me,
            self.proto.block_period + self.proto.round_timeout,
            IbftMsg::RoundTimeout {
                height: height + 1,
                round: 0,
            },
        );
        let entry = self.proto.commit_quorum.entry((height, round)).or_default();
        if !entry.iter().any(|(n, _)| *n == me) {
            entry.push((me, now));
        }
        if entry.len() as u32 >= quorum && height == self.proto.next_height {
            let committed_at = entry.iter().map(|&(_, t)| t).max().unwrap_or(now);
            let batch = self
                .proto
                .nodes
                .iter()
                .find_map(|n| n.slots.get(&(height, round)).and_then(|s| s.batch.clone()))
                .unwrap_or_default();
            self.proto.next_height = height + 1;
            self.liveness.observe_commit(committed_at);
            for c in &batch {
                self.committed_txs.insert(c.tx.as_u64());
            }
            if !batch.is_empty() || self.proto.emit_empty_blocks {
                self.committed.push(CommittedBatch {
                    commands: batch,
                    proposer: self.proposer_of(height, round),
                    round: height,
                    committed_at,
                });
            }
            let next_proposer = self.proposer_of(height + 1, 0);
            self.net.timer(
                next_proposer,
                self.proto.block_period,
                IbftMsg::ProposeTimer {
                    height: height + 1,
                    round: 0,
                },
            );
        }
    }

    fn on_round_timeout(&mut self, me: NodeId, height: u64, round: u64) {
        let should_complain;
        {
            let node = &self.proto.nodes[me.0 as usize];
            should_complain = node.height == height
                && node.round == round
                && node
                    .slots
                    .get(&(height, round))
                    .is_none_or(|s| !s.committed);
        }
        if !should_complain {
            return;
        }
        let new_round = round + 1;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            let voted = node.voted_round.entry(height).or_insert(0);
            if *voted >= new_round {
                return;
            }
            *voted = new_round;
        }
        let now = self.net.now();
        let done = self.cpu.process(me, now, self.proc_per_msg);
        self.net
            .broadcast_delayed(me, done - now, 48, |_| IbftMsg::RoundChange {
                height,
                round: new_round,
                from: me,
            });
        self.on_round_change(me, now, height, new_round, me);
    }

    fn on_round_change(
        &mut self,
        me: NodeId,
        _at: SimTime,
        height: u64,
        round: u64,
        _from: NodeId,
    ) {
        let quorum = self.quorum();
        let reached;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if node.height != height || round <= node.round {
                return;
            }
            let votes = node.round_change_votes.entry((height, round)).or_insert(0);
            *votes += 1;
            reached = *votes >= quorum;
        }
        if reached {
            let node = &mut self.proto.nodes[me.0 as usize];
            node.round = round;
            // Blocks stuck in the abandoned rounds of this height are
            // reclaimed so their commands are re-proposed, not stranded.
            // Reclaim in round order (slot iteration order is not
            // deterministic).
            let mut by_round: BTreeMap<u64, Vec<Command>> = BTreeMap::new();
            for (&(h, r), slot) in node.slots.iter_mut() {
                if h == height && r < round && !slot.committed {
                    if let Some(batch) = slot.batch.take() {
                        by_round.insert(r, batch);
                    }
                }
            }
            self.reclaim(by_round.into_values(), false);
            if self.proposer_of(height, round) == me {
                // Exactly one node is the new proposer, so this is counted
                // once per successful round change across the cluster.
                self.liveness.observe_view_change(self.net.now());
                self.net.timer(
                    me,
                    SimDuration::from_millis(10),
                    IbftMsg::ProposeTimer { height, round },
                );
            }
            self.net.timer(
                me,
                self.proto.round_timeout,
                IbftMsg::RoundTimeout { height, round },
            );
        }
    }
}

/// Deterministic digest of a block proposal; `salt` is 0, or
/// [`SIBLING_SALT`] for an equivocating proposer's conflicting sibling.
fn digest_of(batch: &[Command], height: u64, round: u64, salt: u64) -> u64 {
    let key = height.wrapping_mul(31).wrapping_add(round);
    let mut h = Hasher64::with_key(key.wrapping_add(salt));
    for c in batch {
        h.write_u64(c.tx.as_u64());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconut_simnet::ByzantineBehaviour;
    use coconut_types::{ClientId, TxId};

    fn tx(seq: u64) -> Command {
        Command::unit(TxId::new(ClientId(0), seq))
    }

    #[test]
    fn commits_transactions_in_blocks() {
        let mut c = IbftCluster::builder(4).seed(1).build();
        for s in 0..5 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(4));
        let total: usize = blocks.iter().map(|b| b.commands.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn produces_empty_blocks_on_cadence() {
        let mut c = IbftCluster::builder(4)
            .seed(2)
            .block_period(SimDuration::from_secs(1))
            .build();
        let blocks = c.run_until(SimTime::from_secs(10));
        assert!(
            blocks.len() >= 8,
            "expected ~1 block/s even with no transactions, got {}",
            blocks.len()
        );
        assert!(blocks.iter().all(|b| b.commands.is_empty()));
    }

    #[test]
    fn empty_block_emission_can_be_disabled() {
        let mut c = IbftCluster::builder(4).seed(3).build();
        c.set_emit_empty_blocks(false);
        let blocks = c.run_until(SimTime::from_secs(5));
        assert!(blocks.is_empty());
    }

    #[test]
    fn block_period_paces_production() {
        for period_s in [1u64, 2] {
            let mut c = IbftCluster::builder(4)
                .seed(4)
                .block_period(SimDuration::from_secs(period_s))
                .build();
            let blocks = c.run_until(SimTime::from_secs(20));
            for w in blocks.windows(2) {
                let gap = w[1].committed_at - w[0].committed_at;
                assert!(
                    gap >= SimDuration::from_secs(period_s),
                    "gap {gap} < block period {period_s}s"
                );
            }
        }
    }

    #[test]
    fn proposers_rotate() {
        let mut c = IbftCluster::builder(4).seed(5).build();
        let blocks = c.run_until(SimTime::from_secs(8));
        let proposers: Vec<NodeId> = blocks.iter().map(|b| b.proposer).collect();
        // Height h proposer = h mod 4, so the sequence cycles.
        for (i, p) in proposers.iter().enumerate() {
            assert_eq!(p.0, (i % 4) as u32);
        }
    }

    #[test]
    fn proposer_crash_triggers_round_change() {
        let mut c = IbftCluster::builder(4).seed(6).build();
        // Proposer of height 0 is node 0; crash it before anything happens.
        c.crash(NodeId(0));
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(30));
        let non_empty: Vec<_> = blocks.iter().filter(|b| !b.commands.is_empty()).collect();
        assert_eq!(
            non_empty.len(),
            1,
            "round change must rescue the stalled height"
        );
        assert_ne!(non_empty[0].proposer, NodeId(0));
    }

    #[test]
    fn no_progress_without_quorum() {
        let mut c = IbftCluster::builder(4).seed(7).build();
        c.crash(NodeId(2));
        c.crash(NodeId(3));
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(20));
        assert!(blocks.is_empty());
    }

    #[test]
    fn submission_order_is_preserved() {
        let mut c = IbftCluster::builder(4)
            .seed(8)
            .batch(BatchConfig::new(3, SimDuration::from_secs(1)))
            .block_period(SimDuration::from_millis(500))
            .build();
        for s in 0..12 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        let seqs: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        assert_eq!(seqs.len(), 12);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = IbftCluster::builder(4).seed(seed).build();
            for s in 0..6 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(10))
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(12), run(12));
    }

    #[test]
    fn one_equivocating_proposer_is_safe() {
        let mut c = IbftCluster::builder(4).seed(21).build();
        c.set_byzantine(
            NodeId(0),
            ByzantineBehaviour::EquivocateProposer,
            SimTime::from_secs(60),
        );
        c.set_byzantine(
            NodeId(0),
            ByzantineBehaviour::DoubleVote,
            SimTime::from_secs(60),
        );
        for s in 0..6 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(30));
        assert!(
            blocks.len() >= 8,
            "f = 1 equivocator must not halt block production, got {}",
            blocks.len()
        );
        let r = c.safety_report();
        assert!(r.observed.equivocating_proposals > 0, "attack must run");
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "≤ f Byzantine: {:?}", r.violations);
    }

    #[test]
    fn two_byzantine_validators_break_safety_and_are_counted() {
        let mut c = IbftCluster::builder(4).seed(22).build();
        for node in [NodeId(0), NodeId(1)] {
            c.set_byzantine(
                node,
                ByzantineBehaviour::EquivocateProposer,
                SimTime::from_secs(60),
            );
            c.set_byzantine(node, ByzantineBehaviour::DoubleVote, SimTime::from_secs(60));
        }
        for s in 0..6 {
            c.submit(tx(s));
        }
        let _ = c.run_until(SimTime::from_secs(30));
        let r = c.safety_report();
        assert!(
            r.violations.conflicting_commits > 0,
            "f+1 Byzantine must commit a conflicting block: {r:?}"
        );
    }

    #[test]
    fn byzantine_run_is_deterministic() {
        let run = || {
            let mut c = IbftCluster::builder(4).seed(23).build();
            for node in [NodeId(0), NodeId(1)] {
                c.set_byzantine(
                    node,
                    ByzantineBehaviour::EquivocateProposer,
                    SimTime::from_secs(60),
                );
                c.set_byzantine(node, ByzantineBehaviour::DoubleVote, SimTime::from_secs(60));
            }
            for s in 0..8 {
                c.submit(tx(s));
            }
            let blocks = c.run_until(SimTime::from_secs(30));
            (format!("{:?}", c.safety_report()), blocks.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn join_grows_membership_after_sync_without_violations() {
        let mut c = IbftCluster::builder(4).standby(1).seed(31).build();
        assert_eq!((c.active_count(), c.config_epoch()), (4, 0));
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(3));
        assert!(first.iter().any(|b| !b.commands.is_empty()));
        assert!(c.join(NodeId(4)), "standby is admitted");
        assert!(!c.join(NodeId(4)), "double join rejected");
        assert_eq!(c.active_count(), 4, "not active until synced");
        for s in 2..8 {
            c.submit(tx(s));
        }
        let more = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(
            more.iter().any(|b| !b.commands.is_empty()),
            "commits continue through the join"
        );
        assert_eq!((c.active_count(), c.config_epoch()), (5, 1));
        let r = c.safety_report();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn leave_shrinks_membership_and_keeps_minting() {
        let mut c = IbftCluster::builder(4).seed(32).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(3));
        assert!(first.iter().any(|b| !b.commands.is_empty()));
        assert!(c.leave(NodeId(0)));
        assert_eq!((c.active_count(), c.config_epoch()), (3, 1));
        for s in 2..6 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(
            blocks.iter().any(|b| !b.commands.is_empty()),
            "the shrunken validator set keeps committing"
        );
        assert!(blocks.iter().all(|b| b.proposer != NodeId(0)));
        let r = c.safety_report();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
        assert!(!c.leave(NodeId(0)), "already departed");
    }

    #[test]
    fn joiner_never_votes_before_sync_completes() {
        let mut c = IbftCluster::builder(4).standby(1).seed(33).build();
        for s in 0..4 {
            c.submit(tx(s));
        }
        let _ = c.run_until(SimTime::from_secs(6));
        assert!(c.join(NodeId(4)));
        for s in 4..10 {
            c.submit(tx(s));
        }
        let _ = c.run_until(c.now() + SimDuration::from_secs(30));
        let r = c.safety_report();
        assert_eq!(r.violations.presync_votes, 0, "no vote before catch-up");
        assert_eq!(r.violations.stale_epoch_commits, 0);
        assert_eq!(c.active_count(), 5);
    }

    #[test]
    fn churn_run_is_deterministic() {
        let run = || {
            let mut c = IbftCluster::builder(4).standby(1).seed(34).build();
            for s in 0..12 {
                c.submit(tx(s));
            }
            let mut got = c.run_until(SimTime::from_secs(4)).len();
            c.join(NodeId(4));
            got += c.run_until(SimTime::from_secs(8)).len();
            c.leave(NodeId(1));
            got += c.run_until(SimTime::from_secs(40)).len();
            (got, c.config_epoch(), format!("{:?}", c.safety_report()))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drop_pending_flushes_pool() {
        let mut c = IbftCluster::builder(4).seed(9).build();
        for s in 0..10 {
            c.submit(tx(s));
        }
        assert_eq!(c.pending_len(), 10);
        assert_eq!(c.drop_pending(), 10);
        assert_eq!(c.pending_len(), 0);
    }
}
