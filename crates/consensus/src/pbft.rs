//! Practical Byzantine Fault Tolerance — the consensus of the modelled
//! Hyperledger Sawtooth (the paper runs Sawtooth 1.2.6 with `sawtooth-pbft`,
//! Table 2).
//!
//! Message-level three-phase PBFT: the primary broadcasts a `PrePrepare`
//! carrying the block (batch), replicas exchange `Prepare` and `Commit`
//! messages, and a batch finalizes when 2f + 1 nodes have committed. A view
//! change (new primary) is triggered when replicas see no progress on an
//! outstanding proposal within the commit timeout.
//!
//! Sawtooth's `sawtooth.consensus.pbft.block_publishing_delay` maps to
//! [`PbftBuilder::publishing_delay`]: the primary waits this long after the
//! previous block before publishing the next one.
//!
//! # Byzantine behaviour
//!
//! Nodes flagged via [`PbftCluster::set_byzantine`] misbehave while their
//! fault window is open: an equivocating primary proposes two conflicting
//! blocks (same commands, different digests) to disjoint halves of the
//! honest peers, and a double-voting replica answers a conflicting
//! pre-prepare with prepare *and* commit votes for both digests. A
//! [`SafetyMonitor`](crate::SafetyMonitor) observes every proposal, vote, and commit and counts
//! invariant breaks — with ≤ f flagged nodes the minority fork starves
//! below quorum and the report stays clean; beyond f the forged votes
//! carry a conflicting block to commit and the monitor records it.

use std::collections::{BTreeMap, HashMap};

use coconut_types::{Hasher64, NodeId, SimDuration, SimTime};

use crate::bft::{BftBuilder, BftCluster, Gate, Protocol, SIBLING_SALT};
use crate::safety::VotePhase;
use crate::{BatchConfig, Command, CommittedBatch};

use msg::PbftMsg;

mod msg {
    use coconut_types::NodeId;

    use crate::Command;

    /// PBFT protocol messages and local timers.
    #[derive(Debug, Clone)]
    pub enum PbftMsg {
        /// Primary cadence timer: publish the next block.
        PublishTimer {
            view: u64,
            seq: u64,
        },
        /// Replica progress timer for an outstanding proposal.
        CommitTimeout {
            view: u64,
            seq: u64,
        },
        PrePrepare {
            view: u64,
            seq: u64,
            digest: u64,
            batch: Vec<Command>,
        },
        Prepare {
            epoch: u64,
            view: u64,
            seq: u64,
            digest: u64,
            from: NodeId,
        },
        Commit {
            epoch: u64,
            view: u64,
            seq: u64,
            digest: u64,
            from: NodeId,
        },
        ViewChange {
            new_view: u64,
            from: NodeId,
        },
        NewView {
            view: u64,
        },
        /// A joiner's catch-up/state transfer finished: activate it.
        SyncDone {
            node: NodeId,
        },
    }
}

/// Per-sequence consensus progress at one node. Vote tallies are kept per
/// digest so that votes for an equivocated sibling block can never inflate
/// the count of the block this node actually holds.
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
struct PbftNode {
    view: u64,
    /// Next sequence this node expects to commit.
    low_water: u64,
    slots: HashMap<(u64, u64), SlotState>,
    view_change_votes: HashMap<u64, u32>,
    voted_view: u64,
}

/// PBFT's settings and state: per-replica views and slots, the cluster's
/// commit frontier, and Sawtooth's publishing delay and commit timeout.
#[derive(Debug, Clone)]
pub struct Pbft {
    nodes: Vec<PbftNode>,
    next_commit_seq: u64,
    publishing_delay: SimDuration,
    commit_timeout: SimDuration,
    /// (view, seq) → nodes that reached local commit, for quorum detection.
    commit_quorum_times: HashMap<(u64, u64), Vec<(NodeId, SimTime)>>,
    /// (view, seq) → the conflicting sibling digest an equivocating primary
    /// broadcast alongside its real proposal.
    equiv_sibling: HashMap<(u64, u64), u64>,
}

impl Default for Pbft {
    fn default() -> Self {
        Pbft {
            nodes: Vec::new(),
            next_commit_seq: 0,
            publishing_delay: SimDuration::from_secs(1),
            commit_timeout: SimDuration::from_secs(4),
            commit_quorum_times: HashMap::new(),
            equiv_sibling: HashMap::new(),
        }
    }
}

/// Configuration for a [`PbftCluster`]; build with [`PbftCluster::builder`].
pub type PbftBuilder = BftBuilder<Pbft>;

/// A simulated PBFT cluster.
///
/// # Example
///
/// ```
/// use coconut_consensus::{pbft::PbftCluster, Command};
/// use coconut_types::{ClientId, SimTime, TxId};
///
/// let mut pbft = PbftCluster::builder(4).seed(3).build();
/// pbft.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let batches = pbft.run_until(SimTime::from_secs(5));
/// assert_eq!(batches.len(), 1);
/// ```
pub type PbftCluster = BftCluster<Pbft>;

impl PbftBuilder {
    /// Sawtooth's `block_publishing_delay`: the pause between a commit and
    /// the next proposal.
    pub fn publishing_delay(mut self, d: SimDuration) -> Self {
        self.proto.publishing_delay = d;
        self
    }

    /// How long replicas wait for an outstanding proposal to commit before
    /// voting for a view change.
    pub fn commit_timeout(mut self, d: SimDuration) -> Self {
        self.proto.commit_timeout = d;
        self
    }
}

impl Protocol for Pbft {
    type Msg = PbftMsg;
    const BATCH: BatchConfig = BatchConfig {
        max_commands: 200,
        max_wait: SimDuration::from_secs(1),
    };
    const PROC_PER_MSG: SimDuration = SimDuration::from_micros(30);
    const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(5);

    /// The initial primary (view 0 → node 0) arms its publish timer
    /// immediately.
    fn start(c: &mut PbftCluster) {
        c.proto.nodes = vec![PbftNode::default(); c.alive.len()];
        c.net.timer(
            NodeId(0),
            c.proto.publishing_delay,
            PbftMsg::PublishTimer { view: 0, seq: 0 },
        );
        // Every active replica watches the first sequence so a dead initial
        // primary is detected even though it never sends a pre-prepare.
        for i in 0..c.membership.active_count() {
            c.net.timer(
                NodeId(i),
                c.proto.commit_timeout,
                PbftMsg::CommitTimeout { view: 0, seq: 0 },
            );
        }
    }

    fn gate(msg: &PbftMsg) -> Gate {
        match *msg {
            PbftMsg::Prepare { epoch, .. } | PbftMsg::Commit { epoch, .. } => Gate::Vote(epoch),
            PbftMsg::SyncDone { node } => Gate::SyncDone(node),
            _ => Gate::Protocol,
        }
    }

    fn sync_done(node: NodeId) -> PbftMsg {
        PbftMsg::SyncDone { node }
    }

    fn handle(c: &mut PbftCluster, me: NodeId, at: SimTime, msg: PbftMsg) {
        match msg {
            PbftMsg::PublishTimer { view, seq } => c.on_publish_timer(me, view, seq),
            PbftMsg::CommitTimeout { view, seq } => c.on_commit_timeout(me, view, seq),
            PbftMsg::PrePrepare {
                view,
                seq,
                digest,
                batch,
            } => c.on_pre_prepare(me, at, view, seq, digest, batch),
            PbftMsg::Prepare {
                view,
                seq,
                digest,
                from,
                ..
            } => c.on_prepare(me, at, view, seq, digest, from),
            PbftMsg::Commit {
                view,
                seq,
                digest,
                from,
                ..
            } => c.on_commit(me, at, view, seq, digest, from),
            PbftMsg::ViewChange { new_view, from } => c.on_view_change(me, at, new_view, from),
            PbftMsg::NewView { view } => c.on_new_view(me, view),
            PbftMsg::SyncDone { .. } => {}
        }
    }

    fn synced_batches(&self) -> u64 {
        self.next_commit_seq
    }

    /// The joiner adopts the highest view among its peers and starts
    /// watching the next open sequence.
    fn adopt_joiner(c: &mut PbftCluster, node: NodeId) {
        let view = c.highest_view();
        let joiner = &mut c.proto.nodes[node.0 as usize];
        joiner.view = view;
        joiner.voted_view = joiner.voted_view.max(view);
        joiner.low_water = c.proto.next_commit_seq;
    }

    /// Abandons in-flight slots (their epoch is superseded — a quorum of
    /// the old membership must not certify a commit), reclaims their
    /// commands, and restarts proposal/watchdog timers over the new
    /// membership.
    fn restart(c: &mut PbftCluster) {
        // Reclaim commands stuck in uncommitted slots, in sequence order
        // (several replicas hold the same in-flight batch).
        let mut by_slot: BTreeMap<(u64, u64), Vec<Command>> = BTreeMap::new();
        for node in &mut c.proto.nodes {
            for (&(view, seq), slot) in node.slots.iter() {
                if slot.committed {
                    continue;
                }
                if let Some(batch) = &slot.batch {
                    by_slot.entry((seq, view)).or_insert_with(|| batch.clone());
                }
            }
            node.slots.retain(|_, s| s.committed);
        }
        c.reclaim(by_slot.into_values(), true);
        let next = c.proto.next_commit_seq;
        c.proto
            .commit_quorum_times
            .retain(|&(_, seq), _| seq < next);
        // Restart the pipeline under the new epoch: the primary of the
        // highest active view proposes the next sequence, and every active
        // replica watches it.
        let view = c.highest_view();
        let seq = c.proto.next_commit_seq;
        c.net.timer(
            c.primary_of(view),
            c.proto.publishing_delay,
            PbftMsg::PublishTimer { view, seq },
        );
        for i in 0..c.proto.nodes.len() {
            let dst = NodeId(i as u32);
            if c.participates(dst) {
                c.net.timer(
                    dst,
                    c.proto.commit_timeout,
                    PbftMsg::CommitTimeout { view, seq },
                );
            }
        }
    }
}

impl PbftCluster {
    /// The highest view among alive active replicas.
    fn highest_view(&self) -> u64 {
        self.proto
            .nodes
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.participates(NodeId(i as u32)))
            .map(|(_, n)| n.view)
            .max()
            .unwrap_or(0)
    }

    fn on_publish_timer(&mut self, me: NodeId, view: u64, seq: u64) {
        {
            let node = &self.proto.nodes[me.0 as usize];
            if node.view != view || seq != self.proto.next_commit_seq || self.primary_of(view) != me
            {
                return;
            }
            if node
                .slots
                .get(&(view, seq))
                .is_some_and(|s| s.batch.is_some())
            {
                return; // already proposed this slot (duplicate timer)
            }
        }
        if self.pending.is_empty() {
            // Nothing to propose; retry a publishing-delay later.
            self.net.timer(
                me,
                self.proto.publishing_delay,
                PbftMsg::PublishTimer { view, seq },
            );
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let digest = digest_of(&batch, view, seq, 0);
        let bytes = 64 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let now = self.net.now();
        let done = self.cpu.process(me, now, cost);
        // Primary pre-prepares locally.
        let slot = self.proto.nodes[me.0 as usize]
            .slots
            .entry((view, seq))
            .or_default();
        slot.digest = Some(digest);
        slot.batch = Some(batch.clone());
        slot.prepares.insert(digest, 1); // own implicit prepare
        self.monitor.observe_proposal(view, seq, me, digest);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, seq, digest, me);
        if self.equivocates(me) {
            // Equivocating primary: a sibling block with the same commands
            // but a conflicting digest goes to half the honest peers;
            // Byzantine accomplices receive both versions.
            let alt = digest_of(&batch, view, seq, SIBLING_SALT);
            self.proto.equiv_sibling.insert((view, seq), alt);
            self.monitor.observe_proposal(view, seq, me, alt);
            self.send_equivocal(me, done - now, bytes, (digest, alt), |digest| {
                PbftMsg::PrePrepare {
                    view,
                    seq,
                    digest,
                    batch: batch.clone(),
                }
            });
        } else {
            self.net
                .broadcast_delayed(me, done - now, bytes, |_| PbftMsg::PrePrepare {
                    view,
                    seq,
                    digest,
                    batch: batch.clone(),
                });
        }
        // Arm the primary's own progress timer.
        self.net.timer(
            me,
            self.proto.commit_timeout,
            PbftMsg::CommitTimeout { view, seq },
        );
    }

    fn on_pre_prepare(
        &mut self,
        me: NodeId,
        at: SimTime,
        view: u64,
        seq: u64,
        digest: u64,
        batch: Vec<Command>,
    ) {
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let done = self.cpu.process(me, at, cost);
        let extra = done - at;
        let epoch = self.membership.epoch();
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if view != node.view || seq < node.low_water {
                return;
            }
            let slot = node.slots.entry((view, seq)).or_default();
            if slot.batch.is_some() {
                if slot.digest != Some(digest) && self.byz[me.0 as usize].double_votes(at) {
                    // A conflicting pre-prepare for a slot we already
                    // accepted: honest replicas drop it; a double-voting
                    // replica votes for it anyway (prepare and commit)
                    // without adopting it.
                    self.net
                        .broadcast_delayed(me, extra, 64, |_| PbftMsg::Prepare {
                            epoch,
                            view,
                            seq,
                            digest,
                            from: me,
                        });
                    self.net
                        .broadcast_delayed(me, extra, 64, |_| PbftMsg::Commit {
                            epoch,
                            view,
                            seq,
                            digest,
                            from: me,
                        });
                }
                return; // duplicate (or conflicting) pre-prepare
            }
            slot.digest = Some(digest);
            slot.batch = Some(batch);
            *slot.prepares.entry(digest).or_insert(0) += 2; // primary implicit + own
        }
        let primary = self.primary_of(view);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, seq, digest, primary);
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, seq, digest, me);
        self.net
            .broadcast_delayed(me, extra, 64, |_| PbftMsg::Prepare {
                epoch,
                view,
                seq,
                digest,
                from: me,
            });
        self.net.timer(
            me,
            self.proto.commit_timeout,
            PbftMsg::CommitTimeout { view, seq },
        );
        self.check_prepared(me, view, seq, digest);
    }

    fn on_prepare(
        &mut self,
        me: NodeId,
        at: SimTime,
        view: u64,
        seq: u64,
        digest: u64,
        from: NodeId,
    ) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if view != node.view {
                return;
            }
            let slot = node.slots.entry((view, seq)).or_default();
            if slot.digest.is_some() && slot.digest != Some(digest) {
                return;
            }
            *slot.prepares.entry(digest).or_insert(0) += 1;
        }
        self.monitor
            .observe_vote(me, VotePhase::Prepare, view, seq, digest, from);
        self.check_prepared(me, view, seq, digest);
    }

    fn check_prepared(&mut self, me: NodeId, view: u64, seq: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        let should_commit;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            let slot = node.slots.entry((view, seq)).or_default();
            should_commit = !slot.prepared
                && slot.digest == Some(digest)
                && slot.prepares.get(&digest).copied().unwrap_or(0) >= quorum;
            if should_commit {
                slot.prepared = true;
                *slot.commits.entry(digest).or_insert(0) += 1; // own commit
            }
        }
        if should_commit {
            let epoch = self.membership.epoch();
            self.monitor
                .observe_quorum(me, VotePhase::Prepare, view, seq, digest);
            self.monitor
                .observe_vote(me, VotePhase::Commit, view, seq, digest, me);
            let done = self.cpu.process(me, now, self.proc_per_msg);
            self.net
                .broadcast_delayed(me, done - now, 64, |_| PbftMsg::Commit {
                    epoch,
                    view,
                    seq,
                    digest,
                    from: me,
                });
            // An equivocating primary finishes its attack: the sibling fork
            // needs its commit vote too.
            if self.primary_of(view) == me {
                if let Some(&alt) = self.proto.equiv_sibling.get(&(view, seq)) {
                    if alt != digest {
                        self.net
                            .broadcast_delayed(me, done - now, 64, |_| PbftMsg::Commit {
                                epoch,
                                view,
                                seq,
                                digest: alt,
                                from: me,
                            });
                    }
                }
            }
            self.check_committed(me, view, seq, digest);
        }
    }

    fn on_commit(
        &mut self,
        me: NodeId,
        at: SimTime,
        view: u64,
        seq: u64,
        digest: u64,
        from: NodeId,
    ) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if view != node.view {
                return;
            }
            let slot = node.slots.entry((view, seq)).or_default();
            if slot.digest.is_some() && slot.digest != Some(digest) {
                return;
            }
            *slot.commits.entry(digest).or_insert(0) += 1;
        }
        self.monitor
            .observe_vote(me, VotePhase::Commit, view, seq, digest, from);
        self.check_committed(me, view, seq, digest);
    }

    fn check_committed(&mut self, me: NodeId, view: u64, seq: u64, digest: u64) {
        let quorum = self.quorum();
        let now = self.net.now();
        let locally_committed;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            let slot = node.slots.entry((view, seq)).or_default();
            locally_committed = !slot.committed
                && slot.prepared
                && slot.digest == Some(digest)
                && slot.commits.get(&digest).copied().unwrap_or(0) >= quorum;
            if locally_committed {
                slot.committed = true;
                node.low_water = node.low_water.max(seq + 1);
            }
        }
        if !locally_committed {
            return;
        }
        self.liveness.observe_progress(me, now);
        self.monitor
            .observe_quorum(me, VotePhase::Commit, view, seq, digest);
        // Vote tallies are reset on every membership change, so the quorum
        // behind this commit formed entirely in the current epoch.
        self.monitor
            .observe_epoch_commit(self.membership.epoch(), seq, digest);
        // Watch the next sequence so a primary that dies between blocks is
        // detected.
        self.net.timer(
            me,
            self.proto.commit_timeout,
            PbftMsg::CommitTimeout { view, seq: seq + 1 },
        );
        // Record this node's local commit; on quorum, finalize cluster-wide.
        let entry = self
            .proto
            .commit_quorum_times
            .entry((view, seq))
            .or_default();
        if !entry.iter().any(|(n, _)| *n == me) {
            entry.push((me, now));
        }
        if entry.len() as u32 >= quorum && seq == self.proto.next_commit_seq {
            let committed_at = self.proto.commit_quorum_times[&(view, seq)]
                .iter()
                .map(|&(_, t)| t)
                .max()
                .unwrap_or(now);
            let batch = self
                .proto
                .nodes
                .iter()
                .find_map(|n| n.slots.get(&(view, seq)).and_then(|s| s.batch.clone()))
                .unwrap_or_default();
            self.proto.next_commit_seq = seq + 1;
            self.liveness.observe_commit(committed_at);
            for c in &batch {
                self.committed_txs.insert(c.tx.as_u64());
            }
            self.committed.push(CommittedBatch {
                commands: batch,
                proposer: self.primary_of(view),
                round: seq,
                committed_at,
            });
            // Schedule the next publication at the (possibly new) primary.
            let next_primary = self.primary_of(view);
            self.net.timer(
                next_primary,
                self.proto.publishing_delay,
                PbftMsg::PublishTimer { view, seq: seq + 1 },
            );
        }
    }

    fn on_commit_timeout(&mut self, me: NodeId, view: u64, seq: u64) {
        let has_proposal;
        {
            let node = &self.proto.nodes[me.0 as usize];
            if node.view != view || seq < self.proto.next_commit_seq {
                return; // stale timer
            }
            if node.slots.get(&(view, seq)).is_some_and(|s| s.committed) {
                return;
            }
            has_proposal = node.slots.contains_key(&(view, seq));
        }
        // Only complain when there is actually stalled work: an outstanding
        // proposal, or queued commands nobody is proposing. Otherwise keep
        // watching.
        if !has_proposal && self.pending.is_empty() {
            self.net.timer(
                me,
                self.proto.commit_timeout,
                PbftMsg::CommitTimeout { view, seq },
            );
            return;
        }
        let new_view = view + 1;
        let now = self.net.now();
        let done = self.cpu.process(me, now, self.proc_per_msg);
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if node.voted_view >= new_view {
                return;
            }
            node.voted_view = new_view;
        }
        self.net
            .broadcast_delayed(me, done - now, 48, |_| PbftMsg::ViewChange {
                new_view,
                from: me,
            });
        // Count own vote.
        self.on_view_change(me, now, new_view, me);
    }

    fn on_view_change(&mut self, me: NodeId, _at: SimTime, new_view: u64, _from: NodeId) {
        let quorum = self.quorum();
        let is_new_primary = self.primary_of(new_view) == me;
        let reached;
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            if new_view <= node.view {
                return;
            }
            let votes = node.view_change_votes.entry(new_view).or_insert(0);
            *votes += 1;
            reached = *votes >= quorum;
        }
        if reached && is_new_primary {
            let now = self.net.now();
            // Only the incoming primary reaches this branch, so each
            // successful view change is counted once cluster-wide.
            self.liveness.observe_view_change(now);
            let done = self.cpu.process(me, now, self.proc_per_msg);
            self.adopt_view(me, new_view);
            self.net
                .broadcast_delayed(me, done - now, 48, |_| PbftMsg::NewView { view: new_view });
            // The new primary re-proposes pending work.
            self.net.timer(
                me,
                self.proto.publishing_delay,
                PbftMsg::PublishTimer {
                    view: new_view,
                    seq: self.proto.next_commit_seq,
                },
            );
        }
    }

    fn on_new_view(&mut self, me: NodeId, view: u64) {
        if view > self.proto.nodes[me.0 as usize].view {
            self.adopt_view(me, view);
            let seq = self.proto.next_commit_seq;
            self.net.timer(
                me,
                self.proto.commit_timeout,
                PbftMsg::CommitTimeout { view, seq },
            );
        }
    }

    fn adopt_view(&mut self, me: NodeId, view: u64) {
        let next = self.proto.next_commit_seq;
        let node = &mut self.proto.nodes[me.0 as usize];
        node.view = view;
        node.voted_view = node.voted_view.max(view);
        // Outstanding uncommitted slots from older views are abandoned, but
        // their commands are reclaimed into the pending queue so a proposal
        // orphaned by the view change is re-proposed rather than stranded.
        // Reclaim in (seq, view) order: slot iteration order is not
        // deterministic and the pending order feeds the next proposal.
        let mut by_slot: BTreeMap<(u64, u64), Vec<Command>> = BTreeMap::new();
        for (&(v, seq), slot) in node.slots.iter_mut() {
            if v < view && !slot.committed && seq >= next {
                if let Some(batch) = slot.batch.take() {
                    by_slot.insert((seq, v), batch);
                }
            }
        }
        node.slots.retain(|&(v, _), s| v >= view || s.committed);
        self.reclaim(by_slot.into_values(), false);
    }

    fn primary_of(&self, view: u64) -> NodeId {
        // Rotation over the active membership; identical to `view mod n`
        // until the first join/leave.
        self.membership.select(view)
    }
}

/// Deterministic digest of a batch proposal; `salt` is 0, or
/// [`SIBLING_SALT`] for an equivocating primary's conflicting sibling.
fn digest_of(batch: &[Command], view: u64, seq: u64, salt: u64) -> u64 {
    let mut h = Hasher64::with_key(view ^ (seq << 32) ^ salt);
    for c in batch {
        h.write_u64(c.tx.as_u64()).write_u64(c.ops as u64);
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
    fn commits_one_batch() {
        let mut c = PbftCluster::builder(4).seed(1).build();
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(5));
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].commands.len(), 1);
        assert_eq!(batches[0].proposer, NodeId(0));
    }

    #[test]
    fn respects_publishing_delay() {
        let mut c = PbftCluster::builder(4)
            .seed(2)
            .publishing_delay(SimDuration::from_secs(2))
            .batch(BatchConfig::new(1, SimDuration::from_secs(1)))
            .build();
        for s in 0..3 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(30));
        assert_eq!(batches.len(), 3);
        for w in batches.windows(2) {
            let gap = w[1].committed_at - w[0].committed_at;
            assert!(
                gap >= SimDuration::from_secs(2),
                "blocks must be ≥ publishing_delay apart, got {gap}"
            );
        }
    }

    #[test]
    fn batch_size_bounds_block_content() {
        let mut c = PbftCluster::builder(4)
            .seed(3)
            .batch(BatchConfig::new(5, SimDuration::from_secs(1)))
            .publishing_delay(SimDuration::from_millis(100))
            .build();
        for s in 0..17 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(20));
        let total: usize = batches.iter().map(|b| b.commands.len()).sum();
        assert_eq!(total, 17);
        assert!(batches.iter().all(|b| b.commands.len() <= 5));
    }

    #[test]
    fn commit_order_matches_submission_order() {
        let mut c = PbftCluster::builder(4)
            .seed(4)
            .publishing_delay(SimDuration::from_millis(50))
            .batch(BatchConfig::new(8, SimDuration::from_millis(100)))
            .build();
        for s in 0..40 {
            c.submit(tx(s));
        }
        let batches = c.run_until(SimTime::from_secs(30));
        let seqs: Vec<u64> = batches
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        assert_eq!(seqs.len(), 40);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        for (i, b) in batches.iter().enumerate() {
            assert_eq!(b.round, i as u64, "rounds are consecutive");
        }
    }

    #[test]
    fn primary_crash_triggers_view_change_and_progress() {
        let mut c = PbftCluster::builder(4).seed(5).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert_eq!(first.len(), 1);
        // Kill the primary (node 0, view 0).
        c.crash(NodeId(0));
        c.submit(tx(2));
        let batches = c.run_until(c.now() + SimDuration::from_secs(30));
        assert_eq!(batches.len(), 1, "view change must allow progress");
        assert_ne!(batches[0].proposer, NodeId(0));
    }

    #[test]
    fn no_progress_beyond_f_faults() {
        let mut c = PbftCluster::builder(4).seed(6).build();
        // f = 1 for n = 4; crashing two nodes destroys the quorum.
        c.crash(NodeId(2));
        c.crash(NodeId(3));
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(30));
        assert!(
            batches.is_empty(),
            "2f+1 quorum is unreachable with 2 of 4 down"
        );
    }

    #[test]
    fn tolerates_exactly_f_faults() {
        let mut c = PbftCluster::builder(4).seed(7).build();
        c.crash(NodeId(3)); // f = 1
        c.submit(tx(1));
        let batches = c.run_until(SimTime::from_secs(10));
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = PbftCluster::builder(4)
                .seed(seed)
                .publishing_delay(SimDuration::from_millis(200))
                .build();
            for s in 0..10 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(20))
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn empty_cluster_produces_no_blocks() {
        let mut c = PbftCluster::builder(4).seed(8).build();
        let batches = c.run_until(SimTime::from_secs(10));
        assert!(batches.is_empty(), "no commands, no blocks");
    }

    #[test]
    fn one_equivocating_primary_is_safe() {
        let mut c = PbftCluster::builder(4).seed(11).build();
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
        let batches = c.run_until(SimTime::from_secs(30));
        assert!(!batches.is_empty(), "f = 1 equivocator must not halt PBFT");
        let r = c.safety_report();
        assert!(
            r.observed.equivocating_proposals > 0,
            "the attack must actually run"
        );
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "≤ f Byzantine: {:?}", r.violations);
    }

    #[test]
    fn two_byzantine_nodes_break_safety_and_are_counted() {
        let mut c = PbftCluster::builder(4).seed(12).build();
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
            let mut c = PbftCluster::builder(4).seed(13).build();
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
            let batches = c.run_until(SimTime::from_secs(30));
            (format!("{:?}", c.safety_report()), batches.len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn join_grows_membership_after_sync_without_violations() {
        let mut c = PbftCluster::builder(4).standby(1).seed(21).build();
        assert_eq!((c.active_count(), c.config_epoch()), (4, 0));
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert_eq!(first.len(), 1);
        assert!(c.join(NodeId(4)), "standby is admitted");
        assert!(!c.join(NodeId(4)), "double join rejected");
        assert_eq!(c.active_count(), 4, "not active until synced");
        for s in 2..8 {
            c.submit(tx(s));
        }
        let more = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(!more.is_empty(), "commits continue through the join");
        assert_eq!((c.active_count(), c.config_epoch()), (5, 1));
        let r = c.safety_report();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
    }

    #[test]
    fn leave_shrinks_membership_and_rotates_primary_away() {
        let mut c = PbftCluster::builder(4).seed(22).build();
        c.submit(tx(1));
        assert_eq!(c.run_until(SimTime::from_secs(5)).len(), 1);
        // The current primary departs: the epoch advances and the next
        // blocks must come from surviving members.
        assert!(c.leave(NodeId(0)));
        assert_eq!((c.active_count(), c.config_epoch()), (3, 1));
        for s in 2..6 {
            c.submit(tx(s));
        }
        let batches = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(!batches.is_empty(), "the shrunken cluster keeps committing");
        assert!(batches.iter().all(|b| b.proposer != NodeId(0)));
        let r = c.safety_report();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
        assert!(!c.leave(NodeId(0)), "already departed");
    }

    #[test]
    fn joiner_never_votes_before_sync_completes() {
        let mut c = PbftCluster::builder(4).standby(1).seed(23).build();
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
            let mut c = PbftCluster::builder(4).standby(1).seed(24).build();
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
    fn larger_clusters_commit_slower() {
        let latency = |n: u32| {
            let mut c = PbftCluster::builder(n)
                .seed(10)
                .proc_per_msg(SimDuration::from_micros(200))
                .publishing_delay(SimDuration::from_millis(10))
                .build();
            let t0 = c.now();
            c.submit(tx(1));
            let batches = c.run_until(SimTime::from_secs(30));
            assert_eq!(batches.len(), 1, "n={n}");
            batches[0].committed_at - t0
        };
        let small = latency(4);
        let large = latency(32);
        assert!(
            large > small,
            "32 nodes ({large}) must be slower than 4 ({small}): O(n²) messages"
        );
    }
}
