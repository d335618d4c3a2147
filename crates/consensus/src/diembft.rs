//! DiemBFT — the consensus of the modelled Diem (the paper runs Diem at
//! commit `94a8bca0fa` with `max_block_size` ∈ {100, 500, 1000, 2000},
//! Table 5).
//!
//! DiemBFT is a chained HotStuff-family protocol: a leader per round
//! proposes a block extending the highest quorum certificate (QC),
//! validators send votes to the *next* leader, who aggregates 2f + 1 votes
//! into a QC and proposes the next block carrying it. A block commits under
//! the 2-chain rule: a QC'd block is committed once a QC forms for a child
//! block in the *contiguous* next round. The pacemaker advances rounds via
//! timeout certificates (2f + 1 timeout messages) when a leader stalls.
//!
//! Diem's proposal generator caps blocks at `max_block_size`
//! ([`DiemBftBuilder::batch`]); when the mempool is empty but uncommitted
//! QC'd blocks remain, leaders propose NIL blocks so the 2-chain rule can
//! finish committing the tail.
//!
//! # Byzantine fault injection
//!
//! [`DiemBftCluster::set_byzantine`] arms a validator with a
//! [`ByzantineBehaviour`](coconut_simnet::ByzantineBehaviour). An
//! equivocating leader proposes two conflicting blocks for its round —
//! fellow Byzantine validators receive both, honest validators are split
//! between them — and votes for both. A double-voting validator answers a
//! conflicting proposal for a round it already voted in with a second vote.
//! A [`SafetyMonitor`](crate::SafetyMonitor) observes every proposal, vote,
//! quorum certificate, and commit; with at most `f` Byzantine validators the
//! minority block falls short of a QC and the report stays clean, while
//! `f + 1` colluders can certify two blocks in one round — counted as
//! conflicting certificates, never a panic.

use std::collections::{HashMap, HashSet};

use coconut_types::{Hasher64, NodeId, SimDuration, SimTime};

use crate::bft::{BftBuilder, BftCluster, Gate, Protocol, SIBLING_SALT};
use crate::safety::VotePhase;
use crate::{BatchConfig, Command, CommittedBatch};

use msg::DiemMsg;

mod msg {
    use coconut_types::NodeId;

    use crate::Command;

    /// DiemBFT protocol messages and pacemaker timers.
    #[derive(Debug, Clone)]
    pub enum DiemMsg {
        /// Leader cadence timer.
        ProposeTimer {
            round: u64,
        },
        /// Pacemaker timeout for a round.
        RoundTimeout {
            round: u64,
        },
        Proposal {
            round: u64,
            digest: u64,
            parent: u64,
            parent_round: u64,
            /// The QC this proposal carries (certifies `qc_round`).
            qc_round: u64,
            batch: Vec<Command>,
        },
        Vote {
            epoch: u64,
            round: u64,
            digest: u64,
            from: NodeId,
        },
        Timeout {
            round: u64,
            from: NodeId,
        },
        /// A joiner's catch-up/state transfer finished: activate it.
        SyncDone {
            node: NodeId,
        },
    }
}

/// A proposed block as tracked in the (global, for emission) block store.
#[derive(Debug, Clone)]
struct BlockInfo {
    round: u64,
    parent: u64,
    parent_round: u64,
    batch: Vec<Command>,
    proposer: NodeId,
}

#[derive(Debug, Clone)]
struct DiemNode {
    round: u64,
    highest_voted: u64,
}

/// DiemBFT's settings and state: the block store and quorum certificates,
/// vote and timeout tallies, per-validator rounds, and the pacemaker's
/// round interval and timeout.
#[derive(Debug, Clone)]
pub struct DiemBft {
    nodes: Vec<DiemNode>,
    /// digest → block (proposals are broadcast; this is the union store).
    blocks: HashMap<u64, BlockInfo>,
    /// (round, digest) → vote count at the aggregating leader.
    votes: HashMap<(u64, u64), u32>,
    /// digest → round, for certified blocks.
    qcs: HashMap<u64, u64>,
    /// Highest formed QC as (round, digest).
    highest_qc: (u64, u64),
    timeout_votes: HashMap<u64, u32>,
    committed_digests: HashSet<u64>,
    last_committed_round: u64,
    round_interval: SimDuration,
    round_timeout: SimDuration,
    proposed_rounds: HashSet<u64>,
}

impl Default for DiemBft {
    fn default() -> Self {
        // Genesis: digest 0, round 0, self-parent, certified.
        let genesis = BlockInfo {
            round: 0,
            parent: 0,
            parent_round: 0,
            batch: Vec::new(),
            proposer: NodeId(0),
        };
        DiemBft {
            nodes: Vec::new(),
            blocks: HashMap::from([(0, genesis)]),
            votes: HashMap::new(),
            qcs: HashMap::from([(0, 0)]),
            highest_qc: (0, 0),
            timeout_votes: HashMap::new(),
            committed_digests: HashSet::new(),
            last_committed_round: 0,
            round_interval: SimDuration::from_millis(100),
            round_timeout: SimDuration::from_secs(3),
            proposed_rounds: HashSet::new(),
        }
    }
}

/// Configuration for a [`DiemBftCluster`]; build with
/// [`DiemBftCluster::builder`].
pub type DiemBftBuilder = BftBuilder<DiemBft>;

/// A simulated DiemBFT validator set.
///
/// # Example
///
/// ```
/// use coconut_consensus::{diembft::DiemBftCluster, Command};
/// use coconut_types::{ClientId, SimTime, TxId};
///
/// let mut diem = DiemBftCluster::builder(4).seed(2).build();
/// diem.submit(Command::unit(TxId::new(ClientId(0), 1)));
/// let blocks = diem.run_until(SimTime::from_secs(5));
/// assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
/// ```
pub type DiemBftCluster = BftCluster<DiemBft>;

impl DiemBftBuilder {
    /// Minimum spacing between a leader's proposals (paces NIL rounds).
    pub fn round_interval(mut self, d: SimDuration) -> Self {
        self.proto.round_interval = d;
        self
    }

    /// Pacemaker round timeout.
    pub fn round_timeout(mut self, d: SimDuration) -> Self {
        self.proto.round_timeout = d;
        self
    }
}

impl Protocol for DiemBft {
    type Msg = DiemMsg;
    const BATCH: BatchConfig = BatchConfig {
        max_commands: 3000,
        max_wait: SimDuration::from_millis(250),
    };
    const PROC_PER_MSG: SimDuration = SimDuration::from_micros(40);
    const PROC_PER_COMMAND: SimDuration = SimDuration::from_micros(8);

    /// Round 1's leader proposes after one interval.
    fn start(c: &mut DiemBftCluster) {
        let node = DiemNode {
            round: 1,
            highest_voted: 0,
        };
        c.proto.nodes = vec![node; c.alive.len()];
        c.net.timer(
            c.leader_of(1),
            c.proto.round_interval,
            DiemMsg::ProposeTimer { round: 1 },
        );
    }

    fn gate(msg: &DiemMsg) -> Gate {
        match *msg {
            DiemMsg::Vote { epoch, .. } => Gate::Vote(epoch),
            DiemMsg::SyncDone { node } => Gate::SyncDone(node),
            _ => Gate::Protocol,
        }
    }

    fn sync_done(node: NodeId) -> DiemMsg {
        DiemMsg::SyncDone { node }
    }

    fn handle(c: &mut DiemBftCluster, me: NodeId, at: SimTime, msg: DiemMsg) {
        match msg {
            DiemMsg::ProposeTimer { round } => c.on_propose_timer(me, round),
            DiemMsg::RoundTimeout { round } => c.on_round_timeout(me, round),
            DiemMsg::Proposal {
                round,
                digest,
                parent,
                parent_round,
                qc_round,
                batch,
            } => c.on_proposal(me, at, round, digest, parent, parent_round, qc_round, batch),
            DiemMsg::Vote {
                round,
                digest,
                from,
                ..
            } => c.on_vote(me, at, round, digest, from),
            DiemMsg::Timeout { round, from } => c.on_timeout_msg(me, at, round, from),
            DiemMsg::SyncDone { .. } => {}
        }
    }

    fn synced_batches(&self) -> u64 {
        self.committed_digests.len() as u64
    }

    /// The joiner enters at the current frontier round.
    fn adopt_joiner(c: &mut DiemBftCluster, node: NodeId) {
        let frontier = c.proto.highest_qc.0;
        let joiner = &mut c.proto.nodes[node.0 as usize];
        joiner.round = joiner.round.max(frontier + 1);
        // The joiner must never retro-vote a pre-sync round.
        joiner.highest_voted = joiner.highest_voted.max(frontier);
    }

    /// Resets in-flight vote/timeout tallies (their epoch is superseded — a
    /// quorum of the old membership must not certify a block), reclaims
    /// commands stuck in uncertified frontier blocks, and restarts the
    /// proposal chain over the new membership.
    fn restart(c: &mut DiemBftCluster) {
        c.proto.votes.clear();
        c.proto.timeout_votes.clear();
        // Blocks proposed past the highest QC can no longer certify (their
        // vote tallies are void).
        let frontier = c.proto.highest_qc.0;
        let orphaned = c.take_batches(|round| round > frontier);
        c.reclaim(orphaned, true);
        // The frontier round may be re-proposed under the new epoch.
        c.proto.proposed_rounds.retain(|&r| r <= frontier);
        let next = frontier + 1;
        c.net.timer(
            c.leader_of(next),
            c.proto.round_interval,
            DiemMsg::ProposeTimer { round: next },
        );
        c.arm_round_timeouts(next);
    }

    /// A recovered validator catches up to the highest known round.
    fn on_recover(c: &mut DiemBftCluster, node: NodeId) {
        let max_round = c
            .proto
            .nodes
            .iter()
            .zip(&c.alive)
            .filter(|&(_, &alive)| alive)
            .map(|(n, _)| n.round)
            .max()
            .unwrap_or(1);
        let n = &mut c.proto.nodes[node.0 as usize];
        n.round = n.round.max(max_round);
    }

    /// Kicks an idle leader when work arrived between calls.
    fn before_run(c: &mut DiemBftCluster) {
        c.kick_current_leader();
    }
}

impl DiemBftCluster {
    /// Empties the non-empty blocks whose round matches `stranded` and
    /// returns their commands in digest order (block-store iteration order
    /// is not deterministic).
    fn take_batches(&mut self, stranded: impl Fn(u64) -> bool) -> Vec<Vec<Command>> {
        let mut digests: Vec<u64> = self
            .proto
            .blocks
            .iter()
            .filter(|(_, b)| stranded(b.round) && !b.batch.is_empty())
            .map(|(&d, _)| d)
            .collect();
        digests.sort_unstable();
        let blocks = &mut self.proto.blocks;
        digests
            .iter()
            .filter_map(|d| blocks.get_mut(d).map(|b| std::mem::take(&mut b.batch)))
            .collect()
    }

    fn leader_of(&self, round: u64) -> NodeId {
        // Rotation over the active membership; identical to `round mod n`
        // until the first join/leave.
        self.membership.select(round)
    }

    fn kick_current_leader(&mut self) {
        let round = self.proto.highest_qc.0 + 1;
        if !self.proto.proposed_rounds.contains(&round) {
            let leader = self.leader_of(round);
            self.net.timer(
                leader,
                SimDuration::from_micros(1),
                DiemMsg::ProposeTimer { round },
            );
            if !self.alive[leader.0 as usize] {
                // A crashed proposer swallows the kick; the pacemaker must
                // still run so a timeout certificate can skip its round.
                self.arm_round_timeouts(round);
            }
        }
    }

    /// Arms the pacemaker for `round` at every alive validator (entering a
    /// round always starts a local timeout in DiemBFT).
    fn arm_round_timeouts(&mut self, round: u64) {
        for i in 0..self.proto.nodes.len() {
            if self.participates(NodeId(i as u32)) {
                self.net.timer(
                    NodeId(i as u32),
                    self.proto.round_timeout,
                    DiemMsg::RoundTimeout { round },
                );
            }
        }
    }

    /// Whether there is any reason to keep proposing: work in the mempool,
    /// or an uncommitted certified *non-empty* block that needs a child QC
    /// to commit under the 2-chain rule. An empty certified tail carries
    /// nothing to commit, so the cluster may go idle on it.
    fn has_work(&self) -> bool {
        !self.pending.is_empty()
            || self.proto.qcs.iter().any(|(digest, _)| {
                *digest != 0
                    && !self.proto.committed_digests.contains(digest)
                    && self
                        .proto
                        .blocks
                        .get(digest)
                        .is_some_and(|b| !b.batch.is_empty())
            })
    }

    fn on_propose_timer(&mut self, me: NodeId, round: u64) {
        if self.leader_of(round) != me || self.proto.proposed_rounds.contains(&round) {
            return;
        }
        // Propose only for the round following our highest QC (chained rule).
        if round != self.proto.highest_qc.0 + 1 {
            return;
        }
        if !self.has_work() {
            // Idle: re-check after an interval.
            self.net.timer(
                me,
                self.proto.round_interval,
                DiemMsg::ProposeTimer { round },
            );
            return;
        }
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let (qc_round, parent_digest) = self.proto.highest_qc;
        let parent_round = self.proto.blocks.get(&parent_digest).map_or(0, |b| b.round);
        let digest = block_digest(round, parent_digest, &batch);
        self.proto.proposed_rounds.insert(round);
        self.proto.blocks.insert(
            digest,
            BlockInfo {
                round,
                parent: parent_digest,
                parent_round,
                batch: batch.clone(),
                proposer: me,
            },
        );
        self.monitor.observe_proposal(0, round, me, digest);
        let bytes = 96 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let now = self.net.now();
        let done = self.cpu.process(me, now, cost);
        if self.equivocates(me) {
            // Equivocation: a second block for the same round over the same
            // commands, under a salted digest. Fellow Byzantine validators
            // receive both versions, honest validators are split between
            // them, and the leader votes for both — with at most `f`
            // colluders the minority block falls short of a QC.
            let alt = block_digest(round ^ SIBLING_SALT, parent_digest, &batch);
            self.proto.blocks.insert(
                alt,
                BlockInfo {
                    round,
                    parent: parent_digest,
                    parent_round,
                    batch: batch.clone(),
                    proposer: me,
                },
            );
            self.monitor.observe_proposal(0, round, me, alt);
            self.send_equivocal(me, done - now, bytes, (digest, alt), |d| {
                DiemMsg::Proposal {
                    round,
                    digest: d,
                    parent: parent_digest,
                    parent_round,
                    qc_round,
                    batch: batch.clone(),
                }
            });
            self.cast_vote(me, round, digest);
            self.cast_vote(me, round, alt);
        } else {
            self.net
                .broadcast_delayed(me, done - now, bytes, |_| DiemMsg::Proposal {
                    round,
                    digest,
                    parent: parent_digest,
                    parent_round,
                    qc_round,
                    batch: batch.clone(),
                });
            // Leader votes for its own proposal (vote goes to next leader).
            self.cast_vote(me, round, digest);
        }
        // Arm pacemaker for this round at the leader.
        self.net.timer(
            me,
            self.proto.round_timeout,
            DiemMsg::RoundTimeout { round },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn on_proposal(
        &mut self,
        me: NodeId,
        at: SimTime,
        round: u64,
        digest: u64,
        parent: u64,
        parent_round: u64,
        qc_round: u64,
        batch: Vec<Command>,
    ) {
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let _ = self.cpu.process(me, at, cost);
        // Sync to the carried QC.
        if qc_round >= self.proto.highest_qc.0
            && parent != self.proto.highest_qc.1
            && self.proto.qcs.contains_key(&parent)
        {
            // parent certified elsewhere; fine.
        }
        let proposer = self.leader_of(round);
        self.proto.blocks.entry(digest).or_insert(BlockInfo {
            round,
            parent,
            parent_round,
            batch,
            proposer,
        });
        // A double-voting validator answers a conflicting proposal for the
        // round it just voted in with a second vote, violating the
        // vote-once safety rule.
        let dv = self.byz[me.0 as usize].double_votes(at);
        self.liveness.observe_progress(me, at);
        {
            let node = &mut self.proto.nodes[me.0 as usize];
            node.round = node.round.max(round);
            if node.highest_voted >= round && !(dv && node.highest_voted == round) {
                return; // already voted this round (safety rule)
            }
            node.highest_voted = round;
        }
        self.cast_vote(me, round, digest);
        // Arm pacemaker for the next round.
        self.net.timer(
            me,
            self.proto.round_timeout,
            DiemMsg::RoundTimeout { round: round + 1 },
        );
    }

    fn cast_vote(&mut self, me: NodeId, round: u64, digest: u64) {
        let next_leader = self.leader_of(round + 1);
        let now = self.net.now();
        let done = self.cpu.process(me, now, self.proc_per_msg);
        if next_leader == me {
            self.on_vote(me, now, round, digest, me);
        } else {
            let epoch = self.membership.epoch();
            self.net.send_delayed(
                me,
                next_leader,
                done - now,
                64,
                DiemMsg::Vote {
                    epoch,
                    round,
                    digest,
                    from: me,
                },
            );
        }
    }

    fn on_vote(&mut self, me: NodeId, at: SimTime, round: u64, digest: u64, from: NodeId) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        if self.leader_of(round + 1) != me {
            return;
        }
        self.monitor
            .observe_vote(me, VotePhase::Vote, 0, round, digest, from);
        let count = self.proto.votes.entry((round, digest)).or_insert(0);
        *count += 1;
        if *count == self.quorum() {
            // QC formed.
            self.monitor
                .observe_quorum(me, VotePhase::Vote, 0, round, digest);
            self.monitor.observe_certificate(round, digest);
            self.proto.qcs.insert(digest, round);
            if round > self.proto.highest_qc.0 {
                self.proto.highest_qc = (round, digest);
            }
            self.try_commit(digest);
            // Chained: the next leader (us) proposes after the round
            // interval (paces NIL rounds; real DiemBFT proposes
            // back-to-back, but the interval is what Diem's round timer
            // amounts to under our virtual clock).
            self.net.timer(
                me,
                self.proto.round_interval,
                DiemMsg::ProposeTimer { round: round + 1 },
            );
        }
    }

    /// 2-chain commit: forming a QC for block B commits B's parent when the
    /// parent is at the contiguous previous round.
    fn try_commit(&mut self, certified: u64) {
        let Some(block) = self.proto.blocks.get(&certified) else {
            return;
        };
        let parent_digest = block.parent;
        let contiguous = block.parent_round + 1 == block.round;
        if !contiguous || parent_digest == 0 {
            return;
        }
        if !self.proto.qcs.contains_key(&parent_digest) {
            return;
        }
        // Commit parent and any uncommitted certified ancestors (in order).
        let mut chain = Vec::new();
        let mut cur = parent_digest;
        while cur != 0 && !self.proto.committed_digests.contains(&cur) {
            chain.push(cur);
            cur = self.proto.blocks.get(&cur).map_or(0, |b| b.parent);
        }
        let now = self.net.now();
        for digest in chain.into_iter().rev() {
            let info = &self.proto.blocks[&digest];
            if info.round <= self.proto.last_committed_round {
                continue;
            }
            self.proto.committed_digests.insert(digest);
            self.proto.last_committed_round = info.round;
            self.liveness.observe_commit(now);
            // Vote tallies are reset on every membership change, so the QC
            // behind this commit formed entirely in the current epoch.
            self.monitor
                .observe_epoch_commit(self.membership.epoch(), info.round, digest);
            for c in &info.batch {
                self.committed_txs.insert(c.tx.as_u64());
            }
            if !info.batch.is_empty() {
                self.committed.push(CommittedBatch {
                    commands: info.batch.clone(),
                    proposer: info.proposer,
                    round: info.round,
                    committed_at: now,
                });
            }
        }
    }

    fn on_round_timeout(&mut self, me: NodeId, round: u64) {
        // Complain only if the round is still the frontier (no QC yet).
        if self.proto.highest_qc.0 >= round {
            return;
        }
        let now = self.net.now();
        let done = self.cpu.process(me, now, self.proc_per_msg);
        self.net
            .broadcast_delayed(me, done - now, 48, |_| DiemMsg::Timeout { round, from: me });
        self.on_timeout_msg(me, now, round, me);
    }

    fn on_timeout_msg(&mut self, me: NodeId, at: SimTime, round: u64, _from: NodeId) {
        let _ = self.cpu.process(me, at, self.proc_per_msg);
        let votes = self.proto.timeout_votes.entry(round).or_insert(0);
        *votes += 1;
        if *votes == self.quorum() {
            // Timeout certificate: the round is dead; the next round's leader
            // proposes from the highest QC. Mark the dead round as proposed
            // so nobody revives it. The shared tally fires exactly once per
            // round, so this counts one pacemaker advance cluster-wide.
            self.liveness.observe_view_change(at);
            self.proto.proposed_rounds.insert(round);
            let next = round + 1;
            // Allow re-proposal chain: treat highest_qc round frontier as `round`.
            if self.proto.highest_qc.0 < round {
                // A block proposed at the dead round can never certify
                // (nobody votes it again, and a skip proposal extends the
                // highest QC, not it). Re-queue its commands at the front
                // of the mempool — real mempools only evict on commit.
                let orphaned = self.take_batches(|r| r == round);
                self.reclaim(orphaned, true);
                // Pretend rounds up to `round` are skipped: the new leader
                // extends the highest QC but at round `next`.
                let leader = self.leader_of(next);
                let (qc_round, qc_digest) = self.proto.highest_qc;
                // Propose directly here to keep the skip logic in one place.
                if self.alive[leader.0 as usize] && !self.proto.proposed_rounds.contains(&next) {
                    self.propose_skip(leader, next, qc_round, qc_digest);
                } else {
                    // The skip target is dead too: keep the pacemaker
                    // running so `next` can also be timed out.
                    self.arm_round_timeouts(next);
                }
            }
            self.proto.timeout_votes.remove(&round);
        }
    }

    /// A post-timeout proposal: extends the highest QC at a non-contiguous
    /// round (so it cannot immediately commit its parent — matching the
    /// protocol's safety rule).
    fn propose_skip(&mut self, me: NodeId, round: u64, qc_round: u64, parent_digest: u64) {
        let take = self.pending.len().min(self.batch.max_commands);
        let batch: Vec<Command> = self.pending.drain(..take).collect();
        let parent_round = self.proto.blocks.get(&parent_digest).map_or(0, |b| b.round);
        let digest = block_digest(round ^ 0xDEAD, parent_digest, &batch);
        self.proto.proposed_rounds.insert(round);
        self.proto.blocks.insert(
            digest,
            BlockInfo {
                round,
                parent: parent_digest,
                parent_round,
                batch: batch.clone(),
                proposer: me,
            },
        );
        self.monitor.observe_proposal(0, round, me, digest);
        let bytes = 96 + batch.iter().map(|c| c.bytes as usize).sum::<usize>();
        let now = self.net.now();
        let cost = self.proc_per_msg + self.proc_per_command * batch.len() as u64;
        let done = self.cpu.process(me, now, cost);
        self.net
            .broadcast_delayed(me, done - now, bytes, |_| DiemMsg::Proposal {
                round,
                digest,
                parent: parent_digest,
                parent_round,
                qc_round,
                batch: batch.clone(),
            });
        self.cast_vote(me, round, digest);
        self.net.timer(
            me,
            self.proto.round_timeout,
            DiemMsg::RoundTimeout { round },
        );
    }
}

/// Deterministic digest of a block: its round-derived `key` (salted for an
/// equivocating leader's sibling and for a post-timeout skip proposal), its
/// parent and its commands.
fn block_digest(key: u64, parent: u64, batch: &[Command]) -> u64 {
    let mut h = Hasher64::with_key(key);
    h.write_u64(parent);
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
    fn commits_a_command_via_two_chain() {
        let mut c = DiemBftCluster::builder(4).seed(1).build();
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(5));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
    }

    #[test]
    fn commits_many_commands_in_order() {
        let mut c = DiemBftCluster::builder(4).seed(2).build();
        for s in 0..100 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        let seqs: Vec<u64> = blocks
            .iter()
            .flat_map(|b| b.commands.iter().map(|cmd| cmd.tx.seq()))
            .collect();
        assert_eq!(seqs.len(), 100);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn max_block_size_bounds_blocks() {
        let mut c = DiemBftCluster::builder(4)
            .seed(3)
            .batch(BatchConfig::new(10, SimDuration::from_millis(100)))
            .build();
        for s in 0..35 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(30));
        assert!(blocks.iter().all(|b| b.commands.len() <= 10));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 35);
    }

    #[test]
    fn rounds_strictly_increase() {
        let mut c = DiemBftCluster::builder(4).seed(4).build();
        for s in 0..20 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(20));
        assert!(blocks.windows(2).all(|w| w[0].round < w[1].round));
    }

    #[test]
    fn leader_crash_recovers_via_timeout_certificate() {
        let mut c = DiemBftCluster::builder(4).seed(5).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert!(!first.is_empty());
        // Crash the leader of the next frontier round.
        let next_round = c.proto.highest_qc.0 + 1;
        let leader = c.leader_of(next_round);
        c.crash(leader);
        c.submit(tx(2));
        let blocks = c.run_until(c.now() + SimDuration::from_secs(30));
        assert!(
            blocks
                .iter()
                .any(|b| b.commands.iter().any(|cmd| cmd.tx.seq() == 2)),
            "timeout certificate must allow progress past a dead leader"
        );
    }

    #[test]
    fn no_progress_without_quorum() {
        let mut c = DiemBftCluster::builder(4).seed(6).build();
        c.crash(NodeId(2));
        c.crash(NodeId(3));
        c.submit(tx(1));
        let blocks = c.run_until(SimTime::from_secs(20));
        assert!(blocks.is_empty());
    }

    #[test]
    fn deterministic_with_same_seed() {
        let run = |seed| {
            let mut c = DiemBftCluster::builder(4).seed(seed).build();
            for s in 0..10 {
                c.submit(tx(s));
            }
            c.run_until(SimTime::from_secs(10))
                .iter()
                .map(|b| (b.round, b.committed_at, b.commands.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn idle_cluster_stays_quiet() {
        let mut c = DiemBftCluster::builder(4).seed(8).build();
        let blocks = c.run_until(SimTime::from_secs(5));
        assert!(blocks.is_empty());
        // The idle cluster should not have exploded in events:
        assert!(c.net_stats().messages_sent < 1000, "idle spin detected");
    }

    #[test]
    fn late_submissions_are_picked_up() {
        let mut c = DiemBftCluster::builder(4).seed(9).build();
        c.run_until(SimTime::from_secs(3));
        c.submit(tx(1));
        let blocks = c.run_until(c.now() + SimDuration::from_secs(5));
        assert_eq!(blocks.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
    }

    #[test]
    fn join_grows_membership_after_sync_without_violations() {
        let mut c = DiemBftCluster::builder(4).standby(1).seed(41).build();
        assert_eq!((c.active_count(), c.config_epoch()), (4, 0));
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert_eq!(first.iter().map(|b| b.commands.len()).sum::<usize>(), 1);
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
    fn leave_shrinks_membership_and_keeps_committing() {
        let mut c = DiemBftCluster::builder(4).seed(42).build();
        c.submit(tx(1));
        let first = c.run_until(SimTime::from_secs(5));
        assert!(!first.is_empty());
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
        let r = c.safety_report();
        assert!(r.violations.is_clean(), "{:?}", r.violations);
        assert!(!c.leave(NodeId(0)), "already departed");
    }

    #[test]
    fn joiner_never_votes_before_sync_completes() {
        let mut c = DiemBftCluster::builder(4).standby(1).seed(43).build();
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
            let mut c = DiemBftCluster::builder(4).standby(1).seed(44).build();
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
    fn one_equivocating_leader_is_safe() {
        // Node 1 leads round 1, so the attack fires immediately.
        let mut c = DiemBftCluster::builder(4).seed(31).build();
        c.set_byzantine(
            NodeId(1),
            ByzantineBehaviour::EquivocateProposer,
            SimTime::from_secs(60),
        );
        c.set_byzantine(
            NodeId(1),
            ByzantineBehaviour::DoubleVote,
            SimTime::from_secs(60),
        );
        for s in 0..6 {
            c.submit(tx(s));
        }
        let blocks = c.run_until(SimTime::from_secs(30));
        assert!(
            !blocks.is_empty(),
            "f = 1 equivocator must not halt DiemBFT"
        );
        let r = c.safety_report();
        assert!(
            r.observed.equivocating_proposals > 0,
            "the attack must actually run"
        );
        assert_eq!(r.observed.byzantine_nodes, 1);
        assert!(r.violations.is_clean(), "≤ f Byzantine: {:?}", r.violations);
    }

    #[test]
    fn two_byzantine_validators_break_safety_and_are_counted() {
        let mut c = DiemBftCluster::builder(4).seed(32).build();
        for node in [NodeId(1), NodeId(2)] {
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
        // Under the 2-chain rule the sibling block certifies but never gains
        // a child, so the break surfaces as a conflicting QC, not a commit.
        assert!(
            r.violations.conflicting_certificates > 0,
            "f+1 Byzantine must certify conflicting blocks in one round: {r:?}"
        );
    }

    #[test]
    fn byzantine_run_is_deterministic() {
        let run = || {
            let mut c = DiemBftCluster::builder(4).seed(33).build();
            for node in [NodeId(1), NodeId(2)] {
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
}
