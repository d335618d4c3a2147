//! Layer floors: the consensus engines and the network simulator run
//! directly through their public types, without a chain runtime around
//! them. The gap between a floor and the same work inside a chain's
//! `run_until` is the chain runtime's own cost.

use std::hint::black_box;
use std::time::Instant;

use coconut_consensus::diembft::DiemBftCluster;
use coconut_consensus::dpos::DposCluster;
use coconut_consensus::ibft::IbftCluster;
use coconut_consensus::pbft::PbftCluster;
use coconut_consensus::raft::RaftCluster;
use coconut_consensus::{BatchConfig, Command, CommittedBatch};
use coconut_simnet::{NetConfig, NetSim, Topology};
use coconut_types::{ClientId, NodeId, SimDuration, SimTime, TxId};

use crate::trace::elapsed_ns;

/// One engine floor measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineFloor {
    /// Engine name as used in metric names (`raft`, `pbft`, ...).
    pub engine: &'static str,
    /// Node (witness) count.
    pub nodes: u32,
    /// Wall nanoseconds inside `run_until` per network message sent.
    pub ns_per_msg: f64,
    /// Network messages sent per committed command.
    pub msgs_per_cmd: f64,
}

/// Commands offered per virtual second, and for how long.
const CMD_RATE: u64 = 400;
const SEND_SECS: u64 = 5;
/// Virtual time between submissions.
const STEP_MS: u64 = 50;
/// Drain time after the last submission.
const DRAIN_SECS: u64 = 5;

/// Drives one engine: `CMD_RATE` commands per virtual second for
/// `SEND_SECS`, submitted every `STEP_MS`, then a drain. Only `run_until`
/// is timed.
fn drive<E>(
    engine: &mut E,
    engine_name: &'static str,
    nodes: u32,
    submit: impl Fn(&mut E, Command),
    run_until: impl Fn(&mut E, SimTime) -> Vec<CommittedBatch>,
    messages: impl Fn(&E) -> u64,
) -> EngineFloor {
    let per_step = CMD_RATE * STEP_MS / 1000;
    let mut ns = 0u64;
    let mut committed = 0u64;
    let mut seq = 0u64;
    let mut now = SimTime::ZERO;
    let end = SimTime::from_secs(SEND_SECS);
    let advance = |engine: &mut E, to: SimTime, ns: &mut u64, committed: &mut u64| {
        let t = Instant::now();
        let batches = black_box(run_until(engine, to));
        *ns += elapsed_ns(t);
        *committed += batches.iter().map(|b| b.commands.len() as u64).sum::<u64>();
    };
    while now < end {
        for _ in 0..per_step {
            submit(engine, Command::unit(TxId::new(ClientId(0), seq)));
            seq += 1;
        }
        now += SimDuration::from_millis(STEP_MS);
        advance(engine, now, &mut ns, &mut committed);
    }
    advance(
        engine,
        end + SimDuration::from_secs(DRAIN_SECS),
        &mut ns,
        &mut committed,
    );
    let msgs = messages(engine).max(1);
    EngineFloor {
        engine: engine_name,
        nodes,
        ns_per_msg: ns as f64 / msgs as f64,
        msgs_per_cmd: msgs as f64 / committed.max(1) as f64,
    }
}

/// The engine floors at each engine's baseline node count (as the chains
/// deploy them) and at 32 nodes.
pub fn engine_floors(seed: u64) -> Vec<EngineFloor> {
    let batch = BatchConfig::new(100, SimDuration::from_millis(250));
    let mut out = Vec::new();
    for n in [3, 32] {
        let mut e = RaftCluster::builder(n)
            .seed(seed)
            .net(NetConfig::lan())
            .batch(batch)
            .build();
        out.push(drive(
            &mut e,
            "raft",
            n,
            |e, c| e.submit(c),
            |e, t| e.run_until(t),
            |e| e.net_stats().messages_sent,
        ));
    }
    for n in [4, 32] {
        let mut e = PbftCluster::builder(n)
            .seed(seed)
            .net(NetConfig::lan())
            .batch(batch)
            .build();
        out.push(drive(
            &mut e,
            "pbft",
            n,
            |e, c| e.submit(c),
            |e, t| e.run_until(t),
            |e| e.net_stats().messages_sent,
        ));
    }
    for n in [4, 32] {
        let mut e = IbftCluster::builder(n)
            .seed(seed)
            .net(NetConfig::lan())
            .batch(batch)
            .build();
        out.push(drive(
            &mut e,
            "ibft",
            n,
            |e, c| e.submit(c),
            |e, t| e.run_until(t),
            |e| e.net_stats().messages_sent,
        ));
    }
    for n in [4, 32] {
        let mut e = DiemBftCluster::builder(n)
            .seed(seed)
            .net(NetConfig::lan())
            .batch(batch)
            .build();
        out.push(drive(
            &mut e,
            "diembft",
            n,
            |e, c| e.submit(c),
            |e, t| e.run_until(t),
            |e| e.net_stats().messages_sent,
        ));
    }
    for n in [3, 32] {
        let mut e = DposCluster::builder(n)
            .seed(seed)
            .net(NetConfig::lan())
            .build();
        out.push(drive(
            &mut e,
            "dpos",
            n,
            |e, c| e.submit(c),
            |e, t| e.run_until(t),
            |e| e.net_stats().messages_sent,
        ));
    }
    out
}

/// Wall nanoseconds per message for `messages` sends and deliveries on
/// the paper's 4-node LAN topology, in bursts of 1,000 sends followed by
/// popping every pending delivery.
pub(crate) fn simnet_ns_per_event(messages: u64, seed: u64) -> f64 {
    let messages = messages.max(1_000);
    let mut net: NetSim<u64> = NetSim::new(Topology::paper_baseline(), NetConfig::lan(), seed);
    let t = Instant::now();
    let mut sent = 0u64;
    let mut popped = 0u64;
    while sent < messages {
        let burst = (messages - sent).min(1_000);
        for i in sent..sent + burst {
            net.send(NodeId((i % 4) as u32), NodeId(((i + 1) % 4) as u32), 128, i);
        }
        sent += burst;
        while let Some(ev) = net.pop_before(SimTime::MAX) {
            black_box(ev);
            popped += 1;
        }
    }
    black_box(popped);
    elapsed_ns(t) as f64 / sent as f64
}
