//! The per-layer trace: one span (call count + total nanoseconds) per
//! (cell, layer) pair, recorded at the boundaries of the calls the
//! benchmark makes into each layer's public functions.
//!
//! Chain-layer spans come from [`Traced`], a timing adapter around any
//! [`BlockchainSystem`]: it forwards every method unchanged and times
//! `submit`, `run_until` and the six fault methods. Reporting methods
//! (`stats`, probes, reports, `ledger_state`) are forwarded untimed. The
//! benchmark times its own calls into schedule generation, `build_system`,
//! the client loops, the read-out and the final drop with [`Spans::time`].

use std::time::Instant;

use coconut_chains::{BlockchainSystem, StageProbe, StageReport, SubmitOutcome, SystemStats};
use coconut_consensus::{LivenessReport, SafetyReport};
use coconut_simnet::{ByzantineBehaviour, FaultEvent};
use coconut_types::{ClientTx, NodeId, Payload, SimTime, TxOutcome};

/// A layer boundary the benchmark records. The nesting is fixed:
/// `Cell` contains `Schedule`, `Build`, `Client`, `Readout` and
/// `Teardown`; `Client` contains `Submit`, `RunUntil` and `Fault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The whole cell, from its first set-up call to its last check.
    Cell,
    /// Schedule generation (`Timeline::schedule`).
    Schedule,
    /// `params::build_system`, probe arming and preload.
    Build,
    /// The client loop: `chaos::run_chaos_with_schedule` or
    /// `runner::run_one`.
    Client,
    /// `BlockchainSystem::submit` (chain ingress).
    Submit,
    /// `BlockchainSystem::run_until` (blocks, consensus, notification).
    RunUntil,
    /// The six fault methods (crash, recover, network fault, Byzantine,
    /// join, leave).
    Fault,
    /// Reading the finished system out: `stats`, the safety, liveness
    /// and stage reports, `ledger_state` and the workload invariant.
    Readout,
    /// Dropping the built system and the schedule at the end of the cell.
    Teardown,
}

impl Layer {
    /// Every layer, in [`Layer::index`] order.
    pub const ALL: [Layer; 9] = [
        Layer::Cell,
        Layer::Schedule,
        Layer::Build,
        Layer::Client,
        Layer::Submit,
        Layer::RunUntil,
        Layer::Fault,
        Layer::Readout,
        Layer::Teardown,
    ];

    /// Position in [`Layer::ALL`] and in a [`Spans`] array.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// The layer's name in the trace file.
    pub const fn label(self) -> &'static str {
        match self {
            Layer::Cell => "cell",
            Layer::Schedule => "scenario.schedule",
            Layer::Build => "params.build",
            Layer::Client => "client",
            Layer::Submit => "chains.submit",
            Layer::RunUntil => "chains.run_until",
            Layer::Fault => "chains.fault",
            Layer::Readout => "readout",
            Layer::Teardown => "teardown",
        }
    }

    /// The layers directly nested inside this one.
    pub const fn children(self) -> &'static [Layer] {
        match self {
            Layer::Cell => &[
                Layer::Schedule,
                Layer::Build,
                Layer::Client,
                Layer::Readout,
                Layer::Teardown,
            ],
            Layer::Client => &[Layer::Submit, Layer::RunUntil, Layer::Fault],
            _ => &[],
        }
    }
}

/// Calls made across one layer boundary and the wall time they took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Calls recorded.
    pub count: u64,
    /// Total wall time inside those calls, in nanoseconds.
    pub ns: u64,
}

/// One cell's spans, indexed by [`Layer::index`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Spans(pub [Span; 9]);

impl Spans {
    /// The span of `layer`.
    pub fn get(&self, layer: Layer) -> Span {
        self.0[layer.index()]
    }

    /// Records one call of `ns` nanoseconds on `layer`.
    pub fn add(&mut self, layer: Layer, ns: u64) {
        let s = &mut self.0[layer.index()];
        s.count += 1;
        s.ns += ns;
    }

    /// Runs `f`, recording its wall time on `layer`.
    pub fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(layer, elapsed_ns(t));
        r
    }

    /// Adds every span of `other` into this one.
    pub fn merge(&mut self, other: &Spans) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.count += b.count;
            a.ns += b.ns;
        }
    }

    /// The layer's self time: its span minus its direct children's spans.
    /// Negative when the children's clocks overran the parent's, which
    /// [`Spans::self_time_error`] reports.
    pub fn self_ns(&self, layer: Layer) -> i64 {
        let children: u64 = layer.children().iter().map(|&c| self.get(c).ns).sum();
        self.get(layer).ns as i64 - children as i64
    }

    /// How far the layers' self times miss the cell's wall time, as a
    /// share of it: the cell's own residue (time inside the cell that no
    /// child span covers) plus any negative self time. The self times of
    /// all layers sum to the cell span by construction, so this is the
    /// share of the cell the trace leaves unattributed.
    pub fn self_time_error(&self) -> f64 {
        let cell = self.get(Layer::Cell).ns.max(1) as f64;
        let negative: i64 = Layer::ALL
            .iter()
            .map(|&l| self.self_ns(l).min(0))
            .sum::<i64>()
            .abs();
        (self.self_ns(Layer::Cell).max(0) + negative) as f64 / cell
    }
}

/// Nanoseconds since `t`.
pub(crate) fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counts the adapter keeps next to its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngressCounts {
    /// `submit` calls answered `Rejected`.
    pub rejected: u64,
    /// `submit` calls answered `Busy`.
    pub busy: u64,
    /// Outcomes returned by `run_until`.
    pub outcomes: u64,
}

/// A timing adapter around a built system. Passive: every call reaches
/// the inner system with the same arguments in the same order, so a
/// wrapped run is simulated identically to an unwrapped one.
pub struct Traced {
    inner: Box<dyn BlockchainSystem + Send>,
    /// Chain-layer spans recorded so far (`Submit`, `RunUntil`, `Fault`).
    pub spans: Spans,
    /// Ingress answers and outcome counts.
    pub counts: IngressCounts,
}

impl Traced {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn BlockchainSystem + Send>) -> Self {
        Traced {
            inner,
            spans: Spans::default(),
            counts: IngressCounts::default(),
        }
    }

    fn fault<R>(&mut self, f: impl FnOnce(&mut dyn BlockchainSystem) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.spans.add(Layer::Fault, elapsed_ns(t));
        r
    }
}

impl BlockchainSystem for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn node_count(&self) -> u32 {
        self.inner.node_count()
    }

    fn submit(&mut self, now: SimTime, tx: ClientTx) -> SubmitOutcome {
        let t = Instant::now();
        let r = self.inner.submit(now, tx);
        self.spans.add(Layer::Submit, elapsed_ns(t));
        match r {
            SubmitOutcome::Accepted => {}
            SubmitOutcome::Rejected => self.counts.rejected += 1,
            SubmitOutcome::Busy { .. } => self.counts.busy += 1,
        }
        r
    }

    fn run_until(&mut self, deadline: SimTime) -> Vec<TxOutcome> {
        let t = Instant::now();
        let r = self.inner.run_until(deadline);
        self.spans.add(Layer::RunUntil, elapsed_ns(t));
        self.counts.outcomes += r.len() as u64;
        r
    }

    fn stats(&self) -> SystemStats {
        self.inner.stats()
    }

    fn preload(&mut self, payloads: &[Payload]) {
        self.inner.preload(payloads)
    }

    fn ledger_state(&self) -> Option<coconut_iel::LedgerState> {
        self.inner.ledger_state()
    }

    fn is_live(&self) -> bool {
        self.inner.is_live()
    }

    fn crash_node(&mut self, node: NodeId) -> bool {
        self.fault(|s| s.crash_node(node))
    }

    fn recover_node(&mut self, node: NodeId) -> bool {
        self.fault(|s| s.recover_node(node))
    }

    fn apply_net_fault(&mut self, at: SimTime, event: &FaultEvent) -> bool {
        self.fault(|s| s.apply_net_fault(at, event))
    }

    fn inject_byzantine(
        &mut self,
        node: NodeId,
        behaviour: ByzantineBehaviour,
        until: SimTime,
    ) -> bool {
        self.fault(|s| s.inject_byzantine(node, behaviour, until))
    }

    fn join_node(&mut self, now: SimTime, node: NodeId) -> bool {
        self.fault(|s| s.join_node(now, node))
    }

    fn leave_node(&mut self, now: SimTime, node: NodeId) -> bool {
        self.fault(|s| s.leave_node(now, node))
    }

    fn config_epoch(&self) -> u64 {
        self.inner.config_epoch()
    }

    fn safety_report(&self) -> Option<SafetyReport> {
        self.inner.safety_report()
    }

    fn liveness_report(&self) -> Option<LivenessReport> {
        self.inner.liveness_report()
    }

    fn probe(&self) -> Option<&StageProbe> {
        self.inner.probe()
    }

    fn probe_mut(&mut self) -> Option<&mut StageProbe> {
        self.inner.probe_mut()
    }

    fn enable_stage_probes(&mut self) {
        self.inner.enable_stage_probes()
    }

    fn stage_report(&self) -> Option<StageReport> {
        self.inner.stage_report()
    }
}
