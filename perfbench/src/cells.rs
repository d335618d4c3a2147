//! The benchmark's workloads and their cells.
//!
//! Every cell is rebuilt here from the simulator's public entry points so
//! the benchmark can time set-up apart from the run and wrap the built
//! system in the [`Traced`] adapter:
//!
//! * `paper-steady` — the reduced Tables 7–20 grid through the paper
//!   client loop, as `experiments::tables` runs it (`unit_seed`,
//!   `SeedDeriver::for_repetition`, `build_system`, `run_one`).
//! * `overload-ramp` — the bottleneck campaign's seven ramp cells, as
//!   `experiments::bottleneck` runs them (`bottleneck_cell_seed`,
//!   `tight_limits`, `ScenarioBuilder`, `run_chaos_with_schedule`).
//! * `fault-recovery` — one `ScenarioBuilder` timeline per (system, fault
//!   kind) at the smallest paper rate limiter.

use std::time::Instant;

use coconut::chaos::{run_chaos_with_schedule, ClientProtection, RetryPolicy};
use coconut::client::Windows;
use coconut::exec::{bottleneck_cell_seed, unit_seed};
use coconut::experiments::{byzantine_domain, fault_domain, tight_limits};
use coconut::params::{build_system, BlockParam, SystemKind, SystemSetup};
use coconut::runner::{run_one, BenchmarkSpec};
use coconut::scenario::{ScenarioBuilder, ScenarioRun, Timeline};
use coconut::workload::BenchmarkUnit;
use coconut_chains::BlockchainSystem;
use coconut_types::{NodeId, PayloadKind, SeedDeriver, SimDuration, SimTime};

use crate::trace::{elapsed_ns, IngressCounts, Layer, Spans, Traced};

/// The default workload seed: the seed of the repository's campaign
/// goldens (0xC0C0).
pub const DEFAULT_SEED: u64 = 0xC0C0;

/// The bottleneck campaign's golden file, which every `overload-ramp`
/// pass, traced or not, must match byte for byte at [`DEFAULT_SEED`].
pub(crate) const BOTTLENECK_GOLDEN: &str =
    include_str!("../../tests/golden/bottleneck_scale002_seed_c0c0.json");

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's reduced Tables 7–20 grid through `runner::run_one`.
    PaperSteady,
    /// The bottleneck campaign's ramp to 32× base under tight pools.
    OverloadRamp,
    /// Crash, partition, slow node, join/leave and Byzantine timelines.
    FaultRecovery,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperSteady,
        Workload::OverloadRamp,
        Workload::FaultRecovery,
    ];

    /// The workload's command-line name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::PaperSteady => "paper-steady",
            Workload::OverloadRamp => "overload-ramp",
            Workload::FaultRecovery => "fault-recovery",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The window scale relative to the paper's 300 s send window.
    pub const fn scale(self) -> f64 {
        match self {
            Workload::PaperSteady | Workload::FaultRecovery => 0.1,
            Workload::OverloadRamp => RAMP_SCALE,
        }
    }

    /// The workload's cells, in run order.
    pub fn cells(self) -> Vec<Cell> {
        match self {
            Workload::PaperSteady => table_rows().into_iter().map(Cell::Table).collect(),
            Workload::OverloadRamp => SystemKind::ALL.into_iter().map(Cell::Ramp).collect(),
            Workload::FaultRecovery => SystemKind::ALL
                .into_iter()
                .flat_map(|k| {
                    FaultCase::ALL
                        .into_iter()
                        .filter(move |c| c.applies_to(k))
                        .map(move |c| Cell::Fault(k, c))
                })
                .collect(),
        }
    }
}

/// The bottleneck golden's window scale (10 s send window).
const RAMP_SCALE: f64 = 0.02;

/// The ramp's end load relative to its base (the bottleneck campaign's
/// `PEAK_MULTIPLIER`).
pub(crate) const RAMP_PEAK: f64 = 32.0;

/// The ramp's base rate: ¼ of the system's reference rate, the paper's
/// largest rate limiter.
pub(crate) fn ramp_base_rate(kind: SystemKind) -> f64 {
    let reference = *kind
        .rate_limiters()
        .last()
        .expect("every system has rate limiters");
    reference * 0.25
}

/// One row of the paper's reduced Tables 7–20 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableRow {
    /// System under test.
    pub system: SystemKind,
    /// The benchmark unit the row's benchmark runs inside.
    pub unit: BenchmarkUnit,
    /// The benchmark the table reports.
    pub pick: PayloadKind,
    /// Aggregate rate limiter (tx/s).
    pub rate: f64,
    /// Block parameter.
    pub param: BlockParam,
    /// Operations per transaction (BitShares) / batch (Sawtooth).
    pub ops: u32,
}

/// The rows of `experiments::tables` (Tables 7+8 through 19+20), in
/// table order.
pub(crate) fn table_rows() -> Vec<TableRow> {
    let row = |system, unit, pick, rate, param, ops| TableRow {
        system,
        unit,
        pick,
        rate,
        param,
        ops,
    };
    let secs = SimDuration::from_secs;
    let mut rows = Vec::new();
    for system in [SystemKind::CordaOs, SystemKind::CordaEnterprise] {
        for rate in [20.0, 160.0] {
            rows.push(row(
                system,
                BenchmarkUnit::KeyValue,
                PayloadKind::KeyValueSet,
                rate,
                BlockParam::None,
                1,
            ));
        }
    }
    rows.push(row(
        SystemKind::Bitshares,
        BenchmarkUnit::DoNothing,
        PayloadKind::DoNothing,
        1600.0,
        BlockParam::BlockInterval(secs(1)),
        100,
    ));
    for rate in [800.0, 1600.0] {
        rows.push(row(
            SystemKind::Fabric,
            BenchmarkUnit::BankingApp,
            PayloadKind::SendPayment,
            rate,
            BlockParam::MaxMessageCount(100),
            1,
        ));
    }
    for bp in [2, 5] {
        rows.push(row(
            SystemKind::Quorum,
            BenchmarkUnit::BankingApp,
            PayloadKind::Balance,
            400.0,
            BlockParam::BlockPeriod(secs(bp)),
            1,
        ));
    }
    for (rate, pd) in [(200.0, 1), (1600.0, 1), (200.0, 10), (1600.0, 10)] {
        rows.push(row(
            SystemKind::Sawtooth,
            BenchmarkUnit::BankingApp,
            PayloadKind::CreateAccount,
            rate,
            BlockParam::PublishingDelay(secs(pd)),
            100,
        ));
    }
    for (rate, bs) in [(200.0, 100), (1600.0, 100), (200.0, 2000), (1600.0, 2000)] {
        rows.push(row(
            SystemKind::Diem,
            BenchmarkUnit::KeyValue,
            PayloadKind::KeyValueGet,
            rate,
            BlockParam::MaxBlockSize(bs),
            1,
        ));
    }
    rows
}

/// The fault of one `fault-recovery` cell. Every fault starts at ¼ of the
/// send window; the windowed ones end at ½.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultCase {
    /// Crash `fault_domain(k).f_tolerant` nodes, heal them at ½.
    CrashHeal,
    /// Partition node 0 from the rest until ½.
    Partition,
    /// Node 0 runs 10× slow until ½.
    Slow,
    /// The standby node joins at ¼; the last baseline node leaves at ½.
    JoinLeave,
    /// f validators equivocate and double-vote until ½ (BFT systems only).
    Byzantine,
}

impl FaultCase {
    /// Every case, in cell order.
    pub const ALL: [FaultCase; 5] = [
        FaultCase::CrashHeal,
        FaultCase::Partition,
        FaultCase::Slow,
        FaultCase::JoinLeave,
        FaultCase::Byzantine,
    ];

    /// The case's label; also its seed scope.
    pub const fn label(self) -> &'static str {
        match self {
            FaultCase::CrashHeal => "crash-heal",
            FaultCase::Partition => "partition",
            FaultCase::Slow => "slow",
            FaultCase::JoinLeave => "join-leave",
            FaultCase::Byzantine => "byzantine",
        }
    }

    /// `false` for Byzantine faults on crash-fault-tolerant systems.
    pub fn applies_to(self, kind: SystemKind) -> bool {
        self != FaultCase::Byzantine || byzantine_domain(kind).is_some()
    }
}

/// One unit of work of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A paper table row.
    Table(TableRow),
    /// A bottleneck ramp cell.
    Ramp(SystemKind),
    /// A fault-recovery timeline.
    Fault(SystemKind, FaultCase),
}

impl Cell {
    /// The system the cell runs.
    pub fn system(&self) -> SystemKind {
        match *self {
            Cell::Table(r) => r.system,
            Cell::Ramp(k) | Cell::Fault(k, _) => k,
        }
    }

    /// A human label, unique within the workload.
    pub fn label(&self) -> String {
        match self {
            Cell::Table(r) => format!(
                "{} {} rl={} {} ops={}",
                r.system.label(),
                r.pick.label(),
                r.rate,
                r.param,
                r.ops
            ),
            Cell::Ramp(k) => format!("{} ramp", k.label()),
            Cell::Fault(k, c) => format!("{} {}", k.label(), c.label()),
        }
    }
}

/// The system's label as a metric-name component.
pub(crate) const fn slug(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::CordaOs => "corda-os",
        SystemKind::CordaEnterprise => "corda-enterprise",
        SystemKind::Bitshares => "bitshares",
        SystemKind::Fabric => "fabric",
        SystemKind::Quorum => "quorum",
        SystemKind::Sawtooth => "sawtooth",
        SystemKind::Diem => "diem",
    }
}

/// A cell's simulated totals. A pure function of (cell, seed): every run
/// of the cell, traced or not, must reproduce them exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Transactions scheduled (payloads on `paper-steady`, the paper's
    /// transaction unit).
    pub scheduled: u64,
    /// Transactions confirmed (payloads on `paper-steady`).
    pub confirmed: u64,
    /// Client re-sends.
    pub retries: u64,
    /// Blocks (or finality rounds) produced.
    pub blocks: u64,
    /// Consensus messages sent.
    pub engine_msgs: u64,
    /// View, round or term changes (missed slots for DPoS).
    pub view_changes: u64,
}

/// What one run of one cell produced.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The simulated totals.
    pub totals: Totals,
    /// Wall-time spans. `Cell`, `Schedule`, `Build`, `Client` and
    /// `Teardown` are always recorded (a handful of clock reads per cell);
    /// the chain spans only when the system was wrapped in [`Traced`].
    pub spans: Spans,
    /// Ingress answers and outcomes seen by the adapter (traced runs).
    pub counts: IngressCounts,
    /// Why the cell failed its correctness gate, if it did.
    pub failure: Option<String>,
    /// A scenario cell's run, as `Timeline::run` returns it.
    pub scenario: Option<ScenarioRun>,
    /// `(received, expected)` payloads of a table row's reported
    /// benchmark, as the paper's table prints them.
    pub row: Option<(f64, f64)>,
}

impl CellRun {
    /// Set-up time: schedule generation plus building, probe arming and
    /// preloading the system.
    pub fn setup_ns(&self) -> u64 {
        self.spans.get(Layer::Schedule).ns + self.spans.get(Layer::Build).ns
    }

    /// The cell's wall time.
    pub fn wall_ns(&self) -> u64 {
        self.spans.get(Layer::Cell).ns
    }

    /// Sends the client made (first sends plus retries).
    pub fn sends(&self) -> u64 {
        self.totals.scheduled + self.totals.retries
    }
}

/// The system as built for one run, optionally wrapped in the adapter.
enum Built {
    Plain(Box<dyn BlockchainSystem + Send>),
    Traced(Traced),
}

impl Built {
    fn new(sys: Box<dyn BlockchainSystem + Send>, traced: bool) -> Self {
        if traced {
            Built::Traced(Traced::new(sys))
        } else {
            Built::Plain(sys)
        }
    }

    fn sys(&mut self) -> &mut (dyn BlockchainSystem + Send) {
        match self {
            Built::Plain(s) => s.as_mut(),
            Built::Traced(t) => t,
        }
    }

    /// Folds the adapter's chain spans and counts into the cell's, then
    /// drops the system (and `schedule`) under the `Teardown` span.
    fn finish<T>(self, schedule: T, spans: &mut Spans, counts: &mut IngressCounts) {
        if let Built::Traced(t) = &self {
            spans.merge(&t.spans);
            *counts = t.counts;
        }
        spans.time(Layer::Teardown, || drop((self, schedule)));
    }
}

/// Runs one cell at workload seed `root`. `traced` wraps the built system
/// in the [`Traced`] adapter; the simulated totals must not change.
pub fn run_cell(cell: &Cell, root: u64, traced: bool) -> CellRun {
    let start = Instant::now();
    let mut run = match *cell {
        Cell::Table(row) => run_table(row, root, traced),
        Cell::Ramp(kind) => run_scenario(kind, ramp_plan(kind, root), traced),
        Cell::Fault(kind, case) => run_scenario(kind, fault_plan(kind, case, root), traced),
    };
    run.spans.add(Layer::Cell, elapsed_ns(start));
    run
}

/// A table row's unit template and its repetition-0 seeds, as
/// `experiments::tables` derives them.
pub(crate) fn table_spec(row: TableRow, root: u64) -> (BenchmarkSpec, SeedDeriver) {
    let template = BenchmarkSpec::new(row.system, row.pick)
        .setup(SystemSetup::with_block_param(row.param))
        .rate(row.rate)
        .ops_per_tx(row.ops)
        .windows(Windows::scaled(Workload::PaperSteady.scale()))
        .repetitions(1);
    let seeds = SeedDeriver::new(unit_seed(root, "table", row.unit, &template)).for_repetition(0);
    (template, seeds)
}

/// A table row, as `experiments::tables` runs it with one repetition: the
/// unit's benchmarks back to back on one deployment, each through
/// `runner::run_one`.
fn run_table(row: TableRow, root: u64, traced: bool) -> CellRun {
    let (template, seeds) = table_spec(row, root);
    // The paper's client lifecycle between the unit's benchmarks.
    let windows = template.windows;
    let term = windows.listen + (windows.listen - windows.send) * 3;

    let mut spans = Spans::default();
    let mut built = spans.time(Layer::Build, || {
        Built::new(
            build_system(row.system, &template.setup, seeds.seed("system", 0)),
            traced,
        )
    });
    let mut totals = Totals::default();
    let mut picked = None;
    let mut base = SimTime::ZERO;
    for (i, benchmark) in row.unit.benchmarks().enumerate() {
        let spec = BenchmarkSpec {
            benchmark,
            ..template.clone()
        };
        let m = spans.time(Layer::Client, || {
            run_one(
                built.sys(),
                &spec,
                base,
                i as u64 + 1,
                seeds.seed("schedule", i as u64),
            )
        });
        totals.scheduled += m.expected as u64;
        totals.confirmed += m.received as u64;
        if benchmark == row.pick {
            picked = Some((m.received, m.expected));
        }
        base += term;
    }
    let failure = spans.time(Layer::Readout, || {
        let sys = built.sys();
        fill_system_totals(sys, &mut totals);
        if totals.confirmed > totals.scheduled {
            Some(format!(
                "confirmed {} > scheduled {} payloads",
                totals.confirmed, totals.scheduled
            ))
        } else {
            unsafe_report(sys)
        }
    });
    let mut counts = IngressCounts::default();
    built.finish((), &mut spans, &mut counts);
    CellRun {
        totals,
        spans,
        counts,
        failure,
        scenario: None,
        row: picked,
    }
}

/// Everything `Timeline::run` needs, kept outside the timeline so the
/// benchmark can replay it step by step. `setup`, `policy`, `payload` and
/// `probes` must be the values the timeline was built with.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// The compiled timeline (declaring no checks).
    pub timeline: Timeline,
    /// The payload kind the timeline was built with.
    pub payload: PayloadKind,
    /// The deployment the timeline was built with.
    pub setup: SystemSetup,
    /// The retry policy the timeline was built with (client protection
    /// stays disabled).
    pub policy: RetryPolicy,
    /// Whether the timeline armed stage probes.
    pub probes: bool,
    /// The cell seed.
    pub seed: u64,
}

/// The chaos campaign's payload mapping: a write workload for the Cordas
/// (exercising flows and the notary), DoNothing elsewhere.
fn payload(kind: SystemKind) -> PayloadKind {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => PayloadKind::KeyValueSet,
        _ => PayloadKind::DoNothing,
    }
}

/// The bottleneck campaign's cell: base load at ¼ of the reference rate
/// (the paper's largest rate limiter), ramping from 2 s to 32× base at the
/// end of the send window, tight pools, probes armed.
pub fn ramp_plan(kind: SystemKind, root: u64) -> ScenarioPlan {
    let send_secs = ((100.0 * RAMP_SCALE).round() as u64).max(10);
    let windows = Windows {
        send: SimDuration::from_secs(send_secs),
        listen: SimDuration::from_secs(send_secs + 8),
    };
    let setup = SystemSetup::default().with_admission(tight_limits(kind));
    let policy = RetryPolicy::chaos_default();
    let timeline = ScenarioBuilder::new(payload(kind), ramp_base_rate(kind), windows)
        .setup(setup.clone())
        .policy(policy)
        .probes(true)
        .at(SimTime::from_secs(2))
        .ramp_load(RAMP_PEAK, SimTime::ZERO + windows.send)
        .build();
    ScenarioPlan {
        timeline,
        payload: payload(kind),
        setup,
        policy,
        probes: true,
        seed: bottleneck_cell_seed(root, kind),
    }
}

/// A fault-recovery cell: the smallest paper rate limiter, a 30 s send
/// window with the chaos campaigns' 8 s listen margin, one standby node,
/// the retry client, and one fault over `[send/4, send/2)`.
pub fn fault_plan(kind: SystemKind, case: FaultCase, root: u64) -> ScenarioPlan {
    let send = SimDuration::from_secs_f64(300.0 * Workload::FaultRecovery.scale());
    let windows = Windows {
        send,
        listen: send + SimDuration::from_secs(8),
    };
    let q1 = SimTime::ZERO + send / 4;
    let mid = SimTime::ZERO + send / 2;
    let setup = SystemSetup::default().with_standby(1);
    let policy = RetryPolicy::chaos_default();
    let domain = fault_domain(kind);
    let first = |n: u32| (0..n).map(NodeId).collect::<Vec<_>>();
    let at = ScenarioBuilder::new(payload(kind), kind.rate_limiters()[0], windows)
        .setup(setup.clone())
        .policy(policy)
        .at(q1);
    let timeline = match case {
        FaultCase::CrashHeal => at.crash_until(&first(domain.f_tolerant), mid),
        FaultCase::Partition => at.partition(&[NodeId(0)], mid),
        FaultCase::Slow => at.slow_node(NodeId(0), 10.0, mid),
        FaultCase::JoinLeave => at
            .join(NodeId(domain.total))
            .at(mid)
            .leave(NodeId(domain.total - 1)),
        FaultCase::Byzantine => {
            let d = byzantine_domain(kind).expect("Byzantine cells run on BFT systems only");
            at.byzantine(&first(d.f_tolerant), mid)
        }
    }
    .build();
    ScenarioPlan {
        timeline,
        payload: payload(kind),
        setup,
        policy,
        probes: false,
        seed: SeedDeriver::new(root).seed_parts(&["perfbench-fault", kind.label(), case.label()]),
    }
}

/// `Timeline::run`, step by step: schedule, build (+ probes, preload),
/// the chaos client with no client-side protection, then the same
/// read-out (`stats`, epochs, stage report, workload invariant). The plan
/// declares no checks, so the run's check list stays empty.
pub fn run_scenario(kind: SystemKind, plan: ScenarioPlan, traced: bool) -> CellRun {
    let ScenarioPlan {
        timeline,
        payload,
        setup,
        policy,
        probes,
        seed,
    } = plan;
    let mut spans = Spans::default();
    let schedule = spans.time(Layer::Schedule, || timeline.schedule(seed));
    let mut built = spans.time(Layer::Build, || {
        let mut sys = build_system(kind, &setup, seed);
        if probes {
            sys.enable_stage_probes();
        }
        let preload = timeline.workload().preload();
        if !preload.is_empty() {
            sys.preload(&preload);
        }
        Built::new(sys, traced)
    });
    let spec = BenchmarkSpec::new(kind, payload)
        .rate(timeline.rate())
        .windows(timeline.windows())
        .repetitions(1);
    let run = spans.time(Layer::Client, || {
        run_chaos_with_schedule(
            built.sys(),
            &spec,
            timeline.plan(),
            &policy,
            &ClientProtection::disabled(),
            &schedule,
            seed,
        )
    });
    let a = run.accounting;
    let mut totals = Totals {
        scheduled: a.scheduled,
        confirmed: a.confirmed,
        retries: a.retries,
        ..Totals::default()
    };
    let (failure, scenario) = spans.time(Layer::Readout, || {
        let sys = built.sys();
        fill_system_totals(sys, &mut totals);
        let verified = sys.ledger_state().map(|l| timeline.workload().verify(&l));
        let failure = if !a.is_complete() {
            Some(format!("delivery accounting incomplete: {a:?}"))
        } else if let Some(Err(e)) = &verified {
            Some(format!("workload invariant: {e}"))
        } else {
            unsafe_report(sys)
        };
        let scenario = ScenarioRun {
            stats: sys.stats(),
            epochs: sys.config_epoch(),
            checks: Vec::new(),
            stage_report: if probes { sys.stage_report() } else { None },
            verified,
            run,
        };
        (failure, scenario)
    });
    let mut counts = IngressCounts::default();
    built.finish(schedule, &mut spans, &mut counts);
    CellRun {
        totals,
        spans,
        counts,
        failure,
        scenario: Some(scenario),
        row: None,
    }
}

/// Blocks, engine messages and view changes, read through `stats()` and
/// `liveness_report()`.
fn fill_system_totals(sys: &dyn BlockchainSystem, totals: &mut Totals) {
    let stats = sys.stats();
    totals.blocks = stats.blocks;
    totals.engine_msgs = stats.consensus_messages;
    totals.view_changes = sys.liveness_report().map_or(0, |l| l.view_changes);
}

/// A failure message when the safety monitor saw a violation. Every cell
/// of the benchmark stays within f, so any violation fails the cell.
fn unsafe_report(sys: &dyn BlockchainSystem) -> Option<String> {
    sys.safety_report()
        .filter(|r| !r.violations.is_clean())
        .map(|r| format!("safety violations within f: {:?}", r.violations))
}
