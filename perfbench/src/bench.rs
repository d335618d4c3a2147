//! Passes over a workload's cells, the correctness gate, and the metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use coconut::client::build_schedule_for;
use coconut::experiments::{attribute, BottleneckCell, BottleneckResult};
use coconut::json::{parse, Json};
use coconut::params::SystemKind;
use coconut::report::Report;
use coconut::scenario::ScenarioRun;
use coconut::workload::paper;
use coconut_types::SimTime;

use crate::cells::{
    ramp_base_rate, run_cell, slug, table_rows, table_spec, Cell, CellRun, Workload,
    BOTTLENECK_GOLDEN, DEFAULT_SEED, RAMP_PEAK,
};
use crate::floors::{engine_floors, simnet_ns_per_event, EngineFloor};
use crate::trace::{elapsed_ns, Layer, Spans};

/// The share of a traced cell's wall time its layer self times may leave
/// unattributed (the benchmark's own residue inside the cell plus any
/// negative self time). A traced cell beyond it fails the gate.
pub const TRACE_TOLERANCE: f64 = 0.05;

/// Fewest passes a measured run makes, so every reported median has at
/// least three samples.
pub const MIN_PASSES: usize = 3;

/// One pass over every cell of a workload.
#[derive(Debug)]
pub struct Pass {
    /// Whether the systems were wrapped in the timing adapter.
    pub traced: bool,
    /// One entry per cell, in cell order; `Err` holds a panic message.
    pub runs: Vec<Result<CellRun, String>>,
    /// Wall time of the whole pass.
    pub wall_ns: u64,
}

impl Pass {
    /// The cells that ran to completion.
    pub fn ok_runs(&self) -> impl Iterator<Item = &CellRun> {
        self.runs.iter().filter_map(|r| r.as_ref().ok())
    }

    fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    fn confirmed(&self) -> u64 {
        self.ok_runs().map(|r| r.totals.confirmed).sum()
    }

    fn setup_s(&self) -> f64 {
        self.ok_runs().map(|r| r.setup_ns()).sum::<u64>() as f64 / 1e9
    }
}

/// Runs every cell once at workload seed `root`. A panicking cell is
/// caught and recorded as failed; the pass goes on.
pub fn run_pass(cells: &[Cell], root: u64, traced: bool) -> Pass {
    let start = Instant::now();
    let runs = cells
        .iter()
        .map(|cell| {
            catch_unwind(AssertUnwindSafe(|| run_cell(cell, root, traced))).map_err(|e| {
                e.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| e.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic".into())
            })
        })
        .collect();
    Pass {
        traced,
        runs,
        wall_ns: elapsed_ns(start),
    }
}

/// The correctness gate's verdict over every cell run of a benchmark run.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Cell runs attempted (cells × passes).
    pub attempted: u64,
    /// Cell runs that failed the gate.
    pub failed: u64,
    /// One line per failed cell run.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Failed cell runs over attempted ones.
    pub fn fail_ratio(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Applies the gate. A cell run fails when it panicked, when its own
/// checks failed (incomplete delivery accounting, a safety violation
/// within f, more confirmed than scheduled), when its simulated totals
/// differ from the cell's first run in this process (traced or not),
/// when a traced cell's self times miss its wall time by more than
/// [`TRACE_TOLERANCE`], or — on `overload-ramp` at [`DEFAULT_SEED`] —
/// when the pass's campaign output differs from the bottleneck golden.
pub fn judge(workload: Workload, cells: &[Cell], passes: &[Pass], root: u64) -> Verdict {
    let mut v = Verdict::default();
    let reference: Vec<_> = (0..cells.len())
        .map(|i| {
            passes
                .iter()
                .find_map(|p| p.runs[i].as_ref().ok().map(|r| r.totals))
        })
        .collect();
    for (n, pass) in passes.iter().enumerate() {
        let golden = (workload == Workload::OverloadRamp && root == DEFAULT_SEED)
            .then(|| golden_mismatches(cells, pass));
        for (i, cell) in cells.iter().enumerate() {
            v.attempted += 1;
            let why = match &pass.runs[i] {
                Err(msg) => Some(format!("panicked: {msg}")),
                Ok(run) => run
                    .failure
                    .clone()
                    .or_else(|| {
                        (Some(run.totals) != reference[i]).then(|| {
                            format!(
                                "simulated totals {:?} differ from {:?}",
                                run.totals, reference[i]
                            )
                        })
                    })
                    .or_else(|| {
                        let err = run.spans.self_time_error();
                        (pass.traced && err > TRACE_TOLERANCE).then(|| {
                            format!("layer self times miss the cell wall by {:.1}%", err * 100.0)
                        })
                    })
                    .or_else(|| {
                        golden
                            .as_ref()
                            .is_some_and(|g| g[i])
                            .then(|| "differs from the bottleneck golden".to_string())
                    }),
            };
            if let Some(why) = why {
                v.failed += 1;
                let mode = if pass.traced { "traced" } else { "untraced" };
                v.failures
                    .push(format!("pass {n} ({mode}) {}: {why}", cell.label()));
            }
        }
    }
    v
}

/// Per ramp cell, `true` when the pass's campaign output does not match
/// the golden: the cell's JSON object differs from the golden's, or the
/// whole rendered campaign differs byte for byte (then every cell).
fn golden_mismatches(cells: &[Cell], pass: &Pass) -> Vec<bool> {
    let ours: Vec<BottleneckCell> = cells
        .iter()
        .zip(&pass.runs)
        .filter_map(|(cell, run)| {
            Some(bottleneck_cell(
                cell.system(),
                run.as_ref().ok()?.scenario.as_ref()?,
            ))
        })
        .collect();
    if ours.len() != pass.runs.len() {
        return vec![true; pass.runs.len()];
    }
    let per_cell: Vec<bool> = ours
        .iter()
        .enumerate()
        .map(|(i, cell)| golden_cell_differs(i, cell))
        .collect();
    let whole = BottleneckResult { cells: ours }.to_json();
    if whole.trim_end() != BOTTLENECK_GOLDEN.trim_end() && !per_cell.contains(&true) {
        return vec![true; pass.runs.len()];
    }
    per_cell
}

/// `true` when `cell`, rendered as the bottleneck campaign renders it,
/// differs from the golden's cell at `index`.
pub fn golden_cell_differs(index: usize, cell: &BottleneckCell) -> bool {
    let golden = parse(BOTTLENECK_GOLDEN).expect("the bottleneck golden is valid JSON");
    let rendered = BottleneckResult {
        cells: vec![cell.clone()],
    }
    .to_json();
    let ours = parse(&rendered).expect("the campaign renders valid JSON");
    let first = |j: &Json, i: usize| {
        j.get("cells")
            .and_then(Json::as_array)
            .and_then(|c| c.get(i))
            .map(Json::to_pretty)
    };
    first(&ours, 0) != first(&golden, index)
}

/// A ramp cell in the bottleneck campaign's report shape.
pub fn bottleneck_cell(system: SystemKind, sr: &ScenarioRun) -> BottleneckCell {
    let report = sr
        .stage_report
        .clone()
        .expect("ramp cells arm the stage probes");
    // The saturation knee: the bucket where goodput peaked (ties to the
    // earliest).
    let (mut best, mut at) = (0u64, 0usize);
    for (i, &b) in sr.run.buckets.iter().enumerate() {
        if b > best {
            best = b;
            at = i;
        }
    }
    let base_rate = ramp_base_rate(system);
    BottleneckCell {
        system,
        base_rate,
        offered_peak: base_rate * RAMP_PEAK,
        knee_mtps: best as f64 / sr.run.bucket_len.as_secs_f64(),
        knee_at: SimTime::ZERO + sr.run.bucket_len * at as u64,
        verdict: attribute(&report),
        report,
        stats: sr.stats,
        run: sr.run.clone(),
    }
}

fn is_corda(kind: SystemKind) -> bool {
    matches!(kind, SystemKind::CordaOs | SystemKind::CordaEnterprise)
}

/// The median of `values` (the mean of the middle two for an even count);
/// 0 when empty.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`s`, `tx/s`, `MiB`, `ns`, `count`, ...).
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics: medians over the untraced passes, plus the
/// process's peak resident set. `max_cell_s` is the largest per-cell
/// median, which one pass's noise on one cell cannot set.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let med = |f: &dyn Fn(&Pass) -> f64| median(untraced.iter().map(|p| f(p)).collect());
    let cells = untraced.first().map_or(0, |p| p.runs.len());
    let max_cell_s = (0..cells)
        .map(|i| {
            median(
                untraced
                    .iter()
                    .filter_map(|p| p.runs[i].as_ref().ok())
                    .map(|r| r.wall_ns() as f64 / 1e9)
                    .collect(),
            )
        })
        .fold(0.0, f64::max);
    vec![
        metric("wall_s", med(&|p| p.wall_s()), "s"),
        metric(
            "sim_tx_per_s",
            med(&|p| p.confirmed() as f64 / p.wall_s()),
            "tx/s",
        ),
        metric("max_cell_s", max_cell_s, "s"),
        metric("setup_s", med(&|p| p.setup_s()), "s"),
        metric("peak_rss_mb", peak_rss_mib(), "MiB"),
    ]
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where `/proc`
/// does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Schedule generation of the `paper-steady` cells, measured on its own:
/// `run_one` builds each schedule inside the client loop, where its time
/// falls into `client.self_s`. Returns `(ns, scheduled tx)`.
fn paper_schedule_probe(root: u64) -> (u64, u64) {
    let mut ns = 0;
    let mut txs = 0;
    for row in table_rows() {
        let (template, seeds) = table_spec(row, root);
        for (i, benchmark) in row.unit.benchmarks().enumerate() {
            let t = Instant::now();
            let s = build_schedule_for(
                &paper(benchmark),
                template.rate,
                template.ops_per_tx,
                template.windows,
                seeds.seed("schedule", i as u64),
            );
            ns += elapsed_ns(t);
            txs += s.len() as u64;
        }
    }
    (ns, txs)
}

/// What a traced run measured besides its passes.
#[derive(Debug, Clone, Default)]
pub struct Floors {
    /// Consensus engines run directly.
    pub engines: Vec<EngineFloor>,
    /// `NetSim` send + pop per message.
    pub simnet_ns_per_event: f64,
    /// Standalone schedule generation `(ns, tx)` per pass, for workloads
    /// whose client loop builds its own schedule.
    pub paper_schedule: Option<(u64, u64)>,
}

/// Runs the floors: every engine, then the network simulator at the
/// workload's per-pass consensus message volume.
pub fn measure_floors(workload: Workload, traced: &[&Pass], root: u64) -> Floors {
    let msgs = traced.first().map_or(0, |p| {
        p.ok_runs().map(|r| r.totals.engine_msgs).sum::<u64>()
    });
    Floors {
        engines: engine_floors(root),
        simnet_ns_per_event: simnet_ns_per_event(msgs, root),
        paper_schedule: (workload == Workload::PaperSteady).then(|| paper_schedule_probe(root)),
    }
}

/// The per-layer metrics of a traced run: per-pass means over the traced
/// passes, the floors, and the tracing overhead against the untraced
/// passes of the same run.
pub fn per_layer(cells: &[Cell], passes: &[Pass], floors: &Floors) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced_wall = median(
        passes
            .iter()
            .filter(|p| !p.traced)
            .map(Pass::wall_s)
            .collect(),
    );
    let traced_wall = median(traced.iter().map(|p| p.wall_s()).collect());
    let n = traced.len().max(1) as f64;

    // Sum every traced cell run's spans, counts and totals; per-system
    // sums too.
    let mut all = Spans::default();
    let mut by_system: Vec<(SystemKind, Spans, u64)> = SystemKind::ALL
        .into_iter()
        .map(|k| (k, Spans::default(), 0))
        .collect();
    let (mut rejected, mut busy, mut outcomes) = (0u64, 0u64, 0u64);
    let (mut scheduled, mut confirmed, mut sends, mut msgs, mut view_changes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut worst_error: f64 = 0.0;
    for pass in &traced {
        for (cell, run) in cells.iter().zip(&pass.runs) {
            let Ok(run) = run else { continue };
            all.merge(&run.spans);
            let entry = by_system
                .iter_mut()
                .find(|e| e.0 == cell.system())
                .expect("every system has an entry");
            entry.1.merge(&run.spans);
            entry.2 += run.totals.engine_msgs;
            rejected += run.counts.rejected;
            busy += run.counts.busy;
            outcomes += run.counts.outcomes;
            scheduled += run.totals.scheduled;
            confirmed += run.totals.confirmed;
            sends += run.sends();
            msgs += run.totals.engine_msgs;
            view_changes += run.totals.view_changes;
            worst_error = worst_error.max(run.spans.self_time_error());
        }
    }
    let per_pass_s = |ns: f64| ns / n / 1e9;
    let span_s = |l: Layer| per_pass_s(all.get(l).ns as f64);
    let calls = |l: Layer| all.get(l).count as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let client_self_ns = all.self_ns(Layer::Client) as f64;
    let submits = all.get(Layer::Submit).count as f64;

    let (schedule_s, schedule_tx) = match floors.paper_schedule {
        Some((ns, tx)) => (ns as f64 / 1e9, tx as f64),
        None => (span_s(Layer::Schedule), scheduled as f64 / n),
    };
    let mut m = vec![
        metric("scenario.schedule_s", schedule_s, "s"),
        metric("scenario.schedule_tx", schedule_tx, "count"),
        metric("params.build_s", span_s(Layer::Build), "s"),
        metric("client.self_s", per_pass_s(client_self_ns), "s"),
        metric(
            "client.ns_per_tx",
            ratio(client_self_ns, scheduled as f64),
            "ns",
        ),
        metric("client.ns_per_submit", ratio(client_self_ns, submits), "ns"),
        metric(
            "client.retry_amplification",
            ratio(sends as f64, scheduled as f64),
            "ratio",
        ),
        metric("chains.submit_s", span_s(Layer::Submit), "s"),
        metric("chains.submit_calls", calls(Layer::Submit), "count"),
        metric(
            "chains.refused_ratio",
            ratio((rejected + busy) as f64, submits),
            "share",
        ),
        metric("chains.run_until_s", span_s(Layer::RunUntil), "s"),
        metric("chains.run_until_calls", calls(Layer::RunUntil), "count"),
        metric("chains.outcomes", outcomes as f64 / n, "count"),
        metric("chains.fault_calls", calls(Layer::Fault), "count"),
        metric(
            "chains.fault_share",
            ratio(
                all.get(Layer::Fault).ns as f64,
                all.get(Layer::Cell).ns as f64,
            ),
            "share",
        ),
        metric("consensus.msgs", msgs as f64 / n, "count"),
        metric(
            "consensus.msgs_per_confirmed",
            ratio(msgs as f64, confirmed as f64),
            "ratio",
        ),
        metric("consensus.view_changes", view_changes as f64 / n, "count"),
    ];
    for (kind, spans, _) in &by_system {
        let s = spans.get(Layer::Submit);
        m.push(metric(
            format!("chains.submit_ns.{}", slug(*kind)),
            ratio(s.ns as f64, s.count as f64),
            "ns",
        ));
    }
    // The Cordas finalize through point-to-point notary flows and send no
    // consensus messages, so they have no per-message figure.
    for (kind, spans, sys_msgs) in by_system.iter().filter(|e| !is_corda(e.0)) {
        m.push(metric(
            format!("chains.ns_per_engine_msg.{}", slug(*kind)),
            ratio(spans.get(Layer::RunUntil).ns as f64, *sys_msgs as f64),
            "ns",
        ));
    }
    for f in &floors.engines {
        let prefix = format!("consensus.{}.n{}", f.engine, f.nodes);
        m.push(metric(format!("{prefix}.ns_per_msg"), f.ns_per_msg, "ns"));
        m.push(metric(
            format!("{prefix}.msgs_per_cmd"),
            f.msgs_per_cmd,
            "ratio",
        ));
    }
    m.push(metric(
        "simnet.ns_per_event",
        floors.simnet_ns_per_event,
        "ns",
    ));
    for (kind, spans, _) in &by_system {
        m.push(metric(
            format!("cell_s.{}", slug(*kind)),
            per_pass_s(spans.get(Layer::Cell).ns as f64),
            "s",
        ));
    }
    m.push(metric("readout_s", span_s(Layer::Readout), "s"));
    m.push(metric("teardown_s", span_s(Layer::Teardown), "s"));
    m.push(metric(
        "bench.self_s",
        per_pass_s(all.self_ns(Layer::Cell) as f64),
        "s",
    ));
    m.push(metric("trace.overhead_s", traced_wall - untraced_wall, "s"));
    m.push(metric("trace.self_time_error", worst_error, "share"));
    m
}
