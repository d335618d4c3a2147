//! The benchmark's own checks: the timing adapter is passive, metric names
//! are well formed and match `BENCHMARK.json`, and a non-default seed
//! changes the inputs while every check but the golden still passes.

use coconut::chaos::RetryPolicy;
use coconut::client::Windows;
use coconut::json::{parse, Json};
use coconut::params::{BlockParam, SystemKind, SystemSetup};
use coconut::scenario::ScenarioBuilder;
use coconut::workload::{BenchmarkUnit, ContentionKnobs, Smallbank};
use coconut_perfbench::bench::{
    bottleneck_cell, end_to_end, golden_cell_differs, judge, per_layer, run_pass, Floors,
};
use coconut_perfbench::cells::{
    fault_plan, ramp_plan, run_cell, run_scenario, Cell, FaultCase, ScenarioPlan, TableRow,
    Workload, DEFAULT_SEED,
};
use coconut_perfbench::floors::engine_floors;
use coconut_perfbench::trace::Layer;
use coconut_types::{NodeId, PayloadKind, SimDuration, SimTime};

/// A timeline exercising preload (Smallbank accounts), a Byzantine
/// window, a join and a leave, with stage probes armed.
fn busy_plan(seed: u64) -> ScenarioPlan {
    let windows = Windows {
        send: SimDuration::from_secs(8),
        listen: SimDuration::from_secs(14),
    };
    let setup = SystemSetup::default().with_standby(1);
    let policy = RetryPolicy::chaos_default();
    let timeline = ScenarioBuilder::new(PayloadKind::SendPayment, 100.0, windows)
        .workload(Smallbank::new(ContentionKnobs::default()))
        .setup(setup.clone())
        .policy(policy)
        .probes(true)
        .at(SimTime::from_secs(2))
        .byzantine(&[NodeId(0)], SimTime::from_secs(4))
        .at(SimTime::from_secs(3))
        .join(NodeId(4))
        .at(SimTime::from_secs(5))
        .leave(NodeId(3))
        .build();
    ScenarioPlan {
        timeline,
        payload: PayloadKind::SendPayment,
        setup,
        policy,
        probes: true,
        seed,
    }
}

#[test]
fn wrapped_cell_equals_unwrapped_cell_and_timeline_run() {
    let kind = SystemKind::Quorum;
    let plan = busy_plan(11);
    assert!(!plan.timeline.workload().preload().is_empty());
    let plain = run_scenario(kind, plan.clone(), false);
    let traced = run_scenario(kind, plan.clone(), true);
    let reference = plan.timeline.run(kind, plan.seed);

    assert_eq!(plain.failure, None);
    assert_eq!(plain.totals, traced.totals);
    for sr in [&plain, &traced].map(|r| r.scenario.as_ref().expect("scenario cell")) {
        assert_eq!(sr.run.accounting, reference.run.accounting);
        assert_eq!(sr.run.buckets, reference.run.buckets);
        assert_eq!(sr.run.mfls.to_bits(), reference.run.mfls.to_bits());
        assert_eq!(sr.run.p99.to_bits(), reference.run.p99.to_bits());
        assert_eq!(sr.run.safety, reference.run.safety);
        assert_eq!(sr.stats, reference.stats);
        assert_eq!(sr.epochs, reference.epochs);
        assert_eq!(sr.verified, reference.verified);
        assert_eq!(
            format!("{:?}", sr.stage_report),
            format!("{:?}", reference.stage_report)
        );
    }
    assert!(reference.epochs >= 2, "join and leave both reconfigure");
    assert!(reference.stage_report.is_some());

    // Only the traced run records chain spans; the fault span saw the
    // Byzantine flag, the join and the leave.
    for l in [Layer::Submit, Layer::RunUntil, Layer::Fault] {
        assert_eq!(plain.spans.get(l).count, 0, "{l:?}");
    }
    assert!(traced.spans.get(Layer::Submit).count >= traced.totals.scheduled);
    assert!(traced.spans.get(Layer::RunUntil).count > 0);
    assert!(traced.spans.get(Layer::Fault).count >= 3);
    assert!(
        traced.spans.self_ns(Layer::Client) >= 0,
        "chain spans nest inside the client span"
    );
}

fn declared_names(section: &str) -> Vec<String> {
    let manifest = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    manifest
        .get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

#[test]
fn metric_names_are_well_formed_and_declared() {
    // A small but complete traced pair: one cell per system.
    let cells: Vec<Cell> = SystemKind::ALL
        .into_iter()
        .map(|k| Cell::Fault(k, FaultCase::Partition))
        .collect();
    let passes = vec![run_pass(&cells, 3, false), run_pass(&cells, 3, true)];
    let floors = Floors {
        engines: engine_floors(3),
        simnet_ns_per_event: 1.0,
        paper_schedule: None,
    };
    for (section, metrics) in [
        ("end_to_end", end_to_end(&passes)),
        ("per_layer", per_layer(&cells, &passes, &floors)),
    ] {
        let names: Vec<String> = metrics.iter().map(|m| m.name.clone()).collect();
        for n in &names {
            assert!(well_formed(n), "bad metric name {n:?}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate names in {section}");
        assert_eq!(
            names,
            declared_names(section),
            "{section} differs from BENCHMARK.json"
        );
        for m in &metrics {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
        }
    }
}

#[test]
fn non_default_seed_changes_schedules_but_passes_every_other_check() {
    let other = 7;
    for kind in [SystemKind::CordaOs, SystemKind::Fabric] {
        let a = ramp_plan(kind, DEFAULT_SEED);
        let b = ramp_plan(kind, other);
        let (sa, sb) = (a.timeline.schedule(a.seed), b.timeline.schedule(b.seed));
        assert!(
            sa.len() != sb.len() || sa.iter().zip(&sb).any(|(x, y)| x.at != y.at),
            "{kind}: the seed must reach the schedule"
        );
        let f = fault_plan(kind, FaultCase::CrashHeal, other);
        assert_ne!(
            f.seed,
            fault_plan(kind, FaultCase::CrashHeal, DEFAULT_SEED).seed
        );
    }

    let cells = vec![
        Cell::Ramp(SystemKind::CordaOs),
        Cell::Fault(SystemKind::Fabric, FaultCase::CrashHeal),
        Cell::Fault(SystemKind::Quorum, FaultCase::Byzantine),
        Cell::Fault(SystemKind::Diem, FaultCase::JoinLeave),
        Cell::Table(TableRow {
            system: SystemKind::Bitshares,
            unit: BenchmarkUnit::DoNothing,
            pick: PayloadKind::DoNothing,
            rate: 1600.0,
            param: BlockParam::BlockInterval(SimDuration::from_secs(1)),
            ops: 100,
        }),
    ];
    let passes = vec![
        run_pass(&cells, other, false),
        run_pass(&cells, other, true),
    ];
    let verdict = judge(Workload::FaultRecovery, &cells, &passes, other);
    assert_eq!(verdict.failed, 0, "{:?}", verdict.failures);
    assert_eq!(verdict.attempted, 2 * cells.len() as u64);

    // The golden comparison is the one check a non-default seed fails: the
    // Corda OS ramp cell matches the golden's first cell only at the
    // default seed.
    let ramp = |seed| {
        let run = run_cell(&Cell::Ramp(SystemKind::CordaOs), seed, false);
        bottleneck_cell(
            SystemKind::CordaOs,
            run.scenario.as_ref().expect("ramp cell"),
        )
    };
    assert!(!golden_cell_differs(0, &ramp(DEFAULT_SEED)));
    assert!(golden_cell_differs(0, &ramp(other)));
}

#[test]
fn every_workload_names_distinct_cells() {
    for w in Workload::ALL {
        let cells = w.cells();
        let mut labels: Vec<String> = cells.iter().map(Cell::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cells.len(), "{}", w.name());
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    assert_eq!(Workload::PaperSteady.cells().len(), 17);
    assert_eq!(Workload::OverloadRamp.cells().len(), 7);
    assert_eq!(Workload::FaultRecovery.cells().len(), 7 * 4 + 3);
}

#[test]
fn table_rows_match_the_paper_tables() {
    use coconut::experiments::{table11_12, table15_16, ExperimentConfig};
    let cfg = ExperimentConfig {
        scale: Workload::PaperSteady.scale(),
        repetitions: 1,
        seed: DEFAULT_SEED,
        full_sweep: false,
        jobs: Some(1),
    };
    let ours: Vec<(SystemKind, (f64, f64))> = Workload::PaperSteady
        .cells()
        .iter()
        .filter(|c| matches!(c.system(), SystemKind::Bitshares | SystemKind::Quorum))
        .map(|c| {
            let run = run_cell(c, DEFAULT_SEED, false);
            assert_eq!(run.failure, None);
            (c.system(), run.row.expect("table cells report their row"))
        })
        .collect();
    let theirs: Vec<(f64, f64)> = table11_12(&cfg)
        .rows
        .iter()
        .chain(table15_16(&cfg).rows.iter())
        .map(|r| (r.received.mean, r.expected))
        .collect();
    assert_eq!(ours.iter().map(|o| o.1).collect::<Vec<_>>(), theirs);
}
