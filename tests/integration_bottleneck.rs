//! Bottleneck attribution end to end: the stage probes' internal
//! consistency (Little's law, per-transaction residence bounds, count
//! reconciliation, histogram accuracy), zero observable effect when
//! disabled, and the ramp-to-saturation campaign with machine-checked
//! verdicts and its golden pin.

use std::collections::HashMap;

use coconut::client::{build_schedule, Windows};
use coconut::experiments::{bottleneck, bottleneck_for, ExperimentConfig};
use coconut::params::build_system;
use coconut::prelude::*;
use coconut::scenario::ScenarioBuilder;
use coconut::stats::percentile;
use coconut_chains::{Stage, StageProbe};
use coconut_types::{ClientId, TxId};

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        scale: 0.02,
        repetitions: 1,
        seed: 0xC0C0,
        full_sweep: false,
        jobs: Some(2),
    }
}

fn payload_for(kind: SystemKind) -> PayloadKind {
    match kind {
        SystemKind::CordaOs | SystemKind::CordaEnterprise => PayloadKind::KeyValueSet,
        _ => PayloadKind::DoNothing,
    }
}

/// The verdicts must reproduce the paper's per-system explanations of
/// *why* each system tops out: the Cordas in commit (notary signing and
/// finality distribution, §5.8), Sawtooth in its bounded queue (mempool
/// backpressure, §5.6), Quorum in ordering (the block-period stall,
/// §5.5). Machine-checked against the campaign, not eyeballed.
#[test]
fn bottleneck_verdicts_match_paper_causes() {
    let r = bottleneck_for(
        &quick_cfg(),
        &[
            SystemKind::CordaOs,
            SystemKind::Sawtooth,
            SystemKind::Quorum,
        ],
    );
    let verdict = |kind: SystemKind| {
        let c = r.cell(kind).expect("cell ran");
        (c.verdict.stage, c.verdict.saturated.clone())
    };
    let (corda, corda_sat) = verdict(SystemKind::CordaOs);
    assert_eq!(
        corda,
        Some(Stage::Commit),
        "Corda OS must top out in commit (notary + finality distribution)"
    );
    assert!(
        corda_sat.contains(&Stage::Commit),
        "Corda's flow backlog sheds must mark commit saturated"
    );
    let (sawtooth, _) = verdict(SystemKind::Sawtooth);
    assert_eq!(
        sawtooth,
        Some(Stage::MempoolWait),
        "Sawtooth must top out in its bounded queue"
    );
    let (quorum, _) = verdict(SystemKind::Quorum);
    assert_eq!(
        quorum,
        Some(Stage::Consensus),
        "Quorum must top out in ordering (block-period stall)"
    );
}

/// Little's law, L = λ·W: for every stage with meaningful traffic, the
/// time-weighted mean queue depth (integrated by the probe's depth
/// tracker) must agree with arrival rate × mean residence (accumulated
/// independently by the residence histogram) — across systems, load
/// levels, and seeds, at sub-saturation load.
#[test]
fn littles_law_holds_at_sub_saturation() {
    let windows = Windows::scaled(0.02);
    for kind in SystemKind::ALL {
        for load in [0.5, 1.0] {
            for seed in [7u64, 0xC0C0] {
                let rate = kind.rate_limiters()[0] * load;
                let sr = ScenarioBuilder::new(payload_for(kind), rate, windows)
                    .probes(true)
                    .build()
                    .run(kind, seed);
                let report = sr.stage_report.expect("probes were armed");
                for stage in Stage::ALL {
                    let s = report.get(stage);
                    if s.count < 50 || s.window_secs < 2.0 {
                        continue;
                    }
                    let lambda = s.count as f64 / s.window_secs;
                    let expect = lambda * s.mean_secs;
                    assert!(
                        (s.depth_mean - expect).abs() <= 0.15 * expect.max(0.05),
                        "{kind} {} (load {load}, seed {seed}): \
                         depth {} vs λ·W = {} (λ {}, W {})",
                        stage.label(),
                        s.depth_mean,
                        expect,
                        lambda,
                        s.mean_secs,
                    );
                }
            }
        }
    }
}

/// Drives every system directly with traced probes: (a) each confirmed or
/// failed transaction's summed stage residences never exceed its
/// end-to-end latency (stages partition the pipeline — they cannot
/// overlap or double-count), and (b) the stage counts reconcile exactly
/// with the system's own counters: one ingress visit per submission
/// (accepted + rejected + busy) and one notify visit per emitted outcome.
#[test]
fn residence_sums_bound_latency_and_counts_reconcile() {
    for kind in SystemKind::ALL {
        let windows = Windows::scaled(0.02);
        let rate = kind.rate_limiters()[0];
        let schedule = build_schedule(payload_for(kind), rate, 1, windows, 11);
        let mut sys = build_system(kind, &SystemSetup::default(), 11);
        sys.enable_stage_probes();
        sys.probe_mut()
            .expect("all systems carry probes")
            .enable_trace();

        let mut outcomes = Vec::new();
        let mut submitted_at: HashMap<TxId, SimTime> = HashMap::new();
        for s in &schedule {
            outcomes.extend(sys.run_until(s.at));
            submitted_at.insert(s.tx.id(), s.at);
            let _ = sys.submit(s.at, s.tx.clone());
        }
        let end = SimTime::ZERO + windows.send + windows.listen + SimDuration::from_secs(120);
        outcomes.extend(sys.run_until(end));
        assert!(!outcomes.is_empty(), "{kind}: no outcomes at base load");

        // (a) Per-transaction residence bound, every outcome class.
        let mut residence: HashMap<TxId, u64> = HashMap::new();
        for span in sys.probe().unwrap().trace() {
            *residence.entry(span.tx).or_default() +=
                span.exit.as_micros() - span.enter.as_micros();
        }
        for o in &outcomes {
            let at = submitted_at[&o.tx];
            let latency = o.finalized_at.as_micros() - at.as_micros();
            let spent = residence[&o.tx];
            assert!(
                spent <= latency,
                "{kind}: tx {:?} ({:?}) spent {spent} µs across stages \
                 but its end-to-end latency is {latency} µs",
                o.tx,
                o.status,
            );
        }

        // (b) Exact count reconciliation against the system's counters.
        let stats = sys.stats();
        let report = sys.stage_report().expect("probes were armed");
        assert_eq!(
            report.get(Stage::Ingress).count,
            stats.accepted + stats.rejected + stats.busy,
            "{kind}: every submission gets exactly one ingress visit"
        );
        assert_eq!(
            report.get(Stage::Notify).count,
            stats.outcomes_emitted,
            "{kind}: every emitted outcome gets exactly one notify visit"
        );
    }
}

/// The fixed-bucket residence histogram must report p50/p95/p99 within
/// one bucket width (0.1 s) of the exact nearest-rank percentiles of the
/// same samples — checked against [`percentile`] over a hand-rolled
/// pseudo-random stream spanning most of the histogram range.
#[test]
fn histogram_quantiles_track_exact_percentiles() {
    let mut probe = StageProbe::new();
    probe.enable();
    let mut exact = Vec::new();
    let mut lcg = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..5000u64 {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Durations in [0, 50 s): inside the 60 s histogram range.
        let micros = lcg >> 32;
        let micros = micros % 50_000_000;
        exact.push(micros as f64 / 1e6);
        let enter = SimTime::from_micros(i);
        probe.span(
            Stage::Execution,
            TxId::new(ClientId(0), i),
            enter,
            enter + SimDuration::from_micros(micros),
        );
    }
    let snap = probe.report();
    let snap = snap.get(Stage::Execution);
    for (q, got) in [
        (0.50, snap.p50_secs),
        (0.95, snap.p95_secs),
        (0.99, snap.p99_secs),
    ] {
        let want = percentile(&exact, q);
        assert!(
            (got - want).abs() <= 0.1,
            "p{}: histogram {} vs exact {} (must be within one 0.1 s bucket)",
            (q * 100.0) as u32,
            got,
            want,
        );
    }
    assert!((snap.mean_secs - exact.iter().sum::<f64>() / 5000.0).abs() < 1e-9);
}

/// Probes are strictly passive: the same timeline with probes off must
/// produce bit-identical client-side results (accounting, buckets,
/// latency) — and no stage report. The byte-level guarantee for the five
/// pre-existing campaign goldens rides on exactly this property.
#[test]
fn probes_off_is_bit_identical_and_report_free() {
    let windows = Windows::scaled(0.02);
    for kind in [SystemKind::Fabric, SystemKind::Sawtooth] {
        let run = |probes: bool| {
            ScenarioBuilder::new(payload_for(kind), kind.rate_limiters()[0] * 2.0, windows)
                .probes(probes)
                .build()
                .run(kind, 5)
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.run.accounting, on.run.accounting, "{kind}");
        assert_eq!(off.run.buckets, on.run.buckets, "{kind}");
        assert_eq!(off.run.p95, on.run.p95, "{kind}");
        assert!(off.stage_report.is_none(), "{kind}: off means no report");
        let report = on.stage_report.expect("probes on must yield a report");
        assert!(
            report.get(Stage::Ingress).count > 0,
            "{kind}: probes on must observe traffic"
        );
    }
}

/// Like every grid campaign: cells are byte-identical for any worker
/// count and any system subset (seeds are content-addressed by system).
#[test]
fn bottleneck_cells_are_jobs_and_subset_invariant() {
    let cfg = |jobs| ExperimentConfig {
        jobs,
        ..quick_cfg()
    };
    let pair = [SystemKind::CordaOs, SystemKind::CordaEnterprise];
    let a = bottleneck_for(&cfg(Some(1)), &pair);
    let b = bottleneck_for(&cfg(Some(8)), &pair);
    assert_eq!(a.to_json(), b.to_json(), "worker count must not matter");
    let solo = bottleneck_for(&cfg(Some(2)), &pair[..1]);
    let (full, sub) = (&a.cells[0], &solo.cells[0]);
    assert_eq!(full.run.accounting, sub.run.accounting);
    assert_eq!(full.run.buckets, sub.run.buckets);
    assert_eq!(full.verdict, sub.verdict);
    for stage in Stage::ALL {
        assert_eq!(
            full.report.get(stage).count,
            sub.report.get(stage).count,
            "subset cells must reproduce the pair's cells"
        );
    }
}

fn golden_cfg() -> ExperimentConfig {
    quick_cfg()
}

/// The bottleneck campaign's JSON, pinned byte-for-byte like the other
/// campaigns, in debug builds too.
#[test]
fn bottleneck_campaign_json_matches_golden_file() {
    let rendered = bottleneck(&golden_cfg()).to_json();
    let golden = include_str!("golden/bottleneck_scale002_seed_c0c0.json");
    assert_eq!(
        rendered.trim_end(),
        golden.trim_end(),
        "bottleneck JSON drifted from tests/golden/bottleneck_scale002_seed_c0c0.json; \
         if the change is intentional run: \
         cargo test --release --test integration_bottleneck regenerate_bottleneck_golden -- --ignored"
    );
}

/// Rewrites the bottleneck golden file from the current implementation.
/// Run only when a change is intentional; the diff is the review artifact.
#[test]
#[ignore = "regenerates tests/golden/bottleneck_scale002_seed_c0c0.json; run explicitly after intentional changes"]
fn regenerate_bottleneck_golden() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/bottleneck_scale002_seed_c0c0.json"
    );
    let mut json = bottleneck(&golden_cfg()).to_json();
    json.push('\n');
    std::fs::create_dir_all(std::path::Path::new(path).parent().unwrap()).unwrap();
    std::fs::write(path, json).unwrap();
}
