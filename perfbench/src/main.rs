//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload's cells on one thread, pass after pass, for about
//! `--seconds` seconds (at least three untraced passes, or one untraced +
//! traced pair with `--trace 1`), checks every cell, and prints as its last
//! stdout line one JSON object: `correct`, `attempted` and `failed` (cell
//! runs) and `metrics` — the end-to-end metrics, or with `--trace 1` the
//! per-layer ones. The line before it is the run record. A traced run also
//! writes its spans to `out/trace-<workload>-seed<seed>.json` in this
//! package's directory.

use std::process::ExitCode;
use std::time::Instant;

use coconut::json::Json;
use coconut_perfbench::bench::{
    end_to_end, judge, measure_floors, per_layer, run_pass, Metric, Pass, Verdict, MIN_PASSES,
};
use coconut_perfbench::cells::{Cell, Workload, DEFAULT_SEED};
use coconut_perfbench::record::{compact, RunRecord};
use coconut_perfbench::trace::Layer;

/// Measured seconds when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 40;

/// No new pass starts once it could end past this many seconds, whatever
/// `--seconds` asks for.
const HARD_CAP_SECONDS: f64 = 150.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name:?} (one of {})", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Runs passes (untraced, or untraced + traced pairs) until the next group
/// would end past the budget, after at least the minimum number of groups.
fn measure(cells: &[Cell], args: &Args) -> Vec<Pass> {
    let start = Instant::now();
    let budget = (args.seconds as f64).min(HARD_CAP_SECONDS);
    let min_groups = if args.trace { 1 } else { MIN_PASSES };
    let mut passes = Vec::new();
    let mut longest: f64 = 0.0;
    for group in 1.. {
        let t = Instant::now();
        passes.push(run_pass(cells, args.seed, false));
        if args.trace {
            passes.push(run_pass(cells, args.seed, true));
        }
        longest = longest.max(t.elapsed().as_secs_f64());
        let next_end = start.elapsed().as_secs_f64() + longest;
        if (group >= min_groups && next_end > budget) || next_end > HARD_CAP_SECONDS {
            break;
        }
    }
    passes
}

/// Every pass's spans and totals, per cell, for the trace file.
fn trace_json(record: &RunRecord, cells: &[Cell], passes: &[Pass], verdict: &Verdict) -> Json {
    let pass_json = |p: &Pass| {
        let cells = cells
            .iter()
            .zip(&p.runs)
            .map(|(cell, run)| {
                let mut fields = vec![("cell".to_string(), Json::Str(cell.label()))];
                match run {
                    Err(msg) => fields.push(("panic".into(), Json::Str(msg.clone()))),
                    Ok(run) => {
                        let t = run.totals;
                        fields.push((
                            "totals".into(),
                            Json::Obj(vec![
                                ("scheduled".into(), Json::Num(t.scheduled as f64)),
                                ("confirmed".into(), Json::Num(t.confirmed as f64)),
                                ("retries".into(), Json::Num(t.retries as f64)),
                                ("blocks".into(), Json::Num(t.blocks as f64)),
                                ("engine_msgs".into(), Json::Num(t.engine_msgs as f64)),
                                ("view_changes".into(), Json::Num(t.view_changes as f64)),
                            ]),
                        ));
                        let spans = Layer::ALL
                            .iter()
                            .map(|&l| {
                                let s = run.spans.get(l);
                                (
                                    l.label().to_string(),
                                    Json::Obj(vec![
                                        ("count".into(), Json::Num(s.count as f64)),
                                        ("ns".into(), Json::Num(s.ns as f64)),
                                        ("self_ns".into(), Json::Num(run.spans.self_ns(l) as f64)),
                                    ]),
                                )
                            })
                            .collect();
                        fields.push(("spans".into(), Json::Obj(spans)));
                    }
                }
                Json::Obj(fields)
            })
            .collect();
        Json::Obj(vec![
            ("traced".into(), Json::Bool(p.traced)),
            ("wall_ns".into(), Json::Num(p.wall_ns as f64)),
            ("cells".into(), Json::Arr(cells)),
        ])
    };
    Json::Obj(vec![
        ("record".into(), record.to_json()),
        (
            "failures".into(),
            Json::Arr(verdict.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "passes".into(),
            Json::Arr(passes.iter().map(pass_json).collect()),
        ),
    ])
}

fn write_trace(workload: Workload, seed: u64, json: &Json) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", workload.name()));
    std::fs::write(&path, json.to_pretty() + "\n")?;
    Ok(path.display().to_string())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let record = RunRecord::new(args.workload, args.seed, args.seconds, args.trace);
    let cells = args.workload.cells();
    let passes = measure(&cells, &args);
    let verdict = judge(args.workload, &cells, &passes, args.seed);
    let metrics: Vec<Metric> = if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        let floors = measure_floors(args.workload, &traced, args.seed);
        per_layer(&cells, &passes, &floors)
    } else {
        end_to_end(&passes)
    };

    eprintln!(
        "{}: {} passes, {} cell runs, {} failed (fail_ratio {})",
        args.workload.name(),
        passes.len(),
        verdict.attempted,
        verdict.failed,
        verdict.fail_ratio()
    );
    for (i, p) in passes.iter().enumerate() {
        let mode = if p.traced { "traced" } else { "untraced" };
        eprintln!("  pass {i} ({mode}): {:.3} s", p.wall_ns as f64 / 1e9);
    }
    for f in &verdict.failures {
        eprintln!("FAIL {f}");
    }
    for m in &metrics {
        eprintln!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        match write_trace(
            args.workload,
            args.seed,
            &trace_json(&record, &cells, &passes, &verdict),
        ) {
            Ok(path) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("warning: trace not written: {e}"),
        }
    }

    let metrics = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(verdict.failed == 0)),
        ("attempted".into(), Json::Num(verdict.attempted as f64)),
        ("failed".into(), Json::Num(verdict.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!(
        "{}",
        compact(&Json::Obj(vec![("run_record".into(), record.to_json())]))
    );
    println!("{}", compact(&result));
    ExitCode::SUCCESS
}
