//! The run record printed with every result, so numbers from different
//! hosts or revisions are never compared silently.

use std::path::Path;

use coconut::json::Json;

use crate::cells::Workload;

/// Worker threads the benchmark runs cells on (every cell runs inline on
/// the calling thread; no pool is started).
const WORKER_THREADS: usize = 1;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The checkout's git revision, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// CPUs available to the process.
    pub nproc: usize,
    /// Worker threads running cells.
    pub worker_threads: usize,
    /// The compiler that built the benchmark (`rustc --version`).
    pub rustc: String,
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
}

impl RunRecord {
    /// The record of a run started in the current directory.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        RunRecord {
            git_rev: git_rev(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            worker_threads: WORKER_THREADS,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            workload,
            seed,
            seconds,
            trace,
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("nproc".into(), Json::Num(self.nproc as f64)),
            (
                "worker_threads".into(),
                Json::Num(self.worker_threads as f64),
            ),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("scale".into(), Json::Num(self.workload.scale())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("seconds".into(), Json::Num(self.seconds as f64)),
            ("trace".into(), Json::Bool(self.trace)),
        ])
    }
}

/// The revision `HEAD` names, read from the git directory's files (no
/// `git` process): a detached hash, a loose ref, or a packed ref.
fn git_rev(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(name)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, r) = line.split_once(' ')?;
        (r == name).then(|| rev.to_string())
    })
}

/// `json` on one line, numbers with every digit Rust's shortest
/// round-trip form gives them (whole numbers without a fraction).
pub fn compact(json: &Json) -> String {
    let mut out = String::new();
    write_compact(json, &mut out);
    out
}

fn write_compact(json: &Json, out: &mut String) {
    match json {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_string(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}
