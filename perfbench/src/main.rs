//! End-to-end and per-layer benchmark of the cmam toolchain.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile_cold|compile_warm|input_sweep|dse_search> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it builds the workload's inputs from
//! the seed, prepares what must exist before timing, measures closed-loop
//! passes for `--seconds` seconds with at most two engine workers, checks
//! every output outside the timed region and prints the metrics. The last
//! stdout line is the JSON result record; the line before it carries the
//! provenance. `--trace 0` reports the end-to-end metrics (tracing off);
//! `--trace 1` makes the separate traced run that reports the per-layer
//! metrics. See `README.md` next to this file for what each workload and
//! metric means.

mod inputs;
mod layers;
mod workloads;

use std::process::ExitCode;

/// Environment variables that change what the toolchain does or how it
/// is measured. The benchmark refuses to time while any is set.
const GUARDED_ENV: [&str; 5] = [
    "CMAM_FAULT_SEED",
    "CMAM_FAULT_PLAN",
    "CMAM_CACHE_BYTES",
    "CMAM_TRACE",
    "CMAM_THREADS",
];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Jobs or lanes attempted over the whole run, checks included.
    pub attempted: u64,
    /// Execution/Panic outcomes plus outputs that differ from their
    /// reference.
    pub failed: u64,
    /// Determinism or validity problems; any entry makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn problem(&mut self, msg: String) {
        eprintln!("perfbench: {msg}");
        self.problems.push(msg);
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `rustc -V` of the toolchain on `PATH`, or a note that it is missing.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search parent directories). Source
/// trees exported without `.git` report `none`; the toolchain source
/// hash in the provenance identifies them instead.
fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|rev| rev.trim().to_owned())
                    .filter(|rev| !rev.is_empty() && !rev.starts_with('#'))
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn provenance_line(args: &Args, seeds: &[(&str, u64)]) -> String {
    let seeds: Vec<String> = seeds
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    format!(
        "{{\"provenance\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"cpus\":{},\"workers\":{},\"rustc\":{},\"git_revision\":{},\
         \"toolchain_source_hash\":{},\"workload_seeds\":{{{}}},\"held_out_seed\":{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workloads::workers(),
        json_str(&rustc_version()),
        json_str(&git_revision()),
        json_str(cmam_engine::fingerprint::TOOLCHAIN_HASH),
        seeds.join(","),
        workloads::held_out_seed(&args.workload),
    )
}

/// The result record: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(report: &Report, correct: bool) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_number(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    )
}

/// Full-precision JSON number (`{:?}` prints the shortest round-trip
/// form); non-finite values cannot be represented and become `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to time with {} set; unset it and rerun",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let scratch = match inputs::Scratch::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create scratch directory: {e}");
            return ExitCode::from(1);
        }
    };
    let fault_before = cmam_obs::counter!("fault.fired").get();
    let (report, seeds) = workloads::run(&args, &scratch);
    drop(scratch);

    let mut report = report;
    if cmam_obs::counter!("fault.fired").get() != fault_before {
        report.problem("fault.fired moved: an injected fault makes this run invalid".into());
    }
    println!();
    println!("{:<28} {:>18}  unit", "metric", "value");
    for m in &report.metrics {
        println!("{:<28} {:>18.6}  {}", m.name, m.value, m.unit);
    }
    let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<28} {:>18.6}  share ({} failed of {} attempted)",
        "failed_share", failed_share, report.failed, report.attempted
    );
    let correct = report.failed == 0 && report.problems.is_empty() && report.attempted > 0;
    if !correct {
        for p in &report.problems {
            println!("problem: {p}");
        }
    }
    println!("{}", provenance_line(&args, &seeds));
    println!("{}", result_line(&report, correct));
    ExitCode::SUCCESS
}
