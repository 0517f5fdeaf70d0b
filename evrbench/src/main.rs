//! The EVR benchmark: three workloads run against the public APIs of
//! the workspace, measured end to end with tracing off, or traced per
//! layer with `--trace 1`.
//!
//! ```text
//! cargo run --release --manifest-path evrbench/Cargo.toml -- \
//!     --workload fleet_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines go to stdout first; the last line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. The
//! process exits non-zero when any output check fails. See README.md
//! for the workloads, the metrics and what each layer metric should
//! move.

mod digest;
mod fleet;
mod ingest;
mod layers;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Duration;

use evr_sas::SasConfig;

use crate::spans::Tracer;

/// Seconds of content every workload ingests and plays: two 30-frame
/// segments per video, enough for segment-level fan-out on two cores
/// while keeping set-up to a few seconds.
pub const CONTENT_S: f64 = 2.0;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const E2E_METRICS: [(&str, &str); 3] =
    [("throughput_per_s", "1/s"), ("op_p50_ms", "ms"), ("setup_s", "s")];

/// How many times each run sets up, so `setup_s` is a median.
pub const SETUPS: usize = 3;

/// The paper-shape configuration every workload runs at.
pub fn sas_config() -> SasConfig {
    SasConfig::default()
}

/// Worker threads: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: Duration,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
    })
}

/// What a run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// Records one metric of the JSON result and prints it.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records an output check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            println!("CHECK FAILED: {msg}");
            self.problems.push(msg);
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { format!("{value:?}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`), MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Prints the resident set now and at its peak so far.
pub fn print_rss(phase: &str) {
    println!(
        "rss after {phase}: {:.1} MB now, {:.1} MB peak",
        status_mb("VmRSS:").unwrap_or(f64::NAN),
        status_mb("VmHWM:").unwrap_or(f64::NAN)
    );
}

/// A well-mixed 64-bit value of `x` (SplitMix64).
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evrbench: {e}");
            eprintln!(
                "usage: evrbench --workload <fleet_mix|ingest_cold|serve_refine> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    println!(
        "evrbench workload={} seed={} seconds={} trace={} workers={}",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        nproc()
    );
    let mut out = Outcome::default();
    let tracer = args.trace.then(Tracer::new);
    let run = match args.workload.as_str() {
        "fleet_mix" => fleet::run,
        "ingest_cold" => ingest::run,
        "serve_refine" => serve::run,
        other => {
            eprintln!("evrbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    run(&args, tracer.as_ref(), &mut out);
    out.check(out.attempted > 0, || "the run attempted no operation".into());
    if let Some(tr) = &tracer {
        let path = PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.check(false, || format!("writing {}: {e}", path.display())),
        }
    } else {
        // Peak RSS is printed, not gated: with glibc's per-thread arenas
        // it moves by 10-25% between runs of identical work.
        print_rss("the run");
        for (name, unit) in E2E_METRICS {
            let found = out.metrics.iter().any(|m| m.0 == name && m.2 == unit);
            out.check(found, || format!("end-to-end metric {name} ({unit}) was not measured"));
        }
    }
    println!("{}", out.json());
    if !out.problems.is_empty() {
        std::process::exit(1);
    }
}
