//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload from the checkout root and prints, in order, the
//! machine fingerprint, the digest of the run's fix outputs, any failed
//! checks, and as the last line one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a check failed and 2
//! on a usage error.

use perfbench::fingerprint::Fingerprint;
use perfbench::{run, Options, Workload};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <pair-paper|pair-long|fleet-sparse-lossy> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(Workload, Options), String> {
    let mut workload = None;
    let mut opts = Options::new(1, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(workload, &opts);
    println!(
        "fingerprint: {}",
        Fingerprint::detect(Path::new(".")).to_json()
    );
    println!("digest: {} {:016x}", workload.name(), report.digest);
    for v in &report.violations {
        println!("check failed: {v}");
    }
    println!("{}", report.to_json(opts.trace));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
