//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim-static|net-tcp|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload runs in a child process (this binary re-executed with
//! `--child`), so its peak RSS is its own. The parent prints every metric
//! by name with its unit, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced; with
//! `--trace 1` they are the per-layer set from a traced run. The exit code
//! is non-zero if any answer check failed. See `perfbench/README.md` for
//! the workloads and metric definitions.

mod check;
mod knee;
mod net_tcp;
mod probes;
mod report;
mod sim_static;
mod stats;
mod trace;

use std::io::{BufRead as _, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["sim-static", "net-tcp"];
/// A child still running after this long is killed and the run fails.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let (workload, child) = match (value("--workload"), value("--child")) {
        (_, Some(w)) => (w.to_string(), true),
        (Some(w), None) => (w.to_string(), false),
        (None, None) => return Err("missing --workload".into()),
    };
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    let seed = value("--seed")
        .unwrap_or("1")
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")
        .unwrap_or("10")
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        run_child(&args);
        return ExitCode::SUCCESS;
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut results = Vec::new();
    for name in names {
        match spawn_child(name, &args) {
            Ok(r) => results.push((name, r)),
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let prefix = results.len() > 1;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for (name, r) in &results {
        for n in &r.notes {
            println!("{name}: note: {n}");
        }
        for e in &r.errors {
            println!("{name}: CHECK FAILED: {e}");
        }
        for &(metric, unit) in expected {
            let Some(&v) = r.metrics.get(metric).filter(|v| v.is_finite()) else {
                eprintln!("perfbench: {name} did not report {metric}");
                return ExitCode::FAILURE;
            };
            println!("{name:<10} {metric:<28} {v:>14.6} {unit}");
            let key = if prefix {
                format!("{name}/{metric}")
            } else {
                metric.to_string()
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        attempted += r.attempted;
        failed += r.failed;
        correct &= r.errors.is_empty() && r.failed == 0 && r.attempted > 0;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and prints its report lines.
fn run_child(args: &Args) {
    let steal0 = probes::steal_jiffies();
    let mut r = match args.workload.as_str() {
        "sim-static" => sim_static::run(args.seed, args.seconds, args.trace),
        "net-tcp" => net_tcp::run(args.seed, args.seconds, args.trace),
        w => unreachable!("workload {w} was validated"),
    };
    r.set("rss_mib", probes::vm_hwm_mib());
    r.set(
        "answered_frac",
        r.attempted.saturating_sub(r.failed) as f64 / r.attempted.max(1) as f64,
    );
    if args.trace {
        r.set(
            "host.steal_frac",
            probes::steal_frac(steal0, probes::steal_jiffies()),
        );
        // Layers this workload never calls read 0.
        for &(name, _) in PER_LAYER {
            r.metrics.entry(name.to_string()).or_insert(0.0);
        }
    }
    for line in r.to_lines() {
        println!("{line}");
    }
}

/// Runs `workload` in a child process and collects its report.
fn spawn_child(workload: &str, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--child", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawning child: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<String>>()
    });
    let start = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if start.elapsed() < CHILD_DEADLINE => {
                std::thread::sleep(Duration::from_millis(20))
            }
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("killed after {} s", CHILD_DEADLINE.as_secs()));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("waiting for child: {e}"));
            }
        }
    };
    let lines = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(Report::from_lines(lines.iter().map(String::as_str)))
}
