//! The repository benchmark (see `perfbench/README.md`).
//!
//! ```text
//! perfbench --workload <frozen-serve|mutable-serve|sq8-batch> --seed <n>
//!           --seconds <s> --trace <0|1> [--scratch <dir>]
//! ```
//!
//! Human-readable output goes to stderr; the last line of stdout is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric, or with `--trace 1` every per-layer metric). A failed
//! correctness check makes the command exit non-zero.

mod metrics;
mod openloop;
mod probes;
mod schedule;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::Ctx;

const WORKLOADS: [&str; 3] = ["frozen-serve", "mutable-serve", "sq8-batch"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, false);
    let mut scratch = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => traced = value == "1",
            "--scratch" => scratch = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let ctx = Ctx {
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        scratch,
    };
    Ok(Args { workload, ctx })
}

fn run() -> Result<bool, String> {
    let Args { workload, ctx } = parse_args()?;
    std::fs::create_dir_all(&ctx.scratch)
        .map_err(|e| format!("create {}: {e}", ctx.scratch.display()))?;
    eprintln!(
        "perfbench {workload}: seed {}, {} s, {}",
        ctx.seed,
        ctx.seconds,
        if ctx.traced { "traced" } else { "untraced" }
    );
    let mut tracer = Tracer::new(ctx.traced);
    let report = match workload.as_str() {
        "frozen-serve" => workloads::frozen_serve(&ctx, &mut tracer),
        "mutable-serve" => workloads::mutable_serve(&ctx, &mut tracer),
        _ => workloads::sq8_batch(&ctx, &mut tracer),
    }?;
    for note in &report.notes {
        eprintln!("note: {note}");
    }
    metrics::print_table("end-to-end", &metrics::END_TO_END, &report.e2e);
    let (defs, values) = if ctx.traced {
        metrics::print_table(
            "per layer (traced run)",
            &metrics::PER_LAYER,
            &report.layers,
        );
        let path = ctx
            .scratch
            .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
        (&metrics::PER_LAYER[..], &report.layers)
    } else {
        (&metrics::END_TO_END[..], &report.e2e)
    };
    let correct = report.wrong == 0;
    if !correct {
        eprintln!("CORRECTNESS CHECK FAILED: {} wrong answers", report.wrong);
    }
    eprintln!("attempted {}, failed {}", report.attempted, report.failed);
    println!(
        "{}",
        metrics::result_line(defs, values, correct, report.attempted, report.failed)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
