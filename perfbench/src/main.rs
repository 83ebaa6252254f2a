//! `perfbench` — time to a grid-size decision, end to end and by layer.
//!
//! ```text
//! perfbench --workload brute-nyc|model-chengdu|bootstrap-xian|quadtree-chengdu
//!           [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]
//! perfbench --setup-only --workload W [--seed N]
//! ```
//!
//! One process runs one workload in a closed loop, one decision at a time.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. Every decision is compared with a reference computed once by a
//! different path (sequential `tune()` at one worker, pipeline off). The
//! last stdout line is one JSON object; `perfbench/run.py` builds this
//! binary, stamps the result with the host fingerprint and reduces it to
//! the benchmark's result line.

mod host;
mod layers;
mod trace;
mod workload;

use gridtuner_obs::json::Val;
use layers::{run_decision, traced_run, Tally};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Kind, Outcome, Path, Workload};

/// Fresh processes beyond this one whose first decision is timed for
/// `setup_s`.
const SETUP_CHILDREN: usize = 2;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut args = Args {
        kind: Kind::BruteNyc,
        seed: 7,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        spans: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--setup-only" {
            args.setup_only = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(|| bad("a workload name"))?),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

/// Wall seconds of the first decision this process makes.
fn first_decision(w: &Workload) -> (f64, Result<Outcome, String>) {
    let t = Instant::now();
    let o = run_decision(w, Path::Timed, None);
    (t.elapsed().as_secs_f64(), o)
}

/// The reference decision: sequential `tune()` at one worker with the
/// pipeline off.
fn reference(w: &Workload) -> Result<Outcome, String> {
    let threads = gridtuner_par::max_threads();
    gridtuner_par::set_max_threads(1);
    let r = run_decision(w, Path::Reference, None);
    gridtuner_par::set_max_threads(threads);
    r.map_err(|e| format!("reference decision failed: {e}"))
}

/// `setup_s` of a fresh copy of this program on the same workload.
fn child_setup_s(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", args.kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("running the set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.trim().parse::<f64>()) {
        (true, Ok(s)) => Ok(s),
        _ => Err(format!("set-up child failed ({}): {text:?}", out.status)),
    }
}

struct RunResult {
    metrics: Vec<(&'static str, f64, &'static str)>,
    tally: Tally,
    correct: bool,
    detail: Val,
}

/// The untraced run: end-to-end metrics of decisions made back to back
/// for `seconds`.
fn timed_run(
    args: &Args,
    w: &Workload,
    setup_first: f64,
    reference: &Outcome,
) -> Result<RunResult, String> {
    let mut setup = vec![setup_first];
    for _ in 0..SETUP_CHILDREN {
        setup.push(child_setup_s(args)?);
    }
    let mut tally = Tally::default();
    let mut walls = Vec::new();
    let mut window_events = 0;
    let cpu0 = host::process_cpu_s();
    let steal0 = host::host_steal_s();
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let got = run_decision(w, Path::Timed, None);
        walls.push(t.elapsed().as_secs_f64() * 1e3);
        if let Ok(o) = &got {
            window_events = o.counts.window_events;
        }
        tally.check(&got, reference);
    }
    let loop_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let steal_s = host::host_steal_s() - steal0;
    let n = walls.len() as f64;
    let (tail_pct, tail_ms) = host::tail(&walls);
    let metrics = vec![
        ("decision_ms.p50", host::median(&walls), "ms"),
        ("decision_ms.tail", tail_ms, "ms"),
        ("events_per_s", window_events as f64 * n / loop_s, "1/s"),
        ("cpu_ms_per_decision", cpu_s * 1e3 / n, "ms"),
        ("setup_s", host::median(&setup), "s"),
        ("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    let detail = Val::obj(vec![
        ("decisions", Val::from(walls.len() as u64)),
        ("tail_percentile", Val::from(tail_pct)),
        ("window_events", Val::from(window_events)),
        ("host_steal_s", Val::from(steal_s)),
        (
            "setup_samples_s",
            Val::Arr(setup.iter().map(|&s| Val::from(s)).collect()),
        ),
    ]);
    eprintln!(
        "[perfbench] {} decisions over {loop_s:.2} s; tail = p{tail_pct:.1}; \
         host steal {steal_s:.2} CPU-s",
        walls.len()
    );
    let correct = tally.failed == 0;
    Ok(RunResult {
        metrics,
        tally,
        correct,
        detail,
    })
}

fn run(args: &Args) -> Result<RunResult, String> {
    let w = Workload::generate(args.kind, args.seed);
    // The first decision of a fresh process pays for pool spawn and lazy
    // tables: it is `setup_s`, so nothing may run before it.
    let (setup_first, first) = first_decision(&w);
    let reference = reference(&w)?;
    eprintln!(
        "[perfbench] {} seed {}: {} events, {} in the α window; first decision {:.3} s",
        args.kind.name(),
        args.seed,
        w.events.len(),
        reference.counts.window_events,
        setup_first
    );
    let mut result = if args.trace {
        let t = traced_run(&w, args.seconds, &reference, args.spans.as_deref())?;
        RunResult {
            metrics: t.metrics,
            correct: t.tally.failed == 0 && t.counts_exact,
            tally: t.tally,
            detail: t.detail,
        }
    } else {
        timed_run(args, &w, setup_first, &reference)?
    };
    let first_ok = result.tally.check(&first, &reference);
    result.correct &= first_ok;
    let Val::Obj(fields) = &mut result.detail else {
        unreachable!("details are objects")
    };
    let t = &result.tally;
    let failed_frac = t.failed as f64 / t.attempted.max(1) as f64;
    fields.push(("failed_frac".into(), Val::from(failed_frac)));
    fields.push(("decision".into(), reference.decision.summary()));
    Ok(result)
}

fn fingerprint(args: &Args) -> Val {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Val::obj(vec![
        ("available_parallelism", Val::from(parallelism as u64)),
        ("threads", Val::from(gridtuner_par::max_threads() as u64)),
        ("simd", Val::from(gridtuner_engine::simd_diagnostics())),
        ("workload", Val::from(args.kind.name())),
        ("seed", Val::from(args.seed)),
        ("seconds", Val::from(args.seconds)),
        ("trace", Val::from(args.trace)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = gridtuner_engine::thread_override() {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    if args.setup_only {
        let w = Workload::generate(args.kind, args.seed);
        return match first_decision(&w) {
            (s, Ok(_)) => {
                println!("{s:?}");
                ExitCode::SUCCESS
            }
            (_, Err(e)) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok(r) => {
            let metrics = r
                .metrics
                .iter()
                .map(|&(name, value, unit)| {
                    eprintln!("  {name:<26} {value:>14.4} {unit}");
                    (
                        name,
                        Val::obj(vec![("value", Val::from(value)), ("unit", Val::from(unit))]),
                    )
                })
                .collect();
            let out = Val::obj(vec![
                ("correct", Val::from(r.correct)),
                ("attempted", Val::from(r.tally.attempted)),
                ("failed", Val::from(r.tally.failed)),
                ("metrics", Val::obj(metrics)),
                ("fingerprint", fingerprint(&args)),
                ("detail", r.detail),
            ]);
            println!("{}", out.render());
            if r.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
