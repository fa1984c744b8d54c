//! End-to-end and per-layer host-speed benchmark of the smallFloat stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|paper-grid|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop with one client. Untraced runs
//! (`--trace 0`) report the end-to-end metrics; traced runs (`--trace 1`)
//! wrap each call the benchmark makes into a layer crate in a span and
//! report the per-layer metrics. The last line of standard output is one
//! JSON object; the lines before it are the same numbers for people.
//! See README.md for the workloads, the metrics and the layer table.

mod calib;
mod digest;
mod grid;
mod launch;
mod obs;
mod serve;
mod train;

use calib::Calib;
use digest::{Checker, DEFAULT_SEED};
use obs::{median, p10, p90, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

/// Variables that change the program being measured (engine tiers,
/// host threading, per-launch diagnostics).
const GUARDED_ENV: [&str; 5] = [
    "SMALLFLOAT_NOBLOCKS",
    "SMALLFLOAT_NOTRACES",
    "SMALLFLOAT_SERIAL",
    "SMALLFLOAT_HOT_BLOCKS",
    "SMALLFLOAT_TRACE_STATS",
];

/// Set-ups per batch: at least `SETUP_MIN_REPS`, more while they take
/// less than `SETUP_BUDGET_S` in total. A run makes one batch before and
/// one after the timed loop, so they sample the host at two moments.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 100;
const SETUP_BUDGET_S: f64 = 1.5;

/// Calibration runs after each set-up.
const SETUP_CALIB_REPS: usize = 4;

/// The reference host: one on which a calibration run (`calib.rs`) takes
/// this long at its fast decile. Timings in the JSON are scaled to it.
const CALIB_REF_MS: f64 = 0.1;

/// One benchmark workload: a closed loop of ops.
pub trait Workload {
    /// Ops in one balanced round; the timed loop ends on a round boundary.
    fn round(&self) -> usize;
    /// Distinct ops (keys) before the sequence repeats.
    fn distinct(&self) -> usize {
        self.round()
    }
    /// Which kind op `i` is; `op_ms_p50` averages the per-kind medians.
    fn kind(&self, i: usize) -> usize;
    /// Run op `i`; return its key and the digest of its simulated outputs.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> (String, u64);
    /// Checks made after the timed region.
    fn verify(&mut self, _report: &mut String) -> bool {
        true
    }
    /// Traced run only: replay the ops' lower layers call by call.
    fn replay(&mut self, tr: &mut Tracer, seed: u64, report: &mut String) -> Replay;
}

/// What a traced replay found.
pub struct Replay {
    /// The replayed calls reproduced the ops' simulated outputs.
    pub ok: bool,
    /// Layer of the op spans that `refine` splits up ("" for none).
    pub op_layer: &'static str,
    /// Per-layer ns of the op spans, attributed with the replayed calls.
    pub refine: BTreeMap<&'static str, f64>,
}

/// SplitMix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            args.pin = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["train", "paper-grid", "serve"].contains(&args.workload.as_str()) {
        return Err("--workload must be train, paper-grid or serve".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn make(workload: &str, seed: u64, tr: &mut Tracer) -> Box<dyn Workload> {
    match workload {
        "train" => Box::new(train::Train::setup(seed)),
        "paper-grid" => Box::new(grid::Grid::setup(seed, tr)),
        _ => Box::new(serve::Serve::setup(seed, tr)),
    }
}

/// Latencies and failures of one timed loop.
struct Timed {
    /// Latency (ms) and kind of every op that passed.
    lat: Vec<(f64, usize)>,
    /// Latencies (ms) of each distinct op that passed.
    per_key: BTreeMap<String, Vec<f64>>,
    /// Calibration runs (ms), one between every two ops.
    calib_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    wall_s: f64,
}

impl Timed {
    /// Ops per host second at the fast decile: the distinct ops over the
    /// sum of each one's fast-decile latency. Other tenants of a shared
    /// host slow most ops for stretches of seconds to minutes; the fast
    /// decile is the part of the run they slowed least.
    fn raw_ops_per_s(&self) -> f64 {
        let round_ms: f64 = self.per_key.values().map(|v| p10(v)).sum();
        self.per_key.len() as f64 / round_ms * 1e3
    }

    /// The host's speed relative to the reference host, measured by the
    /// calibration runs at the same fast decile as the ops.
    fn host_speed(&self) -> f64 {
        CALIB_REF_MS / p10(&self.calib_ms)
    }

    /// Ops per second on the reference host: when the host as a whole is
    /// slower or faster for a whole run, the ops and the calibration
    /// runs between them move together and the ratio stays.
    fn ops_per_s(&self) -> f64 {
        self.raw_ops_per_s() / self.host_speed()
    }

    /// Ops completed over the timed wall, interference included.
    fn wall_ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// Median latency; with several op kinds, the mean of the per-kind
    /// medians (the pooled median of two equally frequent kinds falls in
    /// the gap between them and jumps with single outliers).
    fn p50(&self, kinds: usize) -> f64 {
        let per_kind: Vec<f64> = (0..kinds)
            .filter_map(|k| {
                let v: Vec<f64> = self.lat.iter().filter(|l| l.1 == k).map(|l| l.0).collect();
                (!v.is_empty()).then(|| median(&v))
            })
            .collect();
        per_kind.iter().sum::<f64>() / per_kind.len().max(1) as f64
    }

    fn p90(&self) -> Option<f64> {
        p90(&self.lat.iter().map(|l| l.0).collect::<Vec<_>>())
    }
}

/// Run op `i` under `catch_unwind` and check its digest; the op's key
/// if it passed, and its latency (ms).
fn checked_op(
    w: &mut dyn Workload,
    i: usize,
    tr: &mut Tracer,
    chk: &mut Checker,
) -> (Option<String>, f64) {
    let depth = tr.depth();
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(|| w.op(i, tr)));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    tr.close_to(depth);
    let key = match r {
        Ok((key, d)) if chk.check(&key, d) => Some(key),
        _ => None,
    };
    (key, ms)
}

/// Ops until `seconds` have passed and a round is complete.
fn timed_loop(w: &mut dyn Workload, tr: &mut Tracer, chk: &mut Checker, seconds: f64) -> Timed {
    let round = w.round();
    let mut t = Timed {
        lat: Vec::new(),
        per_key: BTreeMap::new(),
        calib_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        wall_s: 0.0,
    };
    let mut calib = Calib::new();
    let start = Instant::now();
    let mut i = 0;
    while i % round != 0 || start.elapsed().as_secs_f64() < seconds {
        let (key, ms) = checked_op(w, i, tr, chk);
        t.calib_ms.push(calib.run());
        t.attempted += 1;
        match key {
            Some(key) => {
                t.lat.push((ms, w.kind(i)));
                t.per_key.entry(key).or_default().push(ms);
            }
            None => t.failed += 1,
        }
        i += 1;
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t
}

/// Set up a workload and run its warm-up round (every op kind once).
fn setup(args: &Args, tr: &mut Tracer, chk: &mut Checker) -> (Box<dyn Workload>, f64, bool) {
    let t = Instant::now();
    let mut w = make(&args.workload, args.seed, tr);
    let mut ok = true;
    let on = tr.on();
    tr.set_on(false);
    for i in 0..w.round() {
        ok &= checked_op(w.as_mut(), i, tr, chk).0.is_some();
    }
    tr.set_on(on);
    (w, t.elapsed().as_secs_f64(), ok)
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run's result: human-readable lines, then the metrics.
struct Outcome {
    text: String,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Set-up times and the calibration runs made between them (ms).
#[derive(Default)]
struct Setups {
    wall_s: Vec<f64>,
    calib_ms: Vec<f64>,
}

impl Setups {
    /// Fast-decile set-up time on the reference host (see `Timed::ops_per_s`).
    fn setup_s(&self) -> f64 {
        p10(&self.wall_s) * CALIB_REF_MS / p10(&self.calib_ms)
    }
}

/// One batch of set-ups, appended to `setups`; whether each passed.
fn setup_batch(args: &Args, setups: &mut Setups) -> bool {
    let mut calib = Calib::new();
    let mut correct = true;
    let (mut n, mut spent) = (0, 0.0);
    while n < SETUP_MIN_REPS || (n < SETUP_MAX_REPS && spent < SETUP_BUDGET_S) {
        // Each set-up runs on a fresh thread, so it starts from an empty
        // kernel-runner warm pool (thread-local) like a new process would.
        let (s, ok) = std::thread::scope(|sc| {
            sc.spawn(|| {
                let mut chk = Checker::new(&args.workload, args.seed, !args.pin);
                let (_, s, ok) = setup(args, &mut Tracer::new(false), &mut chk);
                (s, ok)
            })
            .join()
            .expect("set-up completed")
        });
        setups.wall_s.push(s);
        setups
            .calib_ms
            .extend((0..SETUP_CALIB_REPS).map(|_| calib.run()));
        (n, spent) = (n + 1, spent + s);
        correct &= ok;
    }
    correct
}

fn run(args: &Args) -> Outcome {
    let mut setups = Setups::default();
    let correct = setup_batch(args, &mut setups);
    let mut out = std::thread::scope(|sc| {
        sc.spawn(|| measure(args, &mut setups))
            .join()
            .expect("measurement completed")
    });
    out.correct &= correct;
    out
}

fn measure(args: &Args, setups: &mut Setups) -> Outcome {
    let mut text = String::new();
    let mut tr = Tracer::new(args.trace);
    let mut chk = Checker::new(&args.workload, args.seed, !args.pin);
    let (mut w, s, mut correct) = setup(args, &mut tr, &mut chk);
    setups.wall_s.push(s);
    let kinds = (0..w.round()).map(|i| w.kind(i)).max().unwrap_or(0) + 1;
    if args.pin {
        for i in w.round()..w.distinct() {
            correct &= checked_op(w.as_mut(), i, &mut tr, &mut chk).0.is_some();
        }
        let seed_field = if args.workload == "paper-grid" {
            "*".to_string()
        } else {
            args.seed.to_string()
        };
        for line in chk.pin_lines(&args.workload, &seed_field) {
            let _ = writeln!(text, "{line}");
        }
        return Outcome {
            text,
            correct,
            attempted: w.distinct() as u64,
            failed: 0,
            metrics: Vec::new(),
        };
    }

    let mut metrics = Vec::new();
    let (timed, traced) = if args.trace {
        // Half the time untraced, half traced: the difference is the
        // tracing overhead.
        tr.set_on(false);
        let untraced = timed_loop(w.as_mut(), &mut tr, &mut chk, args.seconds / 2.0);
        tr.set_on(true);
        let root = tr.begin("bench", "bench.traced");
        let traced = timed_loop(w.as_mut(), &mut tr, &mut chk, args.seconds / 2.0);
        tr.end(root);
        (untraced, Some(traced))
    } else {
        (
            timed_loop(w.as_mut(), &mut tr, &mut chk, args.seconds),
            None,
        )
    };
    correct &= w.verify(&mut text);
    // Read before the second set-up batch, which runs beside the live
    // workload and would add its own footprint to the peak.
    let rss = peak_rss_mb();
    correct &= setup_batch(args, setups);
    let setup_s = setups.setup_s();
    let attempted = timed.attempted + traced.as_ref().map_or(0, |t| t.attempted);
    let failed = timed.failed + traced.as_ref().map_or(0, |t| t.failed);
    let _ = writeln!(
        text,
        "metric ops_per_s {:.4} 1/s on the reference host (raw_ops_per_s {:.4} 1/s at host_speed {:.4}; fast decile of {} distinct ops and {} calibration runs)",
        timed.ops_per_s(),
        timed.raw_ops_per_s(),
        timed.host_speed(),
        timed.per_key.len(),
        timed.calib_ms.len()
    );
    let _ = writeln!(
        text,
        "metric wall_ops_per_s {:.4} 1/s ({} ops in {:.3} s)",
        timed.wall_ops_per_s(),
        timed.attempted - timed.failed,
        timed.wall_s
    );
    let _ = writeln!(
        text,
        "metric op_ms_p50 {:.4} ms (n={})",
        timed.p50(kinds),
        timed.lat.len()
    );
    match timed.p90() {
        Some(v) => {
            let _ = writeln!(text, "metric op_ms_p90 {v:.4} ms (n={})", timed.lat.len());
        }
        None => {
            let _ = writeln!(
                text,
                "metric op_ms_p90 not reported: {} samples, needs 100 for ten beyond it",
                timed.lat.len()
            );
        }
    }
    let _ = writeln!(
        text,
        "metric setup_s {setup_s:.4} s on the reference host (of {} set-ups: fast decile {:.4} s, median {:.4} s)",
        setups.wall_s.len(),
        p10(&setups.wall_s),
        median(&setups.wall_s)
    );
    let _ = writeln!(text, "metric peak_rss_mb {rss:.2} MB");
    let _ = writeln!(
        text,
        "metric error_rate {} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );

    if let Some(traced) = traced {
        let _ = writeln!(
            text,
            "tracing overhead: traced {:.4} - untraced {:.4} = {:.4} ops/s",
            traced.ops_per_s(),
            timed.ops_per_s(),
            traced.ops_per_s() - timed.ops_per_s()
        );
        let root = tr.last("bench.traced").expect("the traced loop ran");
        let wall_ns = tr.spans()[root].dur_ns() as f64;
        let re = w.replay(&mut tr, args.seed, &mut text);
        correct &= re.ok;
        let mut split: BTreeMap<&str, f64> = tr
            .self_split(root)
            .into_iter()
            .map(|(k, v)| (k, v as f64))
            .collect();
        if !re.refine.is_empty() {
            split.remove(re.op_layer);
            split.extend(re.refine);
        }
        let total: f64 = split.values().sum();
        let _ = writeln!(text, "split of the traced wall ({:.3} ms):", wall_ns / 1e6);
        for (layer, ns) in &split {
            let _ = writeln!(
                text,
                "  {layer:<13} {:>12.3} ms {:>6.2}%",
                ns / 1e6,
                100.0 * ns / wall_ns
            );
        }
        let _ = writeln!(
            text,
            "  {:<13} {:>12.3} ms (traced wall {:.3} ms)",
            "sum",
            total / 1e6,
            wall_ns / 1e6
        );
        correct &= (total - wall_ns).abs() <= 1e-6 * wall_ns + 1e3;
        metrics = layer_metrics(&tr);
        for (name, value, unit) in &metrics {
            let _ = writeln!(text, "layer {name} {value:.4} {unit}");
        }
        write_trace(args, &tr, &mut text);
    } else {
        metrics.push(("ops_per_s", timed.ops_per_s(), "1/s"));
        metrics.push(("setup_s", setup_s, "s"));
        metrics.push(("peak_rss_mb", rss, "MB"));
    }
    correct &= metrics.iter().all(|m| m.1.is_finite());
    Outcome {
        text,
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
    }
}

/// The per-layer metrics every workload's traced run measures.
fn layer_metrics(tr: &Tracer) -> Vec<(&'static str, f64, &'static str)> {
    let p50 = |name: &str| {
        let d = tr.durations_us(name);
        if d.is_empty() {
            f64::NAN
        } else {
            median(&d)
        }
    };
    let instret = tr.counter("sim.instret") as f64;
    vec![
        ("xcc.compile_us", p50("xcc.compile"), "us"),
        ("kernels.quantize_us", p50("kernels.quantize"), "us"),
        ("kernels.readback_us", p50("kernels.readback"), "us"),
        ("sim.cold_load_us", p50("sim.cold_load"), "us"),
        ("sim.restore_us", p50("sim.restore"), "us"),
        ("sim.run_us", p50("sim.run"), "us"),
        (
            "sim.mips",
            instret / tr.counter("sim.run_ns") as f64 * 1e3,
            "Minstr/s",
        ),
        (
            "sim.instret_per_launch",
            instret / tr.counter("sim.launches") as f64,
            "count",
        ),
        (
            "sim.trace_coverage",
            tr.counter("sim.trace_retired") as f64 / instret,
            "ratio",
        ),
    ]
}

fn write_trace(args: &Args, tr: &Tracer, text: &mut String) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_jsonl()));
    match written {
        Ok(()) => {
            let _ = writeln!(
                text,
                "spans: {} written to {}",
                tr.spans().len(),
                path.display()
            );
        }
        Err(e) => {
            let _ = writeln!(text, "spans: not written to {}: {e}", path.display());
        }
    }
}

fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            // JSON has no NaN; a run with one is already marked incorrect.
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
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
            "perfbench: refusing to measure with {} set: it changes the program",
            set.join(", ")
        );
        return ExitCode::from(3);
    }
    println!(
        "host: nproc={} cpu=\"{}\" rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        cpu_model(),
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = run(&args);
    print!("{}", out.text);
    if !args.pin {
        println!("{}", json(&out));
    }
    ExitCode::SUCCESS
}
