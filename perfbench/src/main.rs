//! `perfbench` — open-loop socket benchmark of `zipline-serverd`.
//!
//! ```text
//! perfbench --workload sensor_gd|dns_auto|flows_durable --seed N
//!           --seconds S --trace 0|1 [--serverd PATH] [--work-dir DIR]
//! ```
//!
//! `--trace 0` spawns the real server, streams the seeded workload to it
//! over loopback TCP from one process (paced streams, then flood streams,
//! each one fresh), verifies every restored byte and prints the end-to-end
//! metrics. `--trace 1` repeats the socket phases with client
//! spans, replays the same inputs through the engine layers in process and
//! prints the per-layer metrics. The last line of standard output is the
//! JSON result; the exit code is non-zero on any verification failure.
//! See `README.md` for the workloads and the metric table.

mod client;
mod daemon;
mod inputs;
mod replay;
mod report;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use client::{Pace, PhaseOutcome, Session};
use daemon::Daemon;
use inputs::{Inputs, Workload};
use report::{quantile, Metrics, END_TO_END, PER_LAYER};

/// Offered load of the paced phase, records per second.
const PACED_RATE: f64 = 50_000.0;

/// Server spawns per run; `setup_s` is their trimmed mean. A single
/// set-up is bimodal (the server's accept loop polls every 2 ms, and a
/// connect either lands before its first poll or waits for the next one),
/// so the median of a run's set-ups flips between the two modes from run
/// to run while a mean stays put; trimming drops the odd disk stall.
const SETUP_RUNS: usize = 15;

/// Hang guard: how long a phase may overrun its schedule before the
/// server is killed and the unrestored records count as failed.
const GRACE: Duration = Duration::from_secs(5);

/// Shares of `--seconds` spent in the paced and the flood phase.
const PACED_SHARE: f64 = 0.3;
const FLOOD_SHARE: f64 = 0.6;

/// Phase numbers: each phase's inputs and stream or flow ids are its own.
const PHASE_PACED: u64 = 1;
const PHASE_FLOOD: u64 = 100;

/// Untraced/traced flood stream pairs of a traced run, for
/// `trace.overhead_pct`.
const OVERHEAD_PAIRS: u64 = 5;

/// Bound on the sender's p99 lateness in a paced stream: a stream over it
/// did not offer the scheduled load, so its latencies are not used.
const LATE_BOUND_MS: f64 = 1.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serverd: PathBuf,
    work: PathBuf,
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "perfbench: {problem}\n\
         usage: perfbench --workload sensor_gd|dns_auto|flows_durable --seed N\n\
         \x20                --seconds S --trace 0|1 [--serverd PATH] [--work-dir DIR]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let exe_dir = std::env::current_exe()
        .map_err(|e| format!("locating the benchmark binary: {e}"))?
        .parent()
        .map(PathBuf::from)
        .unwrap_or_default();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut serverd = exe_dir.join("zipline-serverd");
    let mut work = exe_dir.join("perfbench-work");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("a number of seconds in (0, 60]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--serverd" => serverd = PathBuf::from(value),
            "--work-dir" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            serverd,
            work,
        }),
        _ => Err("--workload, --seed, --seconds and --trace are required".into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => return usage(&problem),
    };
    if !args.serverd.is_file() {
        eprintln!("perfbench: no server binary at {}", args.serverd.display());
        return ExitCode::FAILURE;
    }
    let work = args.work.join(format!("run-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&work));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let probe_before = reference_loop_ms();
    let outcome = if args.trace {
        traced(&args, &work)
    } else {
        untraced(&args, &work)
    };
    let probe_after = reference_loop_ms();
    remove_and_settle(&work);
    match outcome {
        Ok(mut run) => {
            run.provenance.push((
                "reference_loop_ms".into(),
                format!("[{probe_before}, {probe_after}]"),
            ));
            run.print(&args)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run measured and whether it verified.
struct Run {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    provenance: Vec<(String, String)>,
}

impl Run {
    fn new() -> Self {
        Self {
            metrics: Metrics::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            provenance: Vec::new(),
        }
    }

    /// Counts a phase's records and problems into the run.
    fn absorb(&mut self, phase: &str, outcome: &PhaseOutcome) {
        self.attempted += outcome.records;
        self.failed += outcome.failed();
        self.provenance
            .push((format!("{phase}_records"), outcome.records.to_string()));
        self.errors
            .extend(outcome.errors.iter().map(|e| format!("{phase}: {e}")));
    }

    fn print(self, args: &Args) -> ExitCode {
        let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
        let correct = self.failed == 0 && self.errors.is_empty();
        let mut provenance: Vec<(String, String)> = [
            ("workload", report::json_string(args.workload.name())),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("transport", report::json_string("loopback TCP")),
            (
                "available_parallelism",
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .to_string(),
            ),
            ("rustc", report::json_string(&rustc_version())),
            ("paced_rate", PACED_RATE.to_string()),
            (
                "note",
                report::json_string(
                    "end-to-end metrics come only from untraced runs (--trace 0); \
                     traced runs (--trace 1) report per-layer metrics only",
                ),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        provenance.extend(self.provenance);
        let fields: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("{}: {v}", report::json_string(k)))
            .collect();
        println!("provenance: {{{}}}", fields.join(", "));
        for e in &self.errors {
            println!("error: {e}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{:<32} {fail_frac} ({} of {} records)",
            "fail_frac", self.failed, self.attempted
        );
        for (name, unit) in names {
            if let Some(value) = self.metrics.get(name) {
                println!("{name:<32} {value:.6} {unit}");
            }
        }
        match report::result_line(
            correct,
            self.attempted.max(1),
            self.failed,
            names,
            &self.metrics,
        ) {
            Ok(line) => {
                println!("{line}");
                if correct {
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
}

/// Deletes a scratch directory and settles its filesystem, so the next
/// run does not inherit its writeback.
fn remove_and_settle(dir: &std::path::Path) {
    drop(std::fs::remove_dir_all(dir));
    if let Some(parent) = dir.parent() {
        settle_filesystem(parent);
    }
}

/// Writes back everything the filesystem holding `dir` still has dirty
/// (`syncfs(2)`): journal data and deleted stores of earlier runs and
/// set-ups then land before a timed set-up instead of inside it.
fn settle_filesystem(dir: &std::path::Path) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    if let Ok(dir) = std::fs::File::open(dir) {
        // SAFETY: `dir` keeps the descriptor open for the whole call, and
        // `syncfs` only reads it.
        unsafe { syncfs(dir.as_raw_fd()) };
    }
}

/// Times a fixed CPU-bound loop owned by the benchmark, so a result shows
/// how fast the host ran around it. Shared hosts drift by up to 2x over
/// minutes, which moves every CPU-bound metric with them.
fn reference_loop_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..(1 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn store_dir(args: &Args, work: &std::path::Path, name: &str) -> Option<PathBuf> {
    args.workload.durable().then(|| work.join(name))
}

fn engine_config() -> zipline_engine::EngineConfig {
    zipline::host::HostPathConfig::paper_default().engine
}

/// Spawns a server and opens `phase`'s session on it, timing both.
fn spawn_and_open<'a>(
    args: &Args,
    work: &std::path::Path,
    n: usize,
    inputs: &'a Inputs,
    phase: u64,
    trace: bool,
) -> Result<(Daemon, Session<'a>, Duration), String> {
    let started = Instant::now();
    let store = store_dir(args, work, &format!("store-{n}"));
    let daemon = Daemon::spawn(&args.serverd, args.workload.backend(), store.as_deref())?;
    let session = Session::open(
        daemon.addr,
        inputs,
        engine_config(),
        phase,
        trace,
        started + GRACE,
    )?;
    Ok((daemon, session, started.elapsed()))
}

/// Opens a session for `phase` on a running server.
fn open<'a>(
    daemon: &Daemon,
    inputs: &'a Inputs,
    phase: u64,
    trace: bool,
) -> Result<Session<'a>, String> {
    Session::open(
        daemon.addr,
        inputs,
        engine_config(),
        phase,
        trace,
        Instant::now() + GRACE,
    )
}

/// Mean of the middle 60% of `values`.
fn trimmed_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 5;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// Input megabytes verified per second.
fn goodput_mbps(outcome: &PhaseOutcome) -> f64 {
    (outcome.ok * inputs::RECORD_BYTES as u64) as f64 / 1e6 / outcome.elapsed.as_secs_f64()
}

fn to_ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// Ends the run's server: a clean shutdown if every phase finished, a kill
/// (the hang guard) otherwise.
fn stop(mut daemon: Daemon, run: &mut Run, expired: bool) {
    if expired {
        daemon.kill();
        return;
    }
    if let Err(e) = daemon.shutdown() {
        run.errors.push(e);
    }
}

/// `--trace 0`: the end-to-end metrics.
fn untraced(args: &Args, work: &std::path::Path) -> Result<Run, String> {
    let mut run = Run::new();
    let paced_inputs = Inputs::new(args.workload, args.seed, PHASE_PACED);

    // Set-up: spawn until every hello (or FLOW_OPENED) is answered, several
    // times, each on a settled filesystem; the last server and session
    // carry on into the phases. The others are killed and their stores
    // deleted at once: a graceful drain of every set-up would add journal
    // syncs that slow the later set-ups.
    let mut setup = Vec::new();
    let mut kept = None;
    for n in 0..SETUP_RUNS {
        settle_filesystem(work);
        let (mut daemon, session, took) =
            spawn_and_open(args, work, n, &paced_inputs, PHASE_PACED, false)?;
        setup.push(took.as_secs_f64());
        if n + 1 < SETUP_RUNS {
            drop(session);
            daemon.kill();
            if let Some(dir) = store_dir(args, work, &format!("store-{n}")) {
                drop(std::fs::remove_dir_all(dir));
            }
        } else {
            kept = Some((daemon, session));
        }
    }
    let (daemon, session) = kept.expect("at least one set-up run");
    run.provenance
        .push(("setup_s".into(), format!("{setup:?}")));
    run.metrics.insert("setup_s", trimmed_mean(&setup));

    // Paced: a few fresh streams back to back, the first on the last
    // set-up's session; latency quantiles are the medians of the streams'
    // quantiles, so one disturbed stream cannot move them. A stream whose
    // sender ran late did not offer the scheduled load and is left out.
    let (mut p50, mut p99, mut late) = (Vec::new(), Vec::new(), Vec::new());
    let (mut paced_bytes, mut paced_socket_bytes, mut samples) = (0, 0, 0);
    let mut session = Some(session);
    let streams = args.workload.paced_streams();
    for k in 0..streams {
        let phase = PHASE_PACED + k;
        let inputs = Inputs::new(args.workload, args.seed, phase);
        let session = match session.take() {
            Some(first) => first,
            None => open(&daemon, &inputs, phase, false)?,
        };
        let seconds = args.seconds * PACED_SHARE / streams as f64;
        let paced = session.run(Pace::Paced(PACED_RATE), seconds, GRACE);
        run.absorb(&format!("paced{k}"), &paced);
        if paced.expired {
            stop(daemon, &mut run, true);
            return Ok(run);
        }
        let stream_late = quantile(&to_ms(&paced.late_ns), 0.99);
        late.push(stream_late);
        paced_bytes += paced.bytes;
        paced_socket_bytes += paced.socket_bytes;
        if stream_late <= LATE_BOUND_MS {
            let latencies = to_ms(&paced.latencies_ns);
            samples += latencies.len();
            p50.push(quantile(&latencies, 0.50));
            p99.push(quantile(&latencies, 0.99));
        }
    }
    if p50.len() * 2 <= streams as usize {
        run.errors.push(format!(
            "paced phase invalid: the sender's p99 lateness exceeded {LATE_BOUND_MS} ms \
             in {} of {streams} streams",
            streams as usize - p50.len()
        ));
    }
    run.provenance
        .push(("latency_samples".into(), samples.to_string()));
    run.provenance
        .push(("paced_late_p99_ms".into(), format!("{late:?}")));
    run.provenance
        .push(("paced_p50_ms".into(), format!("{p50:?}")));
    run.provenance
        .push(("paced_p99_ms".into(), format!("{p99:?}")));
    run.metrics.insert("p50_ms", quantile(&p50, 0.5));
    run.metrics.insert("p99_ms", quantile(&p99, 0.5));
    run.metrics.insert(
        "ratio",
        paced_bytes as f64 / paced_socket_bytes.max(1) as f64,
    );

    // Flood: many short fresh streams back to back. Goodput on two cores
    // shared by client and server settles into a fast or a slow mode per
    // stream; a trimmed mean over many streams is steadier than one long
    // stream.
    let (mut goodput, mut cpu_per_mb) = (Vec::new(), Vec::new());
    let streams = args.workload.flood_streams();
    for k in 0..streams {
        let phase = PHASE_FLOOD + k;
        let inputs = Inputs::new(args.workload, args.seed, phase);
        let session = open(&daemon, &inputs, phase, false)?;
        let cpu_before = daemon.cpu_ms()?;
        let flood = session.run(
            Pace::Flood,
            args.seconds * FLOOD_SHARE / streams as f64,
            GRACE,
        );
        let cpu_after = daemon.cpu_ms()?;
        run.absorb(&format!("flood{k}"), &flood);
        if flood.expired {
            stop(daemon, &mut run, true);
            return Ok(run);
        }
        goodput.push(goodput_mbps(&flood));
        cpu_per_mb.push((cpu_after - cpu_before) / (flood.bytes as f64 / 1e6).max(1e-9));
    }
    run.provenance
        .push(("flood_goodput_mbps".into(), format!("{goodput:?}")));
    run.provenance.push((
        "flood_server_cpu_ms_per_mb".into(),
        format!("{cpu_per_mb:?}"),
    ));
    run.metrics.insert("goodput_mbps", trimmed_mean(&goodput));
    run.metrics
        .insert("server_cpu_ms_per_mb", trimmed_mean(&cpu_per_mb));
    run.metrics.insert("server_rss_mb", daemon.peak_rss_mb()?);
    stop(daemon, &mut run, false);
    Ok(run)
}

/// `--trace 1`: the per-layer metrics.
fn traced(args: &Args, work: &std::path::Path) -> Result<Run, String> {
    let mut run = Run::new();
    let paced_inputs = Inputs::new(args.workload, args.seed, PHASE_PACED);

    // The socket client with spans around its own calls.
    let (daemon, session, _) = spawn_and_open(args, work, 0, &paced_inputs, PHASE_PACED, true)?;
    let paced = session.run(Pace::Paced(PACED_RATE), args.seconds * PACED_SHARE, GRACE);
    run.absorb("paced", &paced);
    if paced.expired {
        stop(daemon, &mut run, true);
        return Ok(run);
    }
    // Untraced and traced flood streams on the same inputs, alternated in
    // pairs (untraced first, then traced first, ...) so neither side always
    // runs first; `trace.overhead_pct` compares their trimmed means.
    let flood_seconds = args.seconds * FLOOD_SHARE / (2 * OVERHEAD_PAIRS) as f64;
    let (mut untraced_floods, mut traced_floods) = (Vec::new(), Vec::new());
    for k in 0..2 * OVERHEAD_PAIRS {
        let trace = (k % 2 == 0) == (k / 2 % 2 == 1);
        let phase = PHASE_FLOOD + k;
        let inputs = Inputs::new(args.workload, args.seed, PHASE_FLOOD).with_ids(phase);
        let flood = open(&daemon, &inputs, phase, trace)?.run(Pace::Flood, flood_seconds, GRACE);
        run.absorb(&format!("flood{k}"), &flood);
        if flood.expired {
            stop(daemon, &mut run, true);
            return Ok(run);
        }
        if trace {
            traced_floods.push(flood);
        } else {
            untraced_floods.push(flood);
        }
    }
    stop(daemon, &mut run, false);
    let untraced_goodput: Vec<f64> = untraced_floods.iter().map(goodput_mbps).collect();
    let traced_goodput: Vec<f64> = traced_floods.iter().map(goodput_mbps).collect();
    run.provenance.push((
        "flood_goodput_mbps_untraced".into(),
        format!("{untraced_goodput:?}"),
    ));
    run.provenance.push((
        "flood_goodput_mbps_traced".into(),
        format!("{traced_goodput:?}"),
    ));

    let m = &mut run.metrics;
    m.insert("gen.late_p99_ms", quantile(&to_ms(&paced.late_ns), 0.99));
    let spans: Vec<&PhaseOutcome> = std::iter::once(&paced).chain(&traced_floods).collect();
    let sum = |f: fn(&PhaseOutcome) -> u64| spans.iter().map(|o| f(o)).sum::<u64>() as f64;
    m.insert(
        "wire.encode_ns_per_rec",
        sum(|o| o.encode_ns) / sum(|o| o.records).max(1.0),
    );
    m.insert(
        "wire.decode_ns_per_frame",
        sum(|o| o.decode_ns) / sum(|o| o.frames).max(1.0),
    );
    m.insert(
        "wire.frames_per_rec",
        paced.frames as f64 / paced.records.max(1) as f64,
    );
    m.insert(
        "wire.overhead_bytes_per_frame",
        paced.socket_bytes.saturating_sub(paced.payload_bytes) as f64 / paced.frames.max(1) as f64,
    );
    m.insert(
        "server.backpressure_ms",
        traced_floods.iter().map(|o| o.write_ns).sum::<u64>() as f64 / 1e6,
    );
    m.insert(
        "decode.ns_per_payload",
        sum(|o| o.restore_ns) / sum(|o| o.payloads).max(1.0),
    );
    m.insert(
        "decode.verify_failures",
        std::iter::once(&paced)
            .chain(&untraced_floods)
            .chain(&traced_floods)
            .map(|o| o.verify_failures)
            .sum::<u64>() as f64,
    );
    let untraced_goodput = trimmed_mean(&untraced_goodput);
    m.insert(
        "trace.overhead_pct",
        (untraced_goodput - trimmed_mean(&traced_goodput)) / untraced_goodput * 100.0,
    );

    // The same inputs in process: pipeline, router, codecs and journal.
    let plan = replay::Plan {
        rate: PACED_RATE,
        paced_seconds: args.seconds * PACED_SHARE / 2.0,
        work: work.to_path_buf(),
    };
    replay::run(args.workload, args.seed, &plan, m)?;
    Ok(run)
}
