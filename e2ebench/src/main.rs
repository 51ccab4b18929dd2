//! # mira-e2ebench — the end-to-end benchmark of the Mira pipeline
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <admit|query|whatif> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives the library through its public functions in
//! a closed loop: each call returns before the next is made, as an
//! in-process caller blocks on each answer. The measured window gives
//! its time to the workload's own operation, one of the three below.
//! Since every end-to-end metric is reported on every workload, the run
//! also makes the fewest operations of each other kind that leave
//! [`stats::MIN_BEYOND`] samples beyond that operation's reported tail
//! ([`others_min_ops`]), raised where that few spread too much from run
//! to run ([`Workload::steady_min`]): 12 admit passes (372 admissions),
//! 20000 queries and 100 what-if cycles. They are spread evenly over the window's
//! rounds of about [`ROUND_S`] seconds, between rounds of the own
//! operation, so their few samples see the same drift of the host as
//! the window rather than one moment of it.
//!
//! * **admit** — cold model generation, the paper's headline cost. A
//!   pass loads a fresh `MachineFleet` from four description files
//!   (`generic-x86_64`, `avx2-fma`, a seeded bandwidth variant and a
//!   seeded cache variant), then calls `admit_source` for the 7 kernels
//!   of the serving benchmark, the 11 Table-I corpus functions and 13
//!   seeded generated functions (some files hold several), in a seeded
//!   order, and answers each new pair once. Loads `minic`, `vcc`,
//!   `core`, `mem`, `roofline` and the `serve` build.
//! * **query** — steady-state serving: single `ServeIndex::query` +
//!   `place` calls over all 72 kernel × machine pairs of a fleet of the
//!   18 fixed kernels, with log-spread seeded sizes so resident,
//!   nest-captured and streaming placements all occur. No cache: only
//!   `serve` bytecode evaluation.
//! * **whatif** — the "machine I do not have" loop: a seeded edit of one
//!   description file (bandwidth, peak or cache size),
//!   `MachineFleet::reload`, `crossover_table("n", …, 2, 512)` over every
//!   pair, and a Zipf-skewed burst of 64 to 8192 queries through an
//!   `AnswerCache`. Loads the analysis layers for all kernels on one
//!   machine, the table and the cache.
//!
//! End-to-end metrics come from untraced runs (`--trace 0`): set-up time,
//! per-kernel admit latency (p50, p90) and pairs admitted per second,
//! query latency (p50, p99) and queries per second, what-if cycle
//! latency (p50, p90), and peak resident memory. Refused operations are
//! counted in the result's `attempted` / `failed`.
//!
//! A traced run (`--trace 1`) alternates untraced rounds of the window
//! with rounds inside a probe capture; each half makes the other
//! operations in full. Captured admit passes replay what
//! `admit_source` does per machine, one public call per span. It prints
//! the per-layer metrics, writes the Chrome trace and a self-time table
//! to `.bench_out/`, and reports `probe.overhead_pct`: the traced median
//! of the workload's own operation over the untraced one, minus one.
//!
//! Which end-to-end metric each layer metric should move:
//!
//! | layer metrics | moves | on |
//! |---|---|---|
//! | `minic.frontend_ms`, `vcc.compile_ms`, `core.analyze_object_ms`, `mem.analyze_program_ms`, `roofline.analyze_ms`, `serve.build_ms`, `serve.first_place_us` | `admit_ms_*`, `admit_per_s`; `whatif_ms_*` (through reload) | admit, whatif; not query |
//! | `mem.nest_model_ratio`, `serve.ops_len`, `serve.cse_hits` (exact counts) | explain `query_us_*` | query |
//! | `serve.query_build_ns`, `serve.place_ns`, `serve.run_batch_qps`, `serve.sharded_qps`, `roofline.place_us` | `query_*` | query; little on whatif; not admit |
//! | `arch.load_dir_ms`, `serve.reload_ms`, `serve.reload_recompiled`, `serve.crossover_table_ms`, `serve.cache_hit_rate`, `serve.cache_invalidations`, `serve.place_cached_ns` | `whatif_ms_*` | whatif; not query |
//! | `serve.crossover_disagree_ratio` (table rows that disagree with the exhaustive sweep) | no timing; falls to 0 when every crossover is found | whatif |
//!
//! `mem.analyze_program_ms` times a separate call on the same program;
//! `roofline.analyze_ms` contains that work again.
//!
//! Every run checks its answers: each query against a reference answer
//! (and a rotating subsample against the tree walk,
//! `KernelRoofline::place`, bit for bit), batched answers and a subsample of cached answers
//! against single uncached ones, every admit pass's first answers
//! against the first pass (and the traced replay against the fleet),
//! and every crossover-table row against the exhaustive tree-walk
//! `crossover_sweep`. A wrong answer fails the run. A table row that
//! disagrees with the sweep is the known single-bisection defect (the
//! table call succeeds; the tree walk and the compiled tier share the
//! bisection): such rows are listed on every run and counted in the
//! per-layer metric
//! `serve.crossover_disagree_ratio`, not as failed operations.

mod inputs;
mod layers;
mod rng;
mod stats;
mod work;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mira_probe as probe;

use stats::{median, summarize, Summary};
use work::{Samples, State};

/// Where traced runs leave their Chrome trace and self-time table, and
/// every run its machine description files while it runs (relative to
/// the working directory).
const OUT_DIR: &str = ".bench_out";
/// Length of one round of the window, in seconds: the query workload
/// re-derives a tree-walk subsample after each round, and a traced run
/// alternates untraced and traced rounds.
const ROUND_S: f64 = 0.5;
/// Complete set-ups timed per untraced run, after one untimed warm-up
/// set-up: the run's own, then the rest spread evenly over the window's
/// rounds (each dropped once timed), so that their median sees the
/// window's drift of the host. `setup_s` is that median.
const SETUP_REPS: usize = 11;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    Admit,
    Query,
    Whatif,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "admit" => Some(Workload::Admit),
            "query" => Some(Workload::Query),
            "whatif" => Some(Workload::Whatif),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Admit => "admit",
            Workload::Query => "query",
            Workload::Whatif => "whatif",
        }
    }

    const ALL: [Workload; 3] = [Workload::Admit, Workload::Query, Workload::Whatif];

    /// The tail percentile reported for the operation's latency.
    fn tail(self) -> f64 {
        match self {
            Workload::Query => 0.99,
            Workload::Admit | Workload::Whatif => 0.9,
        }
    }

    /// The fewest operations of this kind a window of another workload
    /// makes so that their metrics are steady from run to run, beyond
    /// the tail minimum of [`stats::fewest_for`]. With only that minimum
    /// (124 admissions), `admit_ms_p50` on the query workload spread
    /// 17.7% (IQR over median, five seeds, a shared 2-vCPU x86-64 host),
    /// and 4.8% with 372; the median of a few
    /// admissions of very different kernels moves with which of them
    /// meet a slow moment of the host. Queries are cheap enough that
    /// 20000 cost about 0.1 s of a window.
    fn steady_min(self) -> usize {
        match self {
            Workload::Admit => 360,
            Workload::Query => 20_000,
            Workload::Whatif => 0,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
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
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Time one complete set-up, into its own directory under `root`.
fn timed_setup(seed: u64, root: &std::path::Path) -> (f64, State) {
    let t = Instant::now();
    let state = State::setup(seed, root);
    (t.elapsed().as_secs_f64(), state)
}

/// Run `op` until `budget_s` seconds of it have been measured and at
/// least `min_ops` operations made, ending admissions on a whole pass so
/// that no admit pass is in progress between rounds (peak memory then
/// does not depend on where a round cut a pass). Returns the operations
/// made.
fn run_op(
    state: &mut State,
    samples: &mut Samples,
    op: Workload,
    budget_s: f64,
    min_ops: u64,
    traced: bool,
) -> u64 {
    match op {
        Workload::Admit => {
            let (busy, mut n, mut open) = (samples.admit_busy_s, 0, false);
            while samples.admit_busy_s - busy < budget_s || n < min_ops || open {
                open = state.admit_step(samples, traced);
                n += 1;
            }
            n
        }
        Workload::Query => state.query_slice(samples, budget_s, min_ops, traced),
        Workload::Whatif => {
            let (busy, mut n) = (samples.whatif_busy_s, 0);
            while samples.whatif_busy_s - busy < budget_s || n < min_ops {
                state.whatif_cycle(samples);
                n += 1;
            }
            n
        }
    }
}

/// Operations of kind `op` a run of another workload makes during its
/// window: the fewest that leave [`stats::MIN_BEYOND`] samples beyond
/// `op`'s reported tail, rounded up to whole admit passes so that every
/// kernel counts alike.
fn others_min_ops(op: Workload, state: &State) -> u64 {
    let n = stats::fewest_for(op.tail()).max(op.steady_min());
    let n = match op {
        Workload::Admit => n.div_ceil(state.admit_len()) * state.admit_len(),
        Workload::Query | Workload::Whatif => n,
    };
    n as u64
}

/// The other operations of a window, [`others_min_ops`] of each kind,
/// spread evenly over its rounds (admissions in whole passes).
struct Others {
    w: Workload,
    rounds: u64,
    round: u64,
    /// Operations of each kind made so far, in [`Workload::ALL`] order.
    done: [u64; 3],
}

impl Others {
    fn new(w: Workload, rounds: usize) -> Others {
        Others {
            w,
            rounds: rounds as u64,
            round: 0,
            done: [0; 3],
        }
    }

    /// The share of the other operations due by the end of the next
    /// round.
    fn after_round(&mut self, state: &mut State, samples: &mut Samples, traced: bool) {
        self.round += 1;
        for (i, op) in Workload::ALL.into_iter().enumerate() {
            if op == self.w {
                continue;
            }
            let due = (others_min_ops(op, state) * self.round).div_ceil(self.rounds);
            if due > self.done[i] {
                self.done[i] += run_op(state, samples, op, 0.0, due - self.done[i], traced);
            }
        }
    }
}

/// Rounds of about [`ROUND_S`] in a window of `seconds` (at least 1).
fn rounds_of(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).max(1)
}

/// The three latency summaries of a window.
struct Summaries {
    admit: Summary,
    query: Summary,
    whatif: Summary,
}

fn summaries(s: &Samples) -> Summaries {
    let n = |v: &[f64]| v.len() as u64;
    Summaries {
        admit: summarize(&s.admit_ms, n(&s.admit_ms), Workload::Admit.tail()),
        query: summarize(
            s.query_us.samples(),
            s.query_us.seen(),
            Workload::Query.tail(),
        ),
        whatif: summarize(&s.whatif_ms, n(&s.whatif_ms), Workload::Whatif.tail()),
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut u = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two timevals, then fourteen longs), `u` is a valid writable
    // value of it, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    u.maxrss as f64 / 1024.0
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(setup_s: f64, s: &Samples, sum: &Summaries) -> Metrics {
    vec![
        ("setup_s", setup_s, "s"),
        ("admit_ms_p50", sum.admit.p50, "ms"),
        ("admit_ms_p90", sum.admit.tail, "ms"),
        ("admit_per_s", s.admit_pairs as f64 / s.admit_busy_s, "1/s"),
        ("query_us_p50", sum.query.p50, "us"),
        ("query_us_p99", sum.query.tail, "us"),
        (
            "query_qps",
            s.query_us.seen() as f64 / s.query_busy_s,
            "1/s",
        ),
        ("whatif_ms_p50", sum.whatif.p50, "ms"),
        ("whatif_ms_p90", sum.whatif.tail, "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(
    w: Workload,
    state: &State,
    trace: &probe::Trace,
    untraced: &Summaries,
    traced: &Summaries,
) -> (Metrics, String) {
    let ns = layers::nodes(trace);
    let admissions = layers::per_unit(&ns, "bench.admit");
    let layer_ms = |layer: &str| {
        let v: Vec<f64> = admissions
            .iter()
            .map(|a| a.get(layer).copied().unwrap_or(0) as f64 / 1e6)
            .collect();
        median(&v)
    };
    let med = |name: &str, scale: f64| median(&layers::durations(&ns, name)) / scale;
    let qps = |name: &str| {
        let d = layers::durations(&ns, name);
        (d.len() * work::BATCH) as f64 / (d.iter().sum::<f64>() / 1e9)
    };
    let accum = |name: &str| layers::accum_mean_ns(trace, name).unwrap_or(f64::NAN);
    let (mut ops, mut cse) = (0u64, 0u64);
    for (_, k) in state.serving().index().kernels() {
        ops += k.program().ops_len() as u64;
        cse += k.program().cse_hits();
    }
    let l = &state.layers;

    // the workload's own operation, traced over untraced; the traced
    // admission leaves out the separate `mem.analyze_program` call,
    // which `admit_source` does not make
    let traced_admit: Vec<f64> = admissions
        .iter()
        .map(|a| {
            (a.values().sum::<u64>() - a.get("mem.analyze_program").copied().unwrap_or(0)) as f64
                / 1e6
        })
        .collect();
    let overhead = match w {
        Workload::Admit => median(&traced_admit) / untraced.admit.p50,
        Workload::Query => traced.query.p50 / untraced.query.p50,
        Workload::Whatif => traced.whatif.p50 / untraced.whatif.p50,
    } - 1.0;

    let admit_layers = [
        ("minic.frontend", "minic.frontend_ms"),
        ("vcc.compile", "vcc.compile_ms"),
        ("core.analyze_object", "core.analyze_object_ms"),
        ("mem.analyze_program", "mem.analyze_program_ms"),
        ("roofline.analyze", "roofline.analyze_ms"),
        ("serve.build", "serve.build_ms"),
    ];
    let mut m: Metrics = admit_layers
        .iter()
        .map(|&(span, metric)| (metric, layer_ms(span), "ms"))
        .collect();
    m.extend([
        ("serve.first_place_us", med("serve.first_place", 1e3), "us"),
        (
            "mem.nest_model_ratio",
            l.nest_models as f64 / l.analysed.max(1) as f64,
            "ratio",
        ),
        ("serve.ops_len", ops as f64, "count"),
        ("serve.cse_hits", cse as f64, "count"),
        ("serve.query_build_ns", accum("bench.serve.query"), "ns"),
        ("serve.place_ns", accum("bench.serve.place"), "ns"),
        ("serve.run_batch_qps", qps("serve.run_batch"), "1/s"),
        ("serve.sharded_qps", qps("serve.run_batch_sharded"), "1/s"),
        (
            "roofline.place_us",
            accum("bench.roofline.place") / 1e3,
            "us",
        ),
        ("arch.load_dir_ms", med("arch.load_dir", 1e6), "ms"),
        ("serve.reload_ms", med("serve.reload", 1e6), "ms"),
        (
            "serve.reload_recompiled",
            l.recompiled as f64 / l.reloads.max(1) as f64,
            "count",
        ),
        (
            "serve.crossover_table_ms",
            med("serve.crossover_table", 1e6),
            "ms",
        ),
        (
            "serve.cache_hit_rate",
            l.cache_hits as f64 / (l.cache_hits + l.cache_misses).max(1) as f64,
            "ratio",
        ),
        (
            "serve.cache_invalidations",
            l.cache_invalidations as f64 / l.reloads.max(1) as f64,
            "count",
        ),
        (
            "serve.place_cached_ns",
            accum("bench.serve.place_cached"),
            "ns",
        ),
        (
            "serve.crossover_disagree_ratio",
            state.tally.crossover_disagreeing as f64 / state.tally.crossover_rows.max(1) as f64,
            "ratio",
        ),
        ("probe.overhead_pct", 100.0 * overhead, "%"),
    ]);

    // reconcile: the layers of one admission add up to the untraced
    // admit median within the tracing overhead
    let sum_layers: f64 = admit_layers
        .iter()
        .filter(|(span, _)| *span != "mem.analyze_program")
        .map(|(span, _)| layer_ms(span))
        .chain(["serve.first_place", "bench.admit"].map(layer_ms))
        .sum();
    let mut report = layers::table(trace, &ns);
    report.push_str(&format!(
        "per admission ({} traced; mem.analyze_program left out, roofline.analyze repeats its work): \
         sum of layer self-time medians {sum_layers:.3} ms, median traced admission {:.3} ms, \
         untraced admit_ms_p50 {:.3} ms; sum / untraced - 1 = {:+.1}%; probe.overhead_pct ({} operation) = {:+.1}%; \
         sharded batches ran on {} workers\n",
        admissions.len(),
        median(&traced_admit),
        untraced.admit.p50,
        100.0 * (sum_layers / untraced.admit.p50 - 1.0),
        w.name(),
        100.0 * overhead,
        l.sharded_workers,
    ));
    (m, report)
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_summary(label: &str, s: &Summary, unit: &str) {
    println!(
        "  {label:<8} p50 {:>10.3} {unit}  p{} {:>10.3} {unit}{}  ({} samples of {} operations; highest valid percentile {})",
        s.p50,
        s.tail_q * 100.0,
        s.tail,
        if s.tail_valid { "" } else { " (fewer than 10 samples beyond)" },
        s.n,
        s.total,
        stats::highest_valid_percentile(s.n).map_or("none".to_string(), |q| format!("p{}", q * 100.0)),
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: mira-e2ebench --workload <admit|query|whatif> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let out = PathBuf::from(OUT_DIR);
    let root = out.join(format!("{}-{}-{}", w.name(), args.seed, std::process::id()));

    // the first set-up of a process runs cold: untimed warm-up
    drop(State::setup(args.seed, &root.join("spare")));
    let (first, mut state) = timed_setup(args.seed, &root.join("run"));
    let mut setups = vec![first];

    let mut untraced = Samples::new(args.seed);
    let mut metrics;
    let mut traced_report = None;
    if args.trace {
        // untraced and traced rounds alternate, so both halves see the
        // same mix of host conditions; each half makes the other
        // operations in full
        let rounds = rounds_of(args.seconds).max(2) & !1;
        let round = args.seconds / rounds as f64;
        let mut traced = Samples::new(args.seed ^ 1);
        let mut others = [Others::new(w, rounds / 2), Others::new(w, rounds / 2)];
        let mut parts = Vec::with_capacity(rounds / 2);
        let start = Instant::now();
        for r in 0..rounds {
            if r % 2 == 0 {
                run_op(&mut state, &mut untraced, w, round, 0, false);
                others[0].after_round(&mut state, &mut untraced, false);
            } else {
                let offset = start.elapsed().as_nanos() as u64;
                let ((), part) = probe::capture(|| {
                    run_op(&mut state, &mut traced, w, round, 0, true);
                    others[1].after_round(&mut state, &mut traced, true);
                });
                parts.push((offset, part));
            }
        }
        let trace = layers::merge(parts);
        let (m, report) = per_layer(
            w,
            &state,
            &trace,
            &summaries(&untraced),
            &summaries(&traced),
        );
        metrics = m;
        let _ = std::fs::create_dir_all(&out);
        let trace_path = out.join(format!("trace-{}.json", w.name()));
        let table_path = out.join(format!("layers-{}.txt", w.name()));
        std::fs::write(&trace_path, trace.chrome_json()).expect("write Chrome trace");
        std::fs::write(&table_path, &report).expect("write self-time table");
        traced_report = Some(format!(
            "{report}wrote {} and {}\n",
            trace_path.display(),
            table_path.display()
        ));
    } else {
        let rounds = rounds_of(args.seconds);
        let mut others = Others::new(w, rounds);
        for r in 1..=rounds {
            run_op(
                &mut state,
                &mut untraced,
                w,
                args.seconds / rounds as f64,
                0,
                false,
            );
            others.after_round(&mut state, &mut untraced, false);
            while setups.len() < 1 + ((SETUP_REPS - 1) * r).div_ceil(rounds) {
                setups.push(timed_setup(args.seed, &root.join("spare")).0);
            }
        }
        metrics = end_to_end(median(&setups), &untraced, &summaries(&untraced));
    }
    let _ = std::fs::remove_dir_all(&root);

    let sum = summaries(&untraced);
    let t = &state.tally;
    println!(
        "workload {} seed {} seconds {} trace {} (one client thread, closed loop; spread over the window, {})",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        Workload::ALL
            .iter()
            .filter(|&&op| op != w)
            .map(|&op| format!("{} {}", others_min_ops(op, &state), op.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  set-up   median {:.4} s of {}: {setups:.4?}",
        median(&setups),
        setups.len()
    );
    print_summary("admit", &sum.admit, "ms");
    print_summary("query", &sum.query, "us");
    print_summary("whatif", &sum.whatif, "ms");
    println!(
        "  answers  pool {:016x}  admit pass {:016x}  what-if {:016x} over {} cycles",
        state.pool_hash,
        state.admit_hash.unwrap_or(0),
        state.whatif_hash.0,
        state.whatif_cycles
    );
    println!(
        "  failures {} of {} operations (fail_ratio {:.3e}); crossover rows disagreeing with the exhaustive sweep (known bisection defect, not counted as failures): {} of {}, pairs {:?}",
        t.failed,
        t.attempted,
        t.failed as f64 / t.attempted.max(1) as f64,
        t.crossover_disagreeing,
        t.crossover_rows,
        t.crossover_mismatches
    );
    if let Some(r) = &traced_report {
        print!("{r}");
    }
    let correct = t.wrong.is_empty() && metrics.iter().all(|(_, v, _)| v.is_finite());
    if !correct {
        println!(
            "  WRONG ANSWERS: {} (first: {:?})",
            t.wrong.len(),
            t.wrong.first()
        );
        metrics.retain(|(_, v, _)| v.is_finite());
    }
    for (name, v, unit) in &metrics {
        println!("  {name:<26} {v:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        t.attempted,
        t.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
