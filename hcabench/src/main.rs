//! End-to-end benchmark of the HCA toolchain's shipped compile paths.
//!
//! A **job** takes one kernel through the whole toolchain, cold, the way one
//! CLI invocation does: HCA (`hca_core`), `modulo_schedule`,
//! `KernelSchedule::fold`, then a simulated execution checked against the
//! independent reference interpreter. No memo cache is shared between jobs.
//! The load is a closed loop with a single client: jobs run one after
//! another, in seeded order, at the `hca-par` default width.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path hcabench/Cargo.toml -p hcabench -- \
//!     --workload table1-portfolio --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced; `--trace 1`
//! alternates untraced and traced rounds and reports the per-layer metrics
//! (see [`layer_metrics`] and `README.md` for the layer → metric → workload
//! map), the tracing overhead, and whether each counter repeats exactly.
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

use hca_arch::DspFabric;
use hca_core::{run_hca_obs, run_hca_portfolio_obs, HcaConfig};
use hca_ddg::{Ddg, DdgAnalysis};
use hca_obs::{Obs, RunMetrics};
use hca_sched::{modsched::validate, modulo_schedule, KernelSchedule};
use hca_sim::{reference_run, simulate};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Seed of the job order when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Default seed of the `synthetic-default` graphs (`--graph-seed`). The
/// graphs do not follow `--seed`: across seeds their final MIIs differ by
/// about 10% (measured over 24 seeds), which would swamp the
/// `final_mii_sum` bound, so every run of the workload compiles the same
/// graph family and `--seed` only reorders the jobs.
const SYNTHETIC_SEED: u64 = 1;

/// Iterations simulated on the short-trip workloads: the CLI's `--trip`
/// default.
const SHORT_TRIP: u64 = 16;

/// Iterations simulated on `dspstone-simulate`, long enough that the
/// simulator and reference interpreter do most of a job's work.
const LONG_TRIP: u64 = 4096;

/// Node counts of the `synthetic-default` graphs, one graph per size.
const SYNTHETIC_SIZES: [usize; 9] = [96, 128, 160, 192, 224, 256, 288, 320, 352];

/// Seconds per run spent repeating the set-up, in a batch before every
/// round. `setup_s` is the fastest of those set-ups: one takes 0.1-2 ms,
/// and on a shared host their median moves with the neighbours' load (an
/// IQR of 16-47% of the median across runs, against 3-13% for the
/// minimum), while added set-up work raises every sample, the fastest too.
const SETUP_BUDGET_S: f64 = 0.5;

/// A fixed set of inputs and the compile path they go through.
struct Workload {
    name: &'static str,
    /// Why the workload is in the benchmark.
    why: &'static str,
    /// `run_hca_portfolio` (what `hca table1` ships) instead of a single
    /// `HcaConfig::default()` run (what `hca clusterize/schedule/simulate`
    /// and `hca serve` ship).
    portfolio: bool,
    /// Simulated iterations per job.
    trip: u64,
    /// Nominal wall-clock of one round over every input on the reference
    /// host (2 cores). The round count of a run is fixed from `--seconds`
    /// and this, so every run of a commit times the same jobs and the
    /// percentiles compare like with like.
    round_s: f64,
    inputs: fn(u64) -> Vec<(String, Ddg)>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "table1-portfolio",
        why: "the four Table-1 kernels through the 5-variant portfolio that `hca table1` ships; \
              the only path through the portfolio-variant layer and cross-variant memo hits",
        portfolio: true,
        trip: SHORT_TRIP,
        round_s: 4.8,
        inputs: table1_inputs,
    },
    Workload {
        name: "synthetic-default",
        why:
            "seeded layered DDGs of 96-352 nodes through HcaConfig::default(): working sets larger \
              than any Table-1 kernel stress SEE routing, memo misses, the Mapper and fallbacks; \
              skips the portfolio layer",
        portfolio: false,
        trip: SHORT_TRIP,
        round_s: 2.0,
        inputs: synthetic_inputs,
    },
    Workload {
        name: "dspstone-simulate",
        why: "the eight DSPstone built-ins through HcaConfig::default() at a long trip: the \
              simulator and reference interpreter do most of the work, SEE little",
        portfolio: false,
        trip: LONG_TRIP,
        round_s: 1.0,
        inputs: dspstone_inputs,
    },
];

fn table1_inputs(_seed: u64) -> Vec<(String, Ddg)> {
    hca_kernels::table1_kernels()
        .into_iter()
        .map(|k| (k.name.to_string(), k.ddg))
        .collect()
}

fn synthetic_inputs(seed: u64) -> Vec<(String, Ddg)> {
    hca_kernels::synthetic::scaling_family(&SYNTHETIC_SIZES, seed)
        .into_iter()
        .map(|(n, g)| (format!("synthetic{n}"), g))
        .collect()
}

/// The DSPstone built-ins, as `hca kernels` lists them.
fn dspstone_inputs(_seed: u64) -> Vec<(String, Ddg)> {
    use hca_kernels::dspstone as d;
    [
        ("fir8", d::fir(8)),
        ("biquad", d::biquad()),
        ("matvec8", d::matvec_row(8)),
        ("dot_product", d::dot_product()),
        ("n_real_updates", d::n_real_updates(4)),
        ("convolution", d::convolution(8)),
        ("lms", d::lms(8)),
        ("matrix1x3", d::matrix1x3()),
    ]
    .into_iter()
    .map(|(n, g)| (n.to_string(), g))
    .collect()
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    graph_seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut graph_seed) = (DEFAULT_SEED, SYNTHETIC_SEED);
    let (mut seconds, mut trace) = (10.0_f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(WORKLOADS.iter().find(|w| w.name == value).ok_or_else(|| {
                    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => seed = parse(&flag, &value)?,
            "--graph-seed" => graph_seed = parse(&flag, &value)?,
            "--seconds" => seconds = parse(&flag, &value)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        workload,
        seed,
        graph_seed,
        seconds,
        trace,
    })
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {flag} value `{value}`"))
}

/// Every run measures the shipped defaults: an `HCA_*` environment knob
/// (`HCA_THREADS`, `HCA_NO_BATCH`, `HCA_LANES`, ...) would silently change
/// what is measured, so its presence is an error.
fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HCA_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the shipped defaults",
            set.join(", ")
        ))
    }
}

struct Job {
    name: String,
    ddg: Ddg,
}

/// Build the workload's inputs and check each is a well-formed loop body.
/// Everything a run does before its first timed job happens here.
fn setup(w: &Workload, seed: u64, obs: &Obs) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for (name, ddg) in (w.inputs)(seed) {
        let analysis = {
            let _span = obs.span("bench", "ddg_analysis");
            DdgAnalysis::compute(&ddg)
        };
        analysis.map_err(|e| format!("{name}: {e}"))?;
        jobs.push(Job { name, ddg });
    }
    Ok(jobs)
}

/// Set up repeatedly for `budget_s` seconds (at least once), appending the
/// time of each set-up to `times`; returns the last set-up's fabric and
/// inputs.
fn timed_setups(
    w: &Workload,
    seed: u64,
    budget_s: f64,
    times: &mut Vec<f64>,
) -> Result<(DspFabric, Vec<Job>), String> {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let fabric = DspFabric::standard(8, 8, 8);
        let jobs = setup(w, seed, &Obs::disabled())?;
        times.push(t.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= budget_s {
            return Ok((fabric, jobs));
        }
    }
}

/// The deterministic result of one job; identical on every run of a commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    final_mii: u32,
    ii: u32,
    sim_cycles: u64,
    stores_checked: usize,
    max_buffered: u32,
}

/// Take one job through the toolchain and check every output. The
/// benchmark's own spans wrap each public call (they cost nothing on a
/// disabled `obs`). The execution check is `verify_execution`'s: the
/// simulated store log must equal the reference interpreter's. A traced job
/// also records the process CPU time its HCA call took, as the counter
/// `bench.hca_cpu_us`.
fn run_job(w: &Workload, job: &Job, fabric: &DspFabric, obs: &Obs) -> Result<Outcome, String> {
    let cpu0 = obs.is_enabled().then(process_cpu_s);
    let res = {
        let _span = obs.span("bench", "hca");
        if w.portfolio {
            run_hca_portfolio_obs(&job.ddg, fabric, obs)
        } else {
            run_hca_obs(&job.ddg, fabric, &HcaConfig::default(), obs)
        }
    };
    if let Some(cpu0) = cpu0 {
        obs.counter_add("bench.hca_cpu_us", ((process_cpu_s() - cpu0) * 1e6) as u64);
    }
    let res = res.map_err(|e| format!("hca: {e}"))?;
    if !res.is_legal() {
        return Err(format!(
            "illegal clusterisation ({} coherency violations)",
            res.coherency.violations.len()
        ));
    }
    let fp = &res.final_program;
    let sched = {
        let _span = obs.span("bench", "modulo_schedule");
        modulo_schedule(fp, fabric, res.mii.final_mii)
    }
    .map_err(|e| format!("modulo_schedule: {e}"))?;
    validate(fp, fabric, &sched).map_err(|e| format!("invalid schedule: {e}"))?;
    let kernel = {
        let _span = obs.span("bench", "fold");
        KernelSchedule::fold(fp, fabric, &sched)
    };
    let reference = {
        let _span = obs.span("bench", "reference_run");
        reference_run(&job.ddg, w.trip)
    };
    let sim = {
        let _span = obs.span("bench", "simulate");
        simulate(fp, fabric, &kernel, w.trip)
    }
    .map_err(|e| format!("simulate: {e}"))?;
    if sim.stores != reference {
        return Err("simulated stores differ from the reference interpreter".into());
    }
    Ok(Outcome {
        final_mii: res.mii.final_mii,
        ii: sched.ii,
        sim_cycles: sim.cycles,
        stores_checked: sim.stores.len(),
        max_buffered: sim.buffer_high_water.iter().copied().max().unwrap_or(0),
    })
}

/// Process CPU time (user + system, summed over every thread, exited ones
/// included) in seconds, at nanosecond resolution: `hca-par` spawns scoped
/// workers per call, so only the process clock sees all of their time.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-layer sums over the jobs of one traced round.
#[derive(Default)]
struct Totals(BTreeMap<String, f64>);

impl Totals {
    fn add(&mut self, key: &str, v: f64) {
        *self.0.entry(key.to_string()).or_default() += v;
    }

    fn max(&mut self, key: &str, v: f64) {
        let e = self.0.entry(key.to_string()).or_default();
        *e = e.max(v);
    }

    fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Fold one job's observer snapshot in. Byte counters are high-water
    /// marks, so they take the maximum over jobs; everything else sums.
    /// Phases land as `<phase>#us` and `<phase>#calls`.
    fn absorb(&mut self, m: &RunMetrics) {
        for c in &m.counters {
            if c.name.ends_with("_bytes") {
                self.max(&c.name, c.value as f64);
            } else {
                self.add(&c.name, c.value as f64);
            }
        }
        for p in &m.phases {
            self.add(&format!("{}#us", p.phase), p.wall_us as f64);
            self.add(&format!("{}#calls", p.phase), p.calls as f64);
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One per-layer metric: name, unit, whether it is a count that must
/// repeat exactly between traced rounds, and its value.
type LayerMetric = (&'static str, &'static str, bool, f64);

/// The per-layer metrics of one traced round, in `BENCHMARK.json` order.
/// `see.level*_us` are busy time summed across `hca-par` workers, not self
/// time: sibling sub-problems run on several threads, so they can exceed
/// the wall-clock of their parent.
fn layer_metrics(t: &Totals) -> Vec<LayerMetric> {
    let ms = |phase: &str| t.get(&format!("{phase}#us")) / 1000.0;
    let us = |phase: &str| t.get(&format!("{phase}#us"));
    let n = |key: &str| t.get(key);
    let (hits, misses) = (n("driver.memo_hits"), n("driver.memo_misses"));
    let (explored, pruned) = (n("see.states_explored"), n("see.states_pruned"));
    let (bfs, route_hits) = (n("see.route_bfs_runs"), n("see.route_cache_hits"));
    vec![
        ("ddg.analysis_ms", "ms", false, ms("bench.ddg_analysis")),
        ("core.hca_ms", "ms", false, ms("bench.hca")),
        (
            "driver.portfolio_variant.calls",
            "count",
            true,
            n("driver.portfolio_variant#calls"),
        ),
        ("driver.memo_hits", "count", true, hits),
        ("driver.memo_misses", "count", true, misses),
        (
            "driver.memo_hit_ratio",
            "ratio",
            true,
            ratio(hits, hits + misses),
        ),
        ("driver.memo_bytes", "bytes", true, n("driver.memo_bytes")),
        ("driver.subproblems", "count", true, n("driver.subproblems")),
        ("driver.fallbacks", "count", true, n("driver.fallbacks")),
        (
            "driver.materialise_us",
            "us",
            false,
            us("driver.materialise"),
        ),
        ("driver.coherency_us", "us", false, us("driver.coherency")),
        ("see.states_explored", "count", true, explored),
        ("see.states_pruned", "count", true, pruned),
        ("see.prune_ratio", "ratio", true, ratio(pruned, explored)),
        ("see.steps", "count", true, n("see.steps")),
        ("see.lanes_scored", "count", true, n("see.lanes_scored")),
        ("see.scalar_tail", "count", true, n("see.scalar_tail")),
        ("see.route_bfs_runs", "count", true, bfs),
        ("see.route_cache_hits", "count", true, route_hits),
        (
            "see.route_hit_ratio",
            "ratio",
            true,
            ratio(route_hits, route_hits + bfs),
        ),
        (
            "see.cand_rejected_branch",
            "count",
            true,
            n("see.cand_rejected_branch"),
        ),
        (
            "see.peak_frontier_bytes",
            "bytes",
            true,
            n("see.peak_frontier_bytes"),
        ),
        ("see.level0_us", "busy-us", false, us("see.level0")),
        ("see.level1_us", "busy-us", false, us("see.level1")),
        ("see.level2_us", "busy-us", false, us("see.level2")),
        ("mapper.distribute_us", "us", false, us("mapper.distribute")),
        (
            "mapper.distribute.calls",
            "count",
            true,
            n("mapper.distribute#calls"),
        ),
        (
            "mapper.member_wires",
            "count",
            true,
            n("mapper.member_wires"),
        ),
        (
            "mapper.glue_in_wires",
            "count",
            true,
            n("mapper.glue_in_wires"),
        ),
        (
            "sched.modulo_schedule_ms",
            "ms",
            false,
            ms("bench.modulo_schedule"),
        ),
        ("sched.fold_ms", "ms", false, ms("bench.fold")),
        ("sched.ii_over_mii", "count", true, n("sched.ii_over_mii")),
        ("sim.reference_ms", "ms", false, ms("bench.reference_run")),
        ("sim.simulate_ms", "ms", false, ms("bench.simulate")),
        ("sim.stores_checked", "count", true, n("sim.stores_checked")),
        ("sim.max_buffered", "count", true, n("sim.max_buffered")),
        (
            "par.cpu_per_wall",
            "ratio",
            false,
            ratio(n("bench.hca_cpu_us"), us("bench.hca")),
        ),
    ]
}

/// Outcome of every job of a run, keyed by input index; a second result
/// for the same input must equal the first.
#[derive(Default)]
struct Results {
    per_input: BTreeMap<usize, Outcome>,
    attempted: u64,
    failed: u64,
}

impl Results {
    fn record(&mut self, idx: usize, job: &Job, r: Result<Outcome, String>) -> Option<Outcome> {
        self.attempted += 1;
        let checked = r.and_then(|o| match self.per_input.get(&idx) {
            Some(first) if *first != o => Err(format!(
                "result differs from an earlier job on the same input: {o:?} vs {first:?}"
            )),
            _ => Ok(o),
        });
        match checked {
            Ok(o) => {
                self.per_input.entry(idx).or_insert(o);
                Some(o)
            }
            Err(e) => {
                eprintln!("job failed: {}: {e}", job.name);
                self.failed += 1;
                None
            }
        }
    }

    fn correct(&self, inputs: usize) -> bool {
        self.failed == 0 && self.per_input.len() == inputs
    }

    fn final_mii_sum(&self) -> f64 {
        self.per_input
            .values()
            .map(|o| f64::from(o.final_mii))
            .sum()
    }

    fn sim_cycles(&self) -> f64 {
        self.per_input.values().map(|o| o.sim_cycles as f64).sum()
    }
}

/// splitmix64 step, for the seeded job order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The order of one round: a seeded Fisher-Yates shuffle of the inputs.
fn round_order(n: usize, rng: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it (the
/// minimum when there are fewer than eleven samples), over `(ms, input)`
/// samples: `(percentile, ms, input)`.
fn tail(samples: &[(f64, usize)]) -> (f64, f64, usize) {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let k = v.len().saturating_sub(11);
    let pct = 100.0 * (k + 1) as f64 / v.len().max(1) as f64;
    let (ms, input) = v.get(k).copied().unwrap_or((0.0, 0));
    (pct, ms, input)
}

/// Rounds a run makes: `--seconds` worth at the workload's nominal round
/// time, when one round costs `per_round` untraced rounds; at least one.
fn rounds_for(w: &Workload, seconds: f64, per_round: f64) -> usize {
    ((seconds / (w.round_s * per_round)).round() as usize).max(1)
}

/// One untraced round over every input, in seeded order: returns its
/// wall-clock seconds.
fn untraced_round(
    w: &Workload,
    jobs: &[Job],
    fabric: &DspFabric,
    rng: &mut u64,
    results: &mut Results,
    job_ms: &mut [Vec<f64>],
) -> f64 {
    let disabled = Obs::disabled();
    let start = Instant::now();
    for idx in round_order(jobs.len(), rng) {
        let t = Instant::now();
        let r = run_job(w, &jobs[idx], fabric, &disabled);
        job_ms[idx].push(t.elapsed().as_secs_f64() * 1e3);
        results.record(idx, &jobs[idx], r);
    }
    start.elapsed().as_secs_f64()
}

fn print_kernel_rows(jobs: &[Job], results: &Results, job_ms: &[Vec<f64>]) {
    println!(
        "  {:<16} {:>5} {:>11} {:>9} {:>4} {:>11}",
        "kernel", "jobs", "job_ms_p50", "final_mii", "ii", "sim_cycles"
    );
    for (idx, job) in jobs.iter().enumerate() {
        let o = results.per_input.get(&idx);
        println!(
            "  {:<16} {:>5} {:>11.3} {:>9} {:>4} {:>11}",
            job.name,
            job_ms[idx].len(),
            median(&job_ms[idx]),
            o.map_or("-".into(), |o| o.final_mii.to_string()),
            o.map_or("-".into(), |o| o.ii.to_string()),
            o.map_or("-".into(), |o| o.sim_cycles.to_string()),
        );
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// `--trace 0`: the end-to-end metrics, untraced.
fn end_to_end(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let rounds = rounds_for(w, args.seconds, 1.0);
    let batch_s = SETUP_BUDGET_S / rounds as f64;
    let mut setup_s = Vec::new();
    let (fabric, jobs) = timed_setups(w, args.graph_seed, batch_s, &mut setup_s)?;
    let (fabric, jobs) = (&fabric, &jobs[..]);
    let mut rng = args.seed;
    let mut results = Results::default();
    let mut job_ms = vec![Vec::new(); jobs.len()];
    let mut round_jobs_per_s = Vec::new();
    for round in 0..rounds {
        if round > 0 {
            timed_setups(w, args.graph_seed, batch_s, &mut setup_s)?;
        }
        let wall = untraced_round(w, jobs, fabric, &mut rng, &mut results, &mut job_ms);
        round_jobs_per_s.push(ratio(jobs.len() as f64, wall));
    }
    let all: Vec<(f64, usize)> = (job_ms.iter().enumerate())
        .flat_map(|(idx, v)| v.iter().map(move |&ms| (ms, idx)))
        .collect();
    let (tail_pct, tail_ms, tail_input) = tail(&all);
    // Every input runs once per round, so the pooled median of a few
    // inputs with far-apart times falls in the gap between two of them and
    // reads the extremes of their samples; the median over inputs of each
    // input's median time is the robust form of the same quantity.
    let per_input: Vec<f64> = job_ms.iter().map(|v| median(v)).collect();
    println!("per kernel ({rounds} rounds, not gated):");
    print_kernel_rows(jobs, &results, &job_ms);
    let metrics = [
        ("job_ms_p50", "ms", median(&per_input)),
        ("job_ms_tail", "ms", tail_ms),
        ("jobs_per_s", "1/s", median(&round_jobs_per_s)),
        ("final_mii_sum", "count", results.final_mii_sum()),
        ("sim_cycles", "cycles", results.sim_cycles()),
        (
            "pass_ratio",
            "ratio",
            1.0 - ratio(results.failed as f64, results.attempted as f64),
        ),
        ("peak_rss_mb", "MiB", peak_rss_mb()),
        (
            "setup_s",
            "s",
            setup_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    ];
    println!("end-to-end:");
    for (name, unit, v) in &metrics {
        println!("  {name:<16} {v:>16.6} {unit}");
    }
    println!(
        "  {:<16} {:>16.6} ratio  (failed {} of {} attempted)",
        "fail_ratio",
        ratio(results.failed as f64, results.attempted as f64),
        results.failed,
        results.attempted
    );
    println!(
        "  job_ms_tail is p{tail_pct:.1} of {} jobs, {} beyond it; the sample is a {} job{}",
        all.len(),
        all.len().saturating_sub(1).min(10),
        jobs[tail_input].name,
        if tail_pct < 50.0 {
            " (below the median: too few jobs in this run for a tail)"
        } else {
            ""
        }
    );
    println!("  setup_s is the fastest of {} set-ups", setup_s.len());
    print_result(
        results.correct(jobs.len()),
        results.attempted,
        results.failed,
        &metrics,
    );
    Ok(())
}

/// `--trace 1`: rounds of (untraced, traced, traced), the per-layer
/// metrics of the traced rounds, the tracing overhead, and exact-repeat
/// checks of every count and of every job's result.
fn per_layer(args: &Args, jobs: &[Job], fabric: &DspFabric) -> Result<(), String> {
    let w = args.workload;
    let mut rng = args.seed;
    let mut results = Results::default();
    let mut job_ms = vec![Vec::new(); jobs.len()];
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut rounds: Vec<Vec<LayerMetric>> = Vec::new();
    for _ in 0..rounds_for(w, args.seconds, 3.0) {
        untraced_s.push(untraced_round(
            w,
            jobs,
            fabric,
            &mut rng,
            &mut results,
            &mut job_ms,
        ));
        for _ in 0..2 {
            let mut totals = Totals::default();
            let obs = Obs::enabled();
            let traced_jobs = setup(w, args.graph_seed, &obs)?;
            totals.absorb(&obs.snapshot().unwrap_or_default());
            let start = Instant::now();
            for idx in round_order(traced_jobs.len(), &mut rng) {
                let obs = Obs::enabled();
                let job = &traced_jobs[idx];
                let r = run_job(w, job, fabric, &obs);
                if let Some(o) = results.record(idx, job, r) {
                    totals.add(
                        "sched.ii_over_mii",
                        f64::from(o.ii.saturating_sub(o.final_mii)),
                    );
                    totals.add("sim.stores_checked", o.stores_checked as f64);
                    totals.max("sim.max_buffered", f64::from(o.max_buffered));
                }
                totals.absorb(&obs.snapshot().unwrap_or_default());
            }
            traced_s.push(start.elapsed().as_secs_f64());
            rounds.push(layer_metrics(&totals));
        }
    }
    println!(
        "per kernel ({} untraced rounds; traced results must match them):",
        untraced_s.len()
    );
    print_kernel_rows(jobs, &results, &job_ms);
    let (u, t) = (median(&untraced_s), median(&traced_s));
    println!(
        "tracing overhead: {:.1} ms per round ({:+.1}%), traced {:.1} ms vs untraced {:.1} ms (medians)",
        (t - u) * 1e3,
        100.0 * ratio(t - u, u),
        t * 1e3,
        u * 1e3
    );
    println!(
        "per layer ({} traced rounds; see.level*_us are busy time summed across workers):",
        rounds.len()
    );
    let mut metrics = Vec::new();
    let mut varying = Vec::new();
    for (i, &(name, unit, exact, _)) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r[i].3).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let note = match (exact, lo == hi) {
            (true, true) => "repeats exactly".to_string(),
            (true, false) => {
                varying.push(name);
                format!("DOES NOT REPEAT ({lo}..{hi}): unfit for exact comparison")
            }
            (false, _) => "timing".to_string(),
        };
        let v = median(&values);
        println!("  {name:<32} {v:>16.3} {unit:<8} {note}");
        metrics.push((name, unit, v));
    }
    if !varying.is_empty() {
        println!(
            "counters that do not repeat exactly: {}",
            varying.join(", ")
        );
    }
    print_result(
        results.correct(jobs.len()),
        results.attempted,
        results.failed,
        &metrics,
    );
    Ok(())
}

fn main() -> ExitCode {
    let run = || -> Result<(), String> {
        refuse_env_knobs()?;
        let args = parse_args()?;
        let w = args.workload;
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!(
            "hcabench: workload {} (seed {}, graph seed {}, {} s, trace {})",
            w.name, args.seed, args.graph_seed, args.seconds, args.trace as u8
        );
        println!("  why: {}", w.why);
        println!(
            "  nproc {nproc}, hca-par width {}; closed loop, 1 client, jobs one after another, \
             trip {}",
            hca_par::configured_threads(),
            w.trip
        );
        if args.trace {
            let (fabric, jobs) = timed_setups(w, args.graph_seed, 0.0, &mut Vec::new())?;
            per_layer(&args, &jobs, &fabric)
        } else {
            end_to_end(&args)
        }
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hcabench: {e}");
            ExitCode::from(2)
        }
    }
}
