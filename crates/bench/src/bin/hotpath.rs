//! Grid-cache horizon benchmark for the controller's `decide`.
//!
//! Runs the saddle-point Dragster through the real harness
//! ([`run_experiment_with`]) with the GP grid cache on and off, timing
//! only the policy's `decide` calls through an [`Autoscaler`] decorator.
//! The two runs must produce **equal traces** — the cache is an
//! optimisation, never a behaviour change — and the cached controller
//! must grow ~linearly in history length where the naive one grows
//! quadratically (DESIGN §12). Per-layer timings of the whole slot
//! (sanitize, journal, checkpoint, engine) come from
//! `perfbench --trace 1`, not from here.
//!
//! ```text
//! cargo run --release -p dragster-bench --bin hotpath
//! cargo run --release -p dragster-bench --bin hotpath -- --check
//! ```
//!
//! The default mode sweeps 60/240/960 slots into `results/hotpath.json`
//! (`horizon_sweep`). `--check` is the CI smoke mode: one mid-size horizon,
//! both modes in the same process so machine speed cancels out; it exits
//! non-zero unless the cache beats the naive path by >25% (a bypassed cache
//! measures ~1.0×). It reads and writes no files — `results/*.json` is
//! gitignored, so an absolute ns baseline would neither exist on a fresh
//! checkout nor transfer across machines.

use std::time::Instant;

use dragster_bench::runner::{make_scaler, Scheme};
use dragster_core::{Dragster, DragsterConfig, UcbConfig};
use dragster_sim::fluid::SimConfig;
use dragster_sim::json::{self, Json};
use dragster_sim::{
    run_experiment_with, Autoscaler, ClusterConfig, ConstantArrival, Deployment, ExperimentOptions,
    FluidSim, NoiseConfig, SimError, SlotMetrics, Trace,
};
use dragster_workloads::{word_count, Workload};

const SWEEP_HORIZONS: [usize; 3] = [60, 240, 960];
const SEED: u64 = 11;
const BUDGET_PODS: Option<usize> = Some(200);
const CHECK_SLOTS: usize = 240;
const CHECK_MIN_SPEEDUP_FRAC: f64 = 0.25;

/// Times every `decide` of the wrapped policy; the rest of the slot runs
/// in the harness untouched.
struct DecideTimer {
    inner: Box<dyn Autoscaler>,
    total_ns: u128,
    calls: u128,
}

impl Autoscaler for DecideTimer {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(
        &mut self,
        t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError> {
        let start = Instant::now();
        let decision = self.inner.decide(t, metrics, current);
        self.total_ns += start.elapsed().as_nanos();
        self.calls += 1;
        decision
    }
}

/// The saddle-point Dragster with the grid cache switched off — the naive
/// O(t²)-per-query baseline, otherwise identical to what `make_scaler`
/// builds for `Scheme::DragsterSaddle`.
fn make_naive_scaler(w: &Workload) -> Box<dyn Autoscaler> {
    let saddle = DragsterConfig::saddle_point();
    Box::new(Dragster::new(
        w.app.topology.clone(),
        DragsterConfig {
            budget_pods: BUDGET_PODS,
            ucb: UcbConfig {
                grid_cache: false,
                ..saddle.ucb
            },
            ..saddle
        },
    ))
}

/// Run `slots` slots of the harness with `scaler`; returns the trace and
/// the mean `decide` time in ns.
fn timed_run(w: &Workload, scaler: Box<dyn Autoscaler>, slots: usize) -> (Trace, u128) {
    let mut sim = FluidSim::new(
        w.app.clone(),
        ClusterConfig::default(),
        SimConfig::default(),
        NoiseConfig::default(),
        SEED,
        Deployment::uniform(w.app.n_operators(), 1),
    )
    .expect("simulator accepts the application");
    let mut timer = DecideTimer {
        inner: scaler,
        total_ns: 0,
        calls: 0,
    };
    let trace = run_experiment_with(
        &mut sim,
        &mut timer,
        &mut ConstantArrival(w.high_rate.clone()),
        slots,
        ExperimentOptions::default(),
    )
    .expect("harness run succeeds");
    (trace, timer.total_ns / timer.calls.max(1))
}

/// Cached vs naive mean decide time at one horizon, asserting the two
/// runs leave equal traces.
fn sweep_point(w: &Workload, slots: usize) -> (u128, u128) {
    let cached_scaler = make_scaler(Scheme::DragsterSaddle, &w.app, BUDGET_PODS, SEED);
    let (cached, cached_ns) = timed_run(w, cached_scaler, slots);
    let (naive, naive_ns) = timed_run(w, make_naive_scaler(w), slots);
    assert!(
        cached == naive,
        "grid cache changed the trace at horizon {slots} — the cache must be bit-identical"
    );
    (cached_ns, naive_ns)
}

fn ratio(later: u128, earlier: u128) -> f64 {
    if earlier == 0 {
        return 0.0;
    }
    later as f64 / earlier as f64
}

/// CI smoke: cached vs naive decide cost at one mid-size horizon,
/// measured back-to-back in the same process so machine speed cancels
/// out of the ratio. Reads and writes nothing.
fn check_mode() -> ! {
    let w = word_count().expect("workload builds");
    let (cached_ns, naive_ns) = sweep_point(&w, CHECK_SLOTS);
    let speedup = ratio(naive_ns, cached_ns);
    let floor = 1.0 + CHECK_MIN_SPEEDUP_FRAC;
    println!(
        "hotpath --check: {CHECK_SLOTS} slots, cached decide {cached_ns} ns/slot vs naive \
         {naive_ns} ns/slot = {speedup:.2}x (floor {floor:.2}x)"
    );
    if speedup < floor {
        eprintln!(
            "hotpath regression: at {CHECK_SLOTS} slots the grid cache only makes decide \
             {speedup:.2}x faster than the naive O(t\u{b2}) path (floor {floor:.2}x; a bypassed \
             cache measures ~1.0x).\n\
             Triage: (1) run `cargo run --release -p dragster-bench --bin hotpath` and compare \
             the horizon_sweep rows in results/hotpath.json — cached growth per 4x horizon \
             should stay ~1x while naive grows quadratically; (2) check whether a new GP query \
             surface bypasses the GridCache (DESIGN \u{a7}12, CONTRIBUTING) — posterior calls \
             in the decide path must be O(t), not O(t\u{b2}); (3) run \
             `cargo run -p dragster-lint -- --cost-ratchet` for new hot-path allocations."
        );
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    if std::env::args().skip(1).any(|a| a == "--check") {
        check_mode();
    }
    let w = word_count().expect("workload builds");
    let ns = |v: u128| json::num(usize::try_from(v).unwrap_or(usize::MAX));
    let mut rows = Vec::new();
    let mut prev: Option<(u128, u128)> = None;
    for &slots in &SWEEP_HORIZONS {
        let (cached_ns, naive_ns) = sweep_point(&w, slots);
        let mut row = vec![
            ("slots".to_string(), json::num(slots)),
            ("cached_decide_mean_ns".to_string(), ns(cached_ns)),
            ("naive_decide_mean_ns".to_string(), ns(naive_ns)),
            (
                "naive_over_cached".to_string(),
                Json::Num(ratio(naive_ns, cached_ns)),
            ),
        ];
        // Growth of the per-slot mean vs the 4x shorter horizon: the cached
        // path stays ~1x, the naive one grows with history length.
        if let Some((pc, pn)) = prev {
            row.push(("cached_growth".to_string(), Json::Num(ratio(cached_ns, pc))));
            row.push(("naive_growth".to_string(), Json::Num(ratio(naive_ns, pn))));
        }
        println!(
            "horizon {slots}: cached decide {} us, naive {} us ({:.2}x)",
            cached_ns / 1_000,
            naive_ns / 1_000,
            ratio(naive_ns, cached_ns),
        );
        rows.push(Json::Obj(row));
        prev = Some((cached_ns, naive_ns));
    }
    let mut out = Json::Obj(vec![("horizon_sweep".to_string(), Json::Arr(rows))]).render();
    out.push('\n');
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/hotpath.json", out).expect("write results/hotpath.json");
    println!("wrote results/hotpath.json");
}
