//! The experiment harness: the [`Autoscaler`] decision interface shared by
//! Dragster and every baseline, arrival processes, and the slot loop of
//! Algorithm 1 (launch → observe → decide → deploy → repeat).

use crate::checkpoint::{
    Checkpoint, CheckpointError, CheckpointStore, RetrySnapshot, CHECKPOINT_VERSION,
};
use crate::cluster::{ClusterConfig, Deployment};
use crate::error::SimError;
use crate::faults::{ControllerFault, ControllerFaultDriver, FaultEvent, FaultKind};
use crate::fluid::FluidSim;
use crate::journal::{DecisionJournal, JournalError, JournalRecord, ReconfigOutcome};
use crate::json::Json;
use crate::metrics::SlotMetrics;
use crate::sanitize::{MetricSanitizer, SanitizeConfig};
use serde::{Deserialize, Serialize};

/// Time-varying offered load: rates per source for decision slot `t`.
pub trait ArrivalProcess {
    fn rates(&mut self, t: usize) -> Vec<f64>;
}

/// Constant offered load.
#[derive(Clone, Debug)]
pub struct ConstantArrival(pub Vec<f64>);

impl ArrivalProcess for ConstantArrival {
    fn rates(&mut self, _t: usize) -> Vec<f64> {
        self.0.clone()
    }
}

impl<F: FnMut(usize) -> Vec<f64>> ArrivalProcess for F {
    fn rates(&mut self, t: usize) -> Vec<f64> {
        self(t)
    }
}

/// A dynamic resource allocation policy. Implementations see exactly what
/// the paper's Job Monitor exposes — one [`SlotMetrics`] per slot — and
/// return the deployment for the *next* slot (step 5 of Algorithm 1).
pub trait Autoscaler {
    /// Scheme name for reports ("Dhalion", "Dragster saddle point", …).
    fn name(&self) -> String;

    /// Decide the next deployment after observing slot `t`.
    ///
    /// # Errors
    /// [`SimError::Policy`] (or a wrapped numeric/topology error) when the
    /// policy cannot produce a decision; the harness aborts the run and
    /// surfaces the error with the partial context intact.
    fn decide(
        &mut self,
        t: usize,
        metrics: &SlotMetrics,
        current: &Deployment,
    ) -> Result<Deployment, SimError>;

    /// Export all learner state for a controller checkpoint
    /// ([`crate::checkpoint::Checkpoint::scaler`]). `None` (the default)
    /// declares the policy stateless: a crash loses nothing, and recovery
    /// restores it via [`Autoscaler::reset_state`] plus journal replay.
    /// Stateful policies must export *everything* their `decide` depends
    /// on (learned models, duals, RNG positions) bit-exactly.
    fn export_state(&self) -> Option<Json> {
        None
    }

    /// Rebuild learner state from a checkpoint previously produced by
    /// [`Autoscaler::export_state`] on the same scheme.
    ///
    /// # Errors
    /// [`SimError::Policy`] when the state is malformed or the policy is
    /// stateless (the default) — the recovery harness then routes to the
    /// degraded fallback instead of trusting a half-restored controller.
    fn import_state(&mut self, _state: &Json) -> Result<(), SimError> {
        Err(SimError::Policy {
            scheme: self.name(),
            reason: "policy does not support checkpoint state import".to_string(),
        })
    }

    /// Forget all learned state, returning to the fresh-start condition.
    /// The default is a no-op, which is exactly right for stateless
    /// policies; stateful ones must override it — the degraded-fallback
    /// path relies on it to guarantee a *clean* cold start rather than a
    /// half-poisoned one.
    fn reset_state(&mut self) {}
}

/// Full record of one experiment run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub scheme: String,
    pub slots: Vec<SlotMetrics>,
    /// Deployment in effect during each slot.
    pub deployments: Vec<Deployment>,
    /// Oracle: the noise-free steady-state throughput the deployed
    /// configuration would achieve under that slot's offered load. Used
    /// for the "within 10 % of optimal" convergence criterion — not
    /// visible to autoscalers.
    pub ideal_throughput: Vec<f64>,
    /// Every fault the chaos layer injected during the run, in slot order.
    /// Empty for unfaulted runs, so legacy traces deserialize unchanged.
    #[serde(default)]
    pub fault_events: Vec<FaultEvent>,
    /// Reconfiguration attempts that failed (checkpoint-restore faults the
    /// retry loop absorbed).
    #[serde(default)]
    pub reconfig_failures: usize,
    /// Slots during which the harness held the last-known-good deployment
    /// because the retry backoff had not yet elapsed.
    #[serde(default)]
    pub held_slots: usize,
    /// Every control-plane recovery transition, in slot order (crash →
    /// restored/degraded → resumed). Empty for runs without controller
    /// faults, so legacy traces deserialize and compare unchanged.
    #[serde(default)]
    pub recovery_events: Vec<RecoveryEvent>,
    /// Controller crashes absorbed by the recovery harness.
    #[serde(default)]
    pub controller_crashes: usize,
    /// Slots spent in the degraded hold-last-deployment fallback (the
    /// GP-rewarm window after an unrecoverable crash).
    #[serde(default)]
    pub fallback_slots: usize,
}

impl Trace {
    /// Number of recorded slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no slot was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total tuples delivered to the sink.
    pub fn total_processed(&self) -> f64 {
        self.slots.iter().map(|s| s.processed_tuples).sum()
    }

    /// Total dollars spent.
    pub fn total_cost(&self) -> f64 {
        self.slots.iter().map(|s| s.cost_dollars).sum()
    }

    /// Dollars per 10⁹ processed tuples (the paper's Table 2/3 metric).
    pub fn cost_per_billion_tuples(&self) -> f64 {
        let tuples = self.total_processed();
        if tuples == 0.0 {
            return f64::INFINITY;
        }
        self.total_cost() / (tuples / 1e9)
    }

    /// Mean measured throughput over a slot range.
    pub fn mean_throughput(&self, range: std::ops::Range<usize>) -> f64 {
        let xs = self.slots.get(range).unwrap_or_default();
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().map(|s| s.throughput).sum::<f64>() / xs.len() as f64
    }

    /// First slot index from which the deployed configuration stays within
    /// `tol` (e.g. 0.1) of the oracle-optimal throughput `opt[t]` for the
    /// rest of `window` — the paper's convergence-time definition
    /// ("within 10 % of the optimal throughput"). Returns `None` if never.
    pub fn convergence_slot(
        &self,
        opt: &[f64],
        tol: f64,
        window: std::ops::Range<usize>,
    ) -> Option<usize> {
        assert_eq!(opt.len(), self.ideal_throughput.len());
        let near = |t: usize| match (self.ideal_throughput.get(t), opt.get(t)) {
            (Some(&ideal), Some(&o)) => ideal >= (1.0 - tol) * o - 1e-9,
            _ => false,
        };
        let end = window.end.min(self.ideal_throughput.len());
        (window.start..end).find(|&s| (s..end).all(near))
    }

    /// Mean pods over a slot range (resource footprint).
    pub fn mean_pods(&self, range: std::ops::Range<usize>) -> f64 {
        let xs = self.slots.get(range).unwrap_or_default();
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().map(|s| s.pods as f64).sum::<f64>() / xs.len() as f64
    }

    /// Number of slots that began with a reconfiguration pause.
    pub fn reconfigurations(&self) -> usize {
        self.slots.iter().filter(|s| s.reconfigured).count()
    }

    /// A throughput percentile over the whole run (p in [0, 100]).
    pub fn throughput_percentile(&self, p: f64) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        let mut xs: Vec<f64> = self.slots.iter().map(|s| s.throughput).collect();
        xs.sort_by(f64::total_cmp);
        let idx =
            crate::convert::f64_to_usize_saturating(((p / 100.0) * (xs.len() - 1) as f64).round());
        xs.get(idx.min(xs.len() - 1)).copied().unwrap_or(0.0)
    }

    /// Worst end-to-end Little's-law latency estimate across slots in a
    /// range (seconds).
    pub fn max_latency_estimate(&self, range: std::ops::Range<usize>) -> f64 {
        self.slots
            .get(range)
            .unwrap_or_default()
            .iter()
            .map(|s| s.latency_estimate_secs())
            .fold(0.0, f64::max)
    }

    /// Convergence time in minutes given the slot length.
    pub fn convergence_minutes(
        &self,
        opt: &[f64],
        tol: f64,
        window: std::ops::Range<usize>,
        slot_secs: f64,
    ) -> Option<f64> {
        self.convergence_slot(opt, tol, window.clone())
            .map(|s| (s + 1 - window.start) as f64 * slot_secs / 60.0)
    }
}

/// Retry policy for failed reconfigurations: exponential backoff measured
/// in decision slots. After the `k`-th consecutive failure the harness
/// waits `min(base_backoff_slots × 2^(k−1), max_backoff_slots)` slots
/// before re-attempting, holding the last-known-good deployment meanwhile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Backoff after the first failure (slots). Values < 1 behave as 1.
    pub base_backoff_slots: usize,
    /// Backoff ceiling (slots).
    pub max_backoff_slots: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_backoff_slots: 1,
            max_backoff_slots: 8,
        }
    }
}

impl RetryPolicy {
    /// Backoff (in slots) after `consecutive_failures ≥ 1` failures.
    ///
    /// The doubling saturates instead of shifting bits off the word, and
    /// the result is capped *strictly* at `max_backoff_slots` — a zero
    /// cap genuinely means "retry next slot", and a huge base can no
    /// longer wrap around to a tiny backoff.
    pub fn backoff_slots(&self, consecutive_failures: usize) -> usize {
        let k = consecutive_failures.max(1);
        let base = self.base_backoff_slots.max(1);
        let exp = u32::try_from((k - 1).min(63)).unwrap_or(63);
        let factor = 1usize.checked_shl(exp).unwrap_or(usize::MAX);
        base.saturating_mul(factor).min(self.max_backoff_slots)
    }
}

/// Harness knobs for [`run_experiment_with`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOptions {
    /// Retry-with-backoff for failed reconfigurations.
    pub retry: RetryPolicy,
    /// Metric sanitization applied before any autoscaler sees a snapshot.
    pub sanitize: SanitizeConfig,
}

/// Run one experiment: `slots` decision slots of Algorithm 1 with default
/// [`ExperimentOptions`]. The scaler's proposal is clamped to the task
/// range; a proposal violating the pod budget is projected by decrementing
/// the largest allocations first (mirroring how HPA would refuse to scale
/// past quota).
/// # Errors
/// Any [`SimError`] raised by the oracle, the policy, or reconfiguration
/// validation; the trace accumulated so far is dropped with the error.
/// Injected reconfiguration *faults* ([`SimError::ReconfigFailed`]) are
/// absorbed by the retry loop and never surface here.
pub fn run_experiment(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
) -> Result<Trace, SimError> {
    run_experiment_with(sim, scaler, arrivals, slots, ExperimentOptions::default())
}

/// [`run_experiment`] with explicit [`ExperimentOptions`].
///
/// Degradation policy (graceful, never aborting on injected faults):
///
/// 1. every raw snapshot passes through a [`MetricSanitizer`] before the
///    autoscaler (and the trace) sees it — faulted traces never contain a
///    NaN or negative metric;
/// 2. a failed reconfiguration ([`SimError::ReconfigFailed`]) leaves the
///    simulator on its last-known-good deployment; the harness counts the
///    failure, backs off exponentially ([`RetryPolicy`]), and re-proposes
///    once the backoff elapses instead of aborting the run;
/// 3. fault events drained from the engine are appended to
///    [`Trace::fault_events`] so recovery analysis can line dips up with
///    their causes.
///
/// Controller faults in the plan are ignored; only
/// [`run_experiment_recoverable`] drives them.
///
/// # Errors
/// Any non-fault [`SimError`] raised by the oracle, the policy, or
/// reconfiguration validation.
pub fn run_experiment_with(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
    opts: ExperimentOptions,
) -> Result<Trace, SimError> {
    slot_loop(sim, scaler, arrivals, slots, opts, None)
}

// ---------------------------------------------------------------------------
// Crash-safe controller runtime.
// ---------------------------------------------------------------------------

/// Knobs for the crash-recovery harness ([`run_experiment_recoverable`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryOptions {
    /// Checkpoint cadence in slots (a checkpoint is written after every
    /// slot `t` with `t % checkpoint_every == 0`). Values < 1 behave as 1.
    pub checkpoint_every: usize,
    /// Staleness bound `m`: a checkpoint older than this many slots at
    /// restore time is rejected ([`CheckpointError::Stale`]) and the run
    /// degrades instead of resuming from ancient state.
    pub max_checkpoint_age_slots: usize,
    /// Degraded-fallback window: after an unrecoverable crash the harness
    /// holds the current deployment for this many slots while the freshly
    /// reset learner re-warms on live metrics, then resumes following it.
    pub rewarm_slots: usize,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            checkpoint_every: 1,
            max_checkpoint_age_slots: 8,
            rewarm_slots: 6,
        }
    }
}

/// Why recovery routed to the degraded fallback instead of restoring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// No checkpoint had ever been written.
    MissingCheckpoint,
    /// The newest checkpoint blob failed its checksum (torn write).
    TornCheckpoint,
    /// The blob parsed but did not decode to a valid checkpoint.
    MalformedCheckpoint,
    /// The newest valid checkpoint exceeded the staleness bound.
    StaleCheckpoint,
    /// The checkpoint was written by a different autoscaler scheme.
    SchemeMismatch,
    /// The policy rejected the checkpointed learner state.
    ImportFailed,
    /// A journal record needed for replay failed its checksum.
    JournalCorrupt,
    /// A slot needed for replay had no journal record.
    JournalGap,
    /// Replay reproduced a different decision than the journal recorded —
    /// the restored state cannot be trusted.
    ReplayDivergence,
}

/// What the recovery harness did at one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// The controller process crashed, losing all in-memory state.
    Crash,
    /// The checkpoint validated; journal replay rebuilt the exact
    /// pre-crash state (`replayed_slots` records on top of the snapshot).
    Restored {
        checkpoint_slot: usize,
        replayed_slots: usize,
    },
    /// Restore was impossible; the learner was reset and the deployment
    /// held for the rewarm window.
    Degraded { reason: DegradeReason },
    /// The rewarm window elapsed; the harness resumed following the
    /// learner's decisions.
    Resumed,
}

/// One recovery transition, recorded into [`Trace::recovery_events`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryEvent {
    pub slot: usize,
    pub action: RecoveryAction,
}

fn degrade_reason_of(e: &CheckpointError) -> DegradeReason {
    match e {
        CheckpointError::Missing => DegradeReason::MissingCheckpoint,
        CheckpointError::Torn { .. } => DegradeReason::TornCheckpoint,
        CheckpointError::Malformed { .. } => DegradeReason::MalformedCheckpoint,
        CheckpointError::Stale { .. } => DegradeReason::StaleCheckpoint,
    }
}

fn controller_event(slot: usize, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        slot,
        kind,
        operator: None,
        severity: 0.0,
    }
}

/// [`run_experiment_with`] under the crash-safe controller runtime.
///
/// In addition to the graceful-degradation policy of
/// [`run_experiment_with`], the harness maintains the crash-tolerance
/// machinery of DESIGN §10:
///
/// 1. after every slot it appends a checksummed [`JournalRecord`] (raw
///    pre-sanitize metrics + decision + reconfiguration outcome) to the
///    [`DecisionJournal`], and on the checkpoint cadence writes a
///    [`Checkpoint`] of *all* controller state — the autoscaler's
///    exported learner state, sanitizer history, and retry position;
/// 2. control-plane faults from the plan's controller kinds
///    ([`FaultKind::ControllerCrash`], [`FaultKind::CheckpointCorrupt`],
///    [`FaultKind::CheckpointStale`], plus the stochastic
///    `controller_crash_prob`) are driven on a dedicated salted RNG
///    stream, so layering them onto data-plane chaos leaves the engine
///    realization bit-identical;
/// 3. on a crash the harness restores the newest checkpoint and replays
///    the journal to the crash point — provably bit-identical to the
///    uninterrupted run (`tests/recovery.rs`) — and when the checkpoint
///    does not validate (torn, stale, missing, foreign, divergent) it
///    degrades: learner reset, deployment held for
///    [`RecoveryOptions::rewarm_slots`] slots, then resumes. Every
///    transition lands in [`Trace::recovery_events`].
///
/// Both entry points run the same slot loop, and checkpointing and
/// journaling never mutate controller state, so with an inert fault plan
/// the two produce equal traces.
///
/// # Errors
/// Any non-fault [`SimError`] raised by the oracle, the policy (live or
/// during replay), or reconfiguration validation.
pub fn run_experiment_recoverable(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
    opts: ExperimentOptions,
    rec: RecoveryOptions,
) -> Result<Trace, SimError> {
    slot_loop(sim, scaler, arrivals, slots, opts, Some(rec))
}

/// The harness-side controller state: what a checkpoint stores beside the
/// learner, and what journal replay rebuilds on top of it.
struct LoopState {
    sanitizer: MetricSanitizer,
    retry: RetrySnapshot,
}

impl LoopState {
    fn new(opts: &ExperimentOptions) -> Self {
        LoopState {
            sanitizer: MetricSanitizer::new(opts.sanitize),
            retry: RetrySnapshot::default(),
        }
    }

    /// Sanitize slot `t`'s raw snapshot, ask the policy for the next
    /// deployment and clamp it to the task range and pod budget. The live
    /// loop and journal replay both go through here.
    fn propose(
        &mut self,
        scaler: &mut dyn Autoscaler,
        t: usize,
        raw: SlotMetrics,
        current: &Deployment,
        cluster: &ClusterConfig,
    ) -> Result<(SlotMetrics, Deployment), SimError> {
        let metrics = self.sanitizer.sanitize(raw);
        let proposal = scaler.decide(t, &metrics, current)?;
        let feasible = project_to_budget(
            proposal.clamped(cluster.max_tasks_per_operator),
            cluster.budget_pods,
        );
        Ok((metrics, feasible))
    }

    /// Advance the retry position past slot `t`'s reconfiguration outcome
    /// (shared by the live loop and journal replay).
    fn record_outcome(&mut self, policy: &RetryPolicy, t: usize, outcome: ReconfigOutcome) {
        match outcome {
            ReconfigOutcome::Applied => self.retry.consecutive_failures = 0,
            ReconfigOutcome::Failed => {
                self.retry.consecutive_failures += 1;
                self.retry.next_attempt = t + policy.backoff_slots(self.retry.consecutive_failures);
            }
            ReconfigOutcome::Held => {}
        }
    }
}

/// The crash-safe runtime's machinery, present only under
/// [`run_experiment_recoverable`].
struct Recovery {
    rec: RecoveryOptions,
    driver: ControllerFaultDriver,
    store: CheckpointStore,
    journal: DecisionJournal,
    /// End of the degraded-fallback window, when active.
    fallback_until: Option<usize>,
}

impl Recovery {
    /// Restore-and-replay: validate the newest checkpoint, import the
    /// learner state, and replay the journal records up to (excluding)
    /// `crash_slot` through the live loop's own propose and retry steps.
    /// Returns `Ok(Err(reason))` when the run must degrade, `Err(e)` only
    /// for hard policy errors.
    fn try_restore(
        &self,
        scaler: &mut dyn Autoscaler,
        crash_slot: usize,
        opts: &ExperimentOptions,
        cluster: &ClusterConfig,
    ) -> Result<Result<(LoopState, RecoveryAction), DegradeReason>, SimError> {
        let max_age = self.rec.max_checkpoint_age_slots;
        let ckpt = match self.store.load_validated(crash_slot, max_age) {
            Ok(c) => c,
            Err(e) => return Ok(Err(degrade_reason_of(&e))),
        };
        if ckpt.scheme != scaler.name() {
            return Ok(Err(DegradeReason::SchemeMismatch));
        }
        match &ckpt.scaler {
            Some(state) => {
                if scaler.import_state(state).is_err() {
                    return Ok(Err(DegradeReason::ImportFailed));
                }
            }
            // A stateless policy's full state *is* the fresh state.
            None => scaler.reset_state(),
        }
        let records = match self.journal.replay_range(ckpt.slot + 1, crash_slot) {
            Ok(r) => r,
            Err(JournalError::Corrupt { .. }) => return Ok(Err(DegradeReason::JournalCorrupt)),
            Err(JournalError::Gap { .. }) => return Ok(Err(DegradeReason::JournalGap)),
        };
        let action = RecoveryAction::Restored {
            checkpoint_slot: ckpt.slot,
            replayed_slots: records.len(),
        };
        let mut state = LoopState {
            sanitizer: MetricSanitizer::from_snapshot(ckpt.sanitizer),
            retry: ckpt.retry,
        };
        for r in records {
            let before = Deployment {
                tasks: r.deployment_before,
            };
            let (_, feasible) = state.propose(scaler, r.t, r.raw, &before, cluster)?;
            if feasible.tasks != r.decided {
                // The journal is the ground truth; a divergent replay means
                // the restored learner state is wrong.
                return Ok(Err(DegradeReason::ReplayDivergence));
            }
            state.record_outcome(&opts.retry, r.t, r.outcome);
        }
        Ok(Ok((state, action)))
    }
}

/// The slot loop of Algorithm 1 behind both entry points. `rec` switches
/// on the crash-safe runtime; without it the loop builds no controller
/// fault driver, journal or checkpoint store, and never copies the raw
/// metrics.
fn slot_loop(
    sim: &mut FluidSim,
    scaler: &mut dyn Autoscaler,
    arrivals: &mut dyn ArrivalProcess,
    slots: usize,
    opts: ExperimentOptions,
    rec: Option<RecoveryOptions>,
) -> Result<Trace, SimError> {
    let mut trace = Trace {
        scheme: scaler.name(),
        ..Default::default()
    };
    let mut state = LoopState::new(&opts);
    let mut recovery = rec.map(|rec| Recovery {
        rec,
        driver: ControllerFaultDriver::new(sim.fault_plan().clone(), sim.seed()),
        store: CheckpointStore::new(),
        journal: DecisionJournal::new(),
        fallback_until: None,
    });
    for t in 0..slots {
        // -- control plane: faults fire at the top of the slot ------------
        let mut cf = ControllerFault::default();
        if let Some(r) = recovery.as_mut() {
            cf = r.driver.begin_slot(t);
            if cf.corrupt_checkpoint {
                r.store.corrupt_latest();
                trace
                    .fault_events
                    .push(controller_event(t, FaultKind::CheckpointCorrupt));
            }
            if cf.crash {
                trace.controller_crashes += 1;
                trace
                    .fault_events
                    .push(controller_event(t, FaultKind::ControllerCrash));
                trace.recovery_events.push(RecoveryEvent {
                    slot: t,
                    action: RecoveryAction::Crash,
                });
                let action = match r.try_restore(scaler, t, &opts, sim.cluster())? {
                    Ok((restored, action)) => {
                        state = restored;
                        r.fallback_until = None;
                        action
                    }
                    Err(reason) => {
                        // Unrecoverable: clean cold start + hold the current
                        // deployment while the learner re-warms.
                        scaler.reset_state();
                        state = LoopState::new(&opts);
                        r.fallback_until = Some(t + r.rec.rewarm_slots);
                        RecoveryAction::Degraded { reason }
                    }
                };
                trace
                    .recovery_events
                    .push(RecoveryEvent { slot: t, action });
            }
            if r.fallback_until.is_some_and(|until| t >= until) {
                r.fallback_until = None;
                trace.recovery_events.push(RecoveryEvent {
                    slot: t,
                    action: RecoveryAction::Resumed,
                });
            }
        }

        // -- data plane ---------------------------------------------------
        let rates = arrivals.rates(t);
        trace.deployments.push(sim.deployment().clone());
        trace.ideal_throughput.push(sim.ideal_throughput(&rates)?);
        let raw = sim.run_slot(&rates);
        let journal_raw = recovery.is_some().then(|| raw.clone());
        // `decide` runs even during fallback: the freshly reset learner
        // re-warms on live metrics while its proposals are held back.
        let (metrics, feasible) = state.propose(scaler, t, raw, sim.deployment(), sim.cluster())?;
        // The outcome is filled in once the reconfiguration is settled.
        let record = journal_raw.map(|raw| JournalRecord {
            t,
            raw,
            deployment_before: sim.deployment().tasks.clone(),
            decided: feasible.tasks.clone(),
            outcome: ReconfigOutcome::Held,
        });
        let holding = recovery
            .as_ref()
            .is_some_and(|r| r.fallback_until.is_some());
        let outcome = if holding {
            trace.fallback_slots += 1;
            ReconfigOutcome::Held
        } else if t >= state.retry.next_attempt {
            match sim.reconfigure(feasible) {
                Ok(()) => ReconfigOutcome::Applied,
                Err(SimError::ReconfigFailed { .. }) => {
                    trace.reconfig_failures += 1;
                    ReconfigOutcome::Failed
                }
                Err(e) => return Err(e),
            }
        } else {
            trace.held_slots += 1;
            ReconfigOutcome::Held
        };
        state.record_outcome(&opts.retry, t, outcome);
        trace.fault_events.extend(sim.drain_fault_events());
        trace.slots.push(metrics);

        // -- durability: journal the slot, checkpoint on cadence ----------
        if let (Some(r), Some(record)) = (recovery.as_mut(), record) {
            r.journal.append(&JournalRecord { outcome, ..record });
            if t % r.rec.checkpoint_every.max(1) == 0 {
                if cf.suppress_checkpoint {
                    trace
                        .fault_events
                        .push(controller_event(t, FaultKind::CheckpointStale));
                } else {
                    r.store.write(&Checkpoint {
                        version: CHECKPOINT_VERSION,
                        slot: t,
                        scheme: trace.scheme.clone(),
                        deployment: sim.deployment().tasks.clone(),
                        scaler: scaler.export_state(),
                        sanitizer: state.sanitizer.snapshot(),
                        retry: state.retry,
                    });
                }
            }
        }
    }
    Ok(trace)
}

/// Decrement the largest allocations until the total-pod budget holds.
/// Keeps every operator at ≥ 1 task.
pub fn project_to_budget(mut d: Deployment, budget: Option<usize>) -> Deployment {
    let Some(b) = budget else { return d };
    let b = b.max(d.len()); // at least one task per operator
    while d.total_pods() > b {
        // A positive pod total implies a non-empty task vector.
        let Some((imax, _)) = d.tasks.iter().enumerate().max_by_key(|(_, &t)| t) else {
            return d;
        };
        // The budget floor (`b >= d.len()`) guarantees the largest
        // allocation is ≥ 2 here; the guard keeps the loop total anyway.
        match d.tasks.get_mut(imax) {
            Some(t) if *t > 1 => *t -= 1,
            _ => return d,
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capacity::{Application, CapacityModel};
    use crate::cluster::ClusterConfig;
    use crate::fluid::SimConfig;
    use crate::noise::NoiseConfig;
    use dragster_dag::TopologyBuilder;

    fn app() -> Application {
        let topo = TopologyBuilder::new()
            .source("s")
            .operator("a")
            .operator("b")
            .sink("k")
            .edge("s", "a")
            .edge("a", "b")
            .edge("b", "k")
            .build()
            .unwrap();
        Application::new(
            topo,
            vec![
                CapacityModel::Linear { per_task: 100.0 },
                CapacityModel::Linear { per_task: 100.0 },
            ],
        )
        .unwrap()
    }

    /// Scales everything up by one task per slot.
    struct GreedyUp;

    impl Autoscaler for GreedyUp {
        fn name(&self) -> String {
            "greedy-up".into()
        }

        fn decide(
            &mut self,
            _t: usize,
            _m: &SlotMetrics,
            cur: &Deployment,
        ) -> Result<Deployment, SimError> {
            Ok(Deployment {
                tasks: cur.tasks.iter().map(|t| t + 1).collect(),
            })
        }
    }

    /// Never changes anything.
    struct Static;

    impl Autoscaler for Static {
        fn name(&self) -> String {
            "static".into()
        }

        fn decide(
            &mut self,
            _t: usize,
            _m: &SlotMetrics,
            cur: &Deployment,
        ) -> Result<Deployment, SimError> {
            Ok(cur.clone())
        }
    }

    fn make_sim(budget: Option<usize>) -> FluidSim {
        FluidSim::new(
            app(),
            ClusterConfig {
                budget_pods: budget,
                ..Default::default()
            },
            SimConfig::default(),
            NoiseConfig::none(),
            7,
            Deployment::uniform(2, 1),
        )
        .unwrap()
    }

    #[test]
    fn run_records_every_slot() {
        let mut sim = make_sim(None);
        let mut arr = ConstantArrival(vec![250.0]);
        let trace = run_experiment(&mut sim, &mut Static, &mut arr, 5).unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!(trace.deployments.len(), 5);
        assert_eq!(trace.scheme, "static");
        assert!(trace.total_cost() > 0.0);
    }

    #[test]
    fn greedy_up_scales_and_improves() {
        let mut sim = make_sim(None);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 10).unwrap();
        // deployments grow 1,2,3,… (clamped at 10)
        assert_eq!(trace.deployments[0].tasks, vec![1, 1]);
        assert_eq!(trace.deployments[5].tasks, vec![6, 6]);
        assert!(trace.slots[9].throughput > trace.slots[0].throughput);
    }

    #[test]
    fn budget_projection_applies() {
        let mut sim = make_sim(Some(8));
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 12).unwrap();
        for d in &trace.deployments {
            assert!(d.total_pods() <= 8, "budget violated: {d}");
        }
    }

    #[test]
    fn project_to_budget_decrements_largest() {
        let d = Deployment {
            tasks: vec![9, 2, 5],
        };
        let p = project_to_budget(d, Some(10));
        assert_eq!(p.total_pods(), 10);
        assert_eq!(p.tasks, vec![4, 2, 4]);
        // keeps ≥1 per operator even under an absurd budget
        let q = project_to_budget(Deployment { tasks: vec![5, 5] }, Some(1));
        assert_eq!(q.tasks, vec![1, 1]);
    }

    #[test]
    fn convergence_slot_finds_stable_point() {
        let mut trace = Trace::default();
        // fabricate ideal-throughput history: 50, 80, 95, 95, 95 vs opt 100
        for v in [50.0, 80.0, 95.0, 95.0, 95.0] {
            trace.ideal_throughput.push(v);
        }
        let opt = vec![100.0; 5];
        assert_eq!(trace.convergence_slot(&opt, 0.1, 0..5), Some(2));
        assert_eq!(trace.convergence_slot(&opt, 0.01, 0..5), None);
        // minutes: slots are 600 s
        assert_eq!(
            trace.convergence_minutes(&opt, 0.1, 0..5, 600.0),
            Some(30.0)
        );
    }

    #[test]
    fn convergence_requires_stability() {
        let mut trace = Trace::default();
        for v in [95.0, 50.0, 95.0, 95.0] {
            trace.ideal_throughput.push(v);
        }
        let opt = vec![100.0; 4];
        // slot 0 is within 10 % but slot 1 regresses ⇒ convergence at 2.
        assert_eq!(trace.convergence_slot(&opt, 0.1, 0..4), Some(2));
    }

    #[test]
    fn closure_is_an_arrival_process() {
        let mut sim = make_sim(None);
        let mut arr = |t: usize| vec![if t < 2 { 100.0 } else { 300.0 }];
        let trace = run_experiment(&mut sim, &mut Static, &mut arr, 4).unwrap();
        assert_eq!(trace.slots[0].source_rates, vec![100.0]);
        assert_eq!(trace.slots[3].source_rates, vec![300.0]);
    }

    #[test]
    fn trace_analysis_helpers() {
        let mut sim = make_sim(None);
        let mut arr = ConstantArrival(vec![500.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 6).unwrap();
        assert!(trace.mean_pods(0..6) > 2.0);
        assert!(trace.reconfigurations() >= 4);
        let p50 = trace.throughput_percentile(50.0);
        let p100 = trace.throughput_percentile(100.0);
        assert!(p100 >= p50);
        assert!(trace.max_latency_estimate(0..6) >= 0.0);
        // empty ranges are safe
        assert_eq!(trace.mean_pods(3..3), 0.0);
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_slots(1), 1);
        assert_eq!(p.backoff_slots(2), 2);
        assert_eq!(p.backoff_slots(3), 4);
        assert_eq!(p.backoff_slots(4), 8);
        assert_eq!(p.backoff_slots(5), 8); // capped
        assert_eq!(p.backoff_slots(60), 8); // shift is clamped, no overflow
        let never_zero = RetryPolicy {
            base_backoff_slots: 0,
            max_backoff_slots: 4,
        };
        assert_eq!(never_zero.backoff_slots(1), 1);
    }

    #[test]
    fn backoff_cap_is_strict_even_for_degenerate_configs() {
        // max = 0 means "retry every slot": the cap must win over the
        // implicit base >= 1 floor.
        let zero_cap = RetryPolicy {
            base_backoff_slots: 3,
            max_backoff_slots: 0,
        };
        for k in [1, 2, 10, 100] {
            assert_eq!(zero_cap.backoff_slots(k), 0);
        }
        // base = 0 doubles from an implicit floor of 1 and still caps.
        let zero_base = RetryPolicy {
            base_backoff_slots: 0,
            max_backoff_slots: 4,
        };
        assert_eq!(
            (1..=4)
                .map(|k| zero_base.backoff_slots(k))
                .collect::<Vec<_>>(),
            vec![1, 2, 4, 4]
        );
        // Huge base: doubling must saturate, never wrap past the cap.
        let huge_base = RetryPolicy {
            base_backoff_slots: usize::MAX,
            max_backoff_slots: 16,
        };
        assert_eq!(huge_base.backoff_slots(1), 16);
        assert_eq!(huge_base.backoff_slots(7), 16);
        let wrapping_base = RetryPolicy {
            base_backoff_slots: 1 << 60,
            max_backoff_slots: 32,
        };
        // Old code computed base << 10 with wrapping bits -> backoff 1.
        assert_eq!(wrapping_base.backoff_slots(11), 32);
        // Uncapped: saturates at usize::MAX instead of overflowing.
        let uncapped = RetryPolicy {
            base_backoff_slots: 2,
            max_backoff_slots: usize::MAX,
        };
        assert_eq!(uncapped.backoff_slots(200), usize::MAX);
    }

    #[test]
    fn reconfig_fault_is_retried_not_fatal() {
        use crate::faults::{FaultKind, FaultPlan, ScriptedFault};
        let plan = FaultPlan::none().with(ScriptedFault {
            slot: 1,
            kind: FaultKind::ReconfigFail,
            operator: None,
            severity: 1.0,
            duration_slots: 1,
        });
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 6).unwrap();
        assert_eq!(trace.len(), 6, "run must complete despite the fault");
        assert_eq!(trace.reconfig_failures, 1);
        // slot 1's upscale was rejected: the deployment in effect during
        // slot 2 is still slot 1's (last-known-good held) …
        assert_eq!(trace.deployments[2], trace.deployments[1]);
        // … and the retry landed: later slots scale up again.
        assert!(trace.deployments[5].total_pods() > trace.deployments[2].total_pods());
        assert!(trace
            .fault_events
            .iter()
            .any(|e| e.kind == FaultKind::ReconfigFail));
    }

    #[test]
    fn persistent_reconfig_faults_back_off() {
        use crate::faults::{FaultKind, FaultPlan, FaultRates, ScriptedFault};
        // every reconfiguration attempt fails for the whole run
        let plan = FaultPlan {
            scripted: vec![ScriptedFault {
                slot: 0,
                kind: FaultKind::ReconfigFail,
                operator: None,
                severity: 1.0,
                duration_slots: 40,
            }],
            rates: FaultRates::default(),
        };
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![900.0]);
        let trace = run_experiment(&mut sim, &mut GreedyUp, &mut arr, 16).unwrap();
        assert_eq!(trace.len(), 16);
        // attempts at t = 0, 1, 3, 7, 15 (backoff 1, 2, 4, 8, 8): 5 failures
        assert_eq!(trace.reconfig_failures, 5);
        assert_eq!(trace.held_slots, 16 - 5);
        // deployment never moved off the initial last-known-good
        assert!(trace.deployments.iter().all(|d| d.tasks == vec![1, 1]));
    }

    #[test]
    fn sanitized_metrics_reach_scaler_and_trace() {
        use crate::faults::{FaultPlan, FaultRates};
        let plan = FaultPlan {
            scripted: vec![],
            rates: FaultRates {
                metric_dropout_prob: 0.5,
                ..Default::default()
            },
        };
        let mut sim = make_sim(None).with_faults(plan);
        let mut arr = ConstantArrival(vec![250.0]);
        let trace = run_experiment(&mut sim, &mut Static, &mut arr, 10).unwrap();
        let degraded = trace
            .slots
            .iter()
            .flat_map(|s| &s.operators)
            .filter(|o| o.degraded)
            .count();
        assert!(degraded > 0, "dropouts must surface as degraded readings");
        for s in &trace.slots {
            for o in &s.operators {
                assert!(o.cpu_util.is_finite() && o.cpu_util >= 0.0);
                assert!(o.capacity_sample.is_finite() && o.capacity_sample >= 0.0);
            }
        }
    }

    #[test]
    fn cost_per_billion() {
        let mut trace = Trace::default();
        trace.slots.push(SlotMetrics {
            t: 0,
            sim_time_secs: 600.0,
            throughput: 1.0,
            processed_tuples: 5e8,
            dropped_tuples: 0.0,
            cost_dollars: 10.0,
            pods: 1,
            source_rates: vec![1.0],
            reconfigured: false,
            pause_secs: 0.0,
            operators: vec![],
        });
        assert!((trace.cost_per_billion_tuples() - 20.0).abs() < 1e-12);
    }
}
