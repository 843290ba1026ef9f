//! Chaos recovery experiment: how deep does each scheme dip when a fault
//! lands, and how many slots does it need to climb back?
//!
//! One scripted fault per run (so dips line up with their cause), five
//! fault classes (pod crash, straggler, reconfiguration-failure burst,
//! metric dropout window, silent metric corruption), every scheme on the
//! same seed and arrival process. Reported per `(scheme, fault class)`:
//!
//! * **pre-fault mean** — throughput over the settled window before the
//!   fault (tuples/s);
//! * **dip depth** — `1 − min(post-fault throughput) / pre-fault mean`;
//! * **slots to recover** — slots from the fault until throughput first
//!   returns to ≥ 90 % of the pre-fault mean (`None` = never recovered);
//! * **regret** — `Σ_t max(0, optimal − ideal_t)` over the whole run, the
//!   deployed-configuration shortfall the fault (and the scheme's reaction
//!   to it) caused;
//! * **reconfig failures / held slots** — how hard the retry-with-backoff
//!   path was exercised.
//!
//! The module also provides the zero-fault identity check the `chaos`
//! binary runs first: a harness with an inert [`FaultPlan`] must reproduce
//! the unfaulted baseline trace *bit-identically* (same seed ⇒ same
//! [`Trace`]), proving the chaos layer is pay-for-what-you-use.

use crate::runner::{make_scaler, Scheme};
use dragster_core::greedy_optimal;
use dragster_sim::faults::{FaultKind, FaultPlan, FaultRates, ScriptedFault};
use dragster_sim::fluid::SimConfig;
use dragster_sim::{
    run_experiment_recoverable, run_experiment_with, Application, ClusterConfig, ConstantArrival,
    Deployment, ExperimentOptions, FluidSim, NoiseConfig, RecoveryAction, RecoveryOptions,
    SimError, Trace,
};
use serde::Serialize;

/// One named fault scenario.
#[derive(Clone, Debug)]
pub struct FaultClass {
    pub label: &'static str,
    pub plan: FaultPlan,
}

/// The five scripted fault classes, each landing at `fault_slot` on
/// `operator` (where the class is operator-scoped).
pub fn fault_classes(fault_slot: usize, operator: usize) -> Vec<FaultClass> {
    vec![
        FaultClass {
            label: "pod-crash",
            plan: FaultPlan::none().with(ScriptedFault {
                slot: fault_slot,
                kind: FaultKind::PodCrash,
                operator: Some(operator),
                severity: 1.0,
                duration_slots: 3,
            }),
        },
        FaultClass {
            label: "straggler",
            plan: FaultPlan::none().with(ScriptedFault {
                slot: fault_slot,
                kind: FaultKind::Straggler,
                operator: Some(operator),
                severity: 0.5,
                duration_slots: 4,
            }),
        },
        FaultClass {
            label: "reconfig-fail-burst",
            plan: FaultPlan::none().with(ScriptedFault {
                slot: fault_slot,
                kind: FaultKind::ReconfigFail,
                operator: None,
                severity: 1.0,
                duration_slots: 3,
            }),
        },
        FaultClass {
            label: "metric-dropout",
            plan: FaultPlan::none().with(ScriptedFault {
                slot: fault_slot,
                kind: FaultKind::MetricDropout,
                operator: Some(operator),
                severity: 1.0,
                duration_slots: 4,
            }),
        },
        FaultClass {
            label: "metric-corrupt",
            plan: FaultPlan {
                scripted: vec![ScriptedFault {
                    slot: fault_slot,
                    kind: FaultKind::MetricCorrupt,
                    operator: Some(operator),
                    severity: 1.0,
                    duration_slots: 4,
                }],
                rates: FaultRates {
                    // 40× spikes: finite, silent, sanitizer-clamped
                    metric_corrupt_factor: 40.0,
                    ..Default::default()
                },
            },
        },
    ]
}

/// Recovery metrics for one `(scheme, fault class)` run.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryMetrics {
    pub scheme: String,
    pub fault_class: String,
    pub pre_fault_mean: f64,
    pub dip_depth: f64,
    pub slots_to_recover: Option<usize>,
    pub regret: f64,
    pub reconfig_failures: usize,
    pub held_slots: usize,
    pub fault_events: usize,
    pub degraded_readings: usize,
}

/// Run one scheme against one fault plan and compute recovery metrics.
///
/// # Errors
/// Any non-fault [`SimError`] from the simulator or the scheme's policy
/// (injected faults themselves never abort the run).
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_case(
    scheme: Scheme,
    app: &Application,
    rates: &[f64],
    plan: FaultPlan,
    label: &str,
    slots: usize,
    fault_slot: usize,
    seed: u64,
) -> Result<RecoveryMetrics, SimError> {
    let trace = run_faulted(scheme, app, rates, plan, slots, seed)?;
    let (_, opt) = greedy_optimal(app, rates, 10, None).map_err(SimError::from)?;

    // Settled window: skip the cold-start ramp, stop at the fault.
    let warm = (fault_slot / 2).min(fault_slot.saturating_sub(1));
    let pre: Vec<f64> = trace
        .slots
        .get(warm..fault_slot)
        .unwrap_or_default()
        .iter()
        .map(|s| s.throughput)
        .collect();
    let pre_fault_mean = if pre.is_empty() {
        0.0
    } else {
        pre.iter().sum::<f64>() / pre.len() as f64
    };

    let post: Vec<f64> = trace
        .slots
        .get(fault_slot..)
        .unwrap_or_default()
        .iter()
        .map(|s| s.throughput)
        .collect();
    let min_post = post.iter().copied().fold(f64::INFINITY, f64::min);
    let dip_depth = if pre_fault_mean > 0.0 && min_post.is_finite() {
        (1.0 - min_post / pre_fault_mean).max(0.0)
    } else {
        0.0
    };
    let slots_to_recover = post
        .iter()
        .position(|&f| f >= 0.9 * pre_fault_mean)
        .filter(|_| pre_fault_mean > 0.0);

    let regret: f64 = trace
        .ideal_throughput
        .iter()
        .map(|&i| (opt - i).max(0.0))
        .sum();
    let degraded_readings = trace
        .slots
        .iter()
        .flat_map(|s| &s.operators)
        .filter(|o| o.degraded)
        .count();

    Ok(RecoveryMetrics {
        scheme: scheme.label().into(),
        fault_class: label.into(),
        pre_fault_mean,
        dip_depth,
        slots_to_recover,
        regret,
        reconfig_failures: trace.reconfig_failures,
        held_slots: trace.held_slots,
        fault_events: trace.fault_events.len(),
        degraded_readings,
    })
}

/// The simulator every chaos run uses: default cluster, engine and noise,
/// one task per operator. Callers attach their fault plan with
/// [`FluidSim::with_faults`].
fn make_sim(app: &Application, seed: u64) -> Result<FluidSim, SimError> {
    FluidSim::new(
        app.clone(),
        ClusterConfig::default(),
        SimConfig::default(),
        NoiseConfig::default(),
        seed,
        Deployment::uniform(app.n_operators(), 1),
    )
}

/// Run one scheme under a fault plan and return the full trace.
///
/// # Errors
/// Any non-fault [`SimError`] from the simulator or the policy.
pub fn run_faulted(
    scheme: Scheme,
    app: &Application,
    rates: &[f64],
    plan: FaultPlan,
    slots: usize,
    seed: u64,
) -> Result<Trace, SimError> {
    let mut sim = make_sim(app, seed)?.with_faults(plan);
    let mut scaler = make_scaler(scheme, app, None, seed);
    let mut arrival = ConstantArrival(rates.to_vec());
    run_experiment_with(
        &mut sim,
        scaler.as_mut(),
        &mut arrival,
        slots,
        ExperimentOptions::default(),
    )
}

/// The zero-fault identity check: attaching an inert [`FaultPlan`] must
/// leave the trace bit-identical to the plain baseline run.
///
/// # Errors
/// [`SimError`] if either run fails, or [`SimError::Policy`] if the traces
/// diverge (which would mean the chaos layer perturbs unfaulted runs).
pub fn verify_zero_fault_identity(
    scheme: Scheme,
    app: &Application,
    rates: &[f64],
    slots: usize,
    seed: u64,
) -> Result<(), SimError> {
    let baseline = {
        // No `with_faults` here: this is the run the inert plan must match.
        let mut sim = make_sim(app, seed)?;
        let mut scaler = make_scaler(scheme, app, None, seed);
        let mut arrival = ConstantArrival(rates.to_vec());
        run_experiment_with(
            &mut sim,
            scaler.as_mut(),
            &mut arrival,
            slots,
            ExperimentOptions::default(),
        )?
    };
    let inert = run_faulted(scheme, app, rates, FaultPlan::none(), slots, seed)?;
    if baseline == inert {
        Ok(())
    } else {
        Err(SimError::Policy {
            scheme: scheme.label().into(),
            reason: "zero-fault chaos trace diverged from the unfaulted baseline".into(),
        })
    }
}

/// Regret accounting for one `(scheme, crash period)` controller-crash run.
#[derive(Clone, Debug, Serialize)]
pub struct ControllerCrashRow {
    pub scheme: String,
    /// Crash period in slots; `None` is the clean recoverable baseline.
    pub crash_period: Option<usize>,
    pub crashes: usize,
    /// Crashes recovered by checkpoint restore + journal replay.
    pub restores: usize,
    /// Crashes that fell back to degraded hold-last-deployment mode.
    pub degraded: usize,
    pub fallback_slots: usize,
    pub regret: f64,
    /// `regret − regret(clean run)` — the regret the crashes alone cost.
    pub regret_overhead_vs_clean: f64,
}

/// A fault plan that crashes the controller every `period` slots.
pub fn periodic_crash_plan(period: usize, slots: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    let mut t = period;
    while t < slots {
        plan = plan.with(ScriptedFault {
            slot: t,
            kind: FaultKind::ControllerCrash,
            operator: None,
            severity: 1.0,
            duration_slots: 1,
        });
        t += period;
    }
    plan
}

/// Run one scheme through the crash-safe runtime under a fault plan.
///
/// # Errors
/// Any non-fault [`SimError`] from the simulator or the scheme's policy.
pub fn run_recoverable(
    scheme: Scheme,
    app: &Application,
    rates: &[f64],
    plan: FaultPlan,
    slots: usize,
    seed: u64,
    rec: RecoveryOptions,
) -> Result<Trace, SimError> {
    let mut sim = make_sim(app, seed)?.with_faults(plan);
    let mut scaler = make_scaler(scheme, app, None, seed);
    let mut arrival = ConstantArrival(rates.to_vec());
    run_experiment_recoverable(
        &mut sim,
        scaler.as_mut(),
        &mut arrival,
        slots,
        ExperimentOptions::default(),
        rec,
    )
}

/// Sweep crash periods for one scheme: the first entry of `periods` should
/// be `None` (the clean recoverable baseline every other row's overhead is
/// measured against).
///
/// # Errors
/// Any non-fault [`SimError`] from the simulator, the policy, or the
/// oracle.
pub fn controller_crash_rows(
    scheme: Scheme,
    app: &Application,
    rates: &[f64],
    periods: &[Option<usize>],
    slots: usize,
    seed: u64,
) -> Result<Vec<ControllerCrashRow>, SimError> {
    let (_, opt) = greedy_optimal(app, rates, 10, None).map_err(SimError::from)?;
    let rec = RecoveryOptions::default();
    let mut rows: Vec<ControllerCrashRow> = Vec::with_capacity(periods.len());
    let mut clean_regret = 0.0;
    for &period in periods {
        let plan = period.map_or_else(FaultPlan::none, |p| periodic_crash_plan(p, slots));
        let trace = run_recoverable(scheme, app, rates, plan, slots, seed, rec)?;
        let regret: f64 = trace
            .ideal_throughput
            .iter()
            .map(|&i| (opt - i).max(0.0))
            .sum();
        let restores = trace
            .recovery_events
            .iter()
            .filter(|e| matches!(e.action, RecoveryAction::Restored { .. }))
            .count();
        let degraded = trace
            .recovery_events
            .iter()
            .filter(|e| matches!(e.action, RecoveryAction::Degraded { .. }))
            .count();
        if period.is_none() {
            clean_regret = regret;
        }
        rows.push(ControllerCrashRow {
            scheme: scheme.label().into(),
            crash_period: period,
            crashes: trace.controller_crashes,
            restores,
            degraded,
            fallback_slots: trace.fallback_slots,
            regret,
            regret_overhead_vs_clean: if period.is_none() {
                0.0
            } else {
                regret - clean_regret
            },
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dragster_workloads::word_count;

    #[test]
    fn zero_fault_identity_holds_for_all_paper_schemes() {
        let w = word_count().unwrap();
        for s in crate::runner::ALL_SCHEMES {
            verify_zero_fault_identity(s, &w.app, &w.high_rate, 6, 11).unwrap();
        }
    }

    #[test]
    fn chaos_case_produces_finite_metrics() {
        let w = word_count().unwrap();
        for fc in fault_classes(5, 0) {
            let m = run_chaos_case(
                Scheme::DragsterSaddle,
                &w.app,
                &w.high_rate,
                fc.plan,
                fc.label,
                12,
                5,
                3,
            )
            .unwrap();
            assert!(m.pre_fault_mean.is_finite() && m.pre_fault_mean > 0.0);
            assert!((0.0..=1.0).contains(&m.dip_depth), "{}", m.dip_depth);
            assert!(m.regret.is_finite() && m.regret >= 0.0);
        }
    }

    #[test]
    fn controller_crash_rows_count_crashes_and_baseline_has_none() {
        let w = word_count().unwrap();
        let rows = controller_crash_rows(
            Scheme::DragsterSaddle,
            &w.app,
            &w.high_rate,
            &[None, Some(5)],
            12,
            42,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].crash_period, None);
        assert_eq!(rows[0].crashes, 0);
        assert_eq!(rows[0].regret_overhead_vs_clean, 0.0);
        // period 5 over 12 slots ⇒ crashes at slots 5 and 10
        assert_eq!(rows[1].crashes, 2);
        assert_eq!(rows[1].restores, 2, "per-slot checkpoints always restore");
        assert_eq!(rows[1].degraded, 0);
        assert!(rows[1].regret.is_finite() && rows[1].regret >= 0.0);
        // restore + replay is bit-identical ⇒ crash recovery is regret-free
        assert_eq!(rows[1].regret_overhead_vs_clean, 0.0);
    }

    #[test]
    fn crash_class_actually_dips() {
        let w = word_count().unwrap();
        let fc = &fault_classes(6, 0)[0]; // pod-crash
        let m = run_chaos_case(
            Scheme::DragsterSaddle,
            &w.app,
            &w.high_rate,
            fc.plan.clone(),
            fc.label,
            16,
            6,
            3,
        )
        .unwrap();
        assert!(m.dip_depth > 0.1, "crash should dent throughput: {m:?}");
        assert!(m.fault_events >= 1);
    }
}
