//! Crash-safe controller runtime at the system level (DESIGN §10): the
//! replay-identity guarantee (crash anywhere, restore from checkpoint,
//! replay the journal ⇒ bit-identical remaining trace), the degraded
//! fallback when the checkpoint does not validate, composition of
//! controller-crash faults with data-plane chaos, and journal corruption
//! detection.

use dragster::sim::faults::{FaultKind, FaultPlan, FaultRates, ScriptedFault};
use dragster::sim::fluid::SimConfig;
use dragster::sim::journal::{DecisionJournal, JournalError, JournalRecord, ReconfigOutcome};
use dragster::sim::{
    run_experiment_recoverable, run_experiment_with, ClusterConfig, ConstantArrival, DegradeReason,
    Deployment, ExperimentOptions, FluidSim, NoiseConfig, RecoveryAction, RecoveryOptions,
    SlotMetrics, Trace,
};
use dragster::workloads::word_count;

const SEED: u64 = 42;
const SLOTS: usize = 12;

fn make_sim(plan: FaultPlan, seed: u64) -> FluidSim {
    let w = word_count().unwrap();
    FluidSim::new(
        w.app.clone(),
        ClusterConfig::default(),
        SimConfig::default(),
        NoiseConfig::default(),
        seed,
        Deployment::uniform(w.app.n_operators(), 1),
    )
    .unwrap()
    .with_faults(plan)
}

fn run_recoverable(plan: FaultPlan, seed: u64, slots: usize, rec: RecoveryOptions) -> Trace {
    let w = word_count().unwrap();
    let mut sim = make_sim(plan, seed);
    let mut scaler = dragster::core::Dragster::new(
        w.app.topology.clone(),
        dragster::core::DragsterConfig::saddle_point(),
    );
    let mut arrival = ConstantArrival(w.high_rate.clone());
    run_experiment_recoverable(
        &mut sim,
        &mut scaler,
        &mut arrival,
        slots,
        ExperimentOptions::default(),
        rec,
    )
    .unwrap()
}

fn crash_at(slot: usize) -> FaultPlan {
    FaultPlan::none().with(ScriptedFault {
        slot,
        kind: FaultKind::ControllerCrash,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    })
}

/// The data-plane face of two traces must match bit-for-bit; only the
/// recovery bookkeeping (crash counters, recovery events, controller
/// fault events) is allowed to differ.
fn assert_data_plane_identical(a: &Trace, b: &Trace, ctx: &str) {
    assert_eq!(a.slots, b.slots, "{ctx}: slot metrics diverged");
    assert_eq!(a.deployments, b.deployments, "{ctx}: deployments diverged");
    assert_eq!(
        a.ideal_throughput, b.ideal_throughput,
        "{ctx}: ideal throughput diverged"
    );
    assert_eq!(
        a.reconfig_failures, b.reconfig_failures,
        "{ctx}: reconfig failures diverged"
    );
    assert_eq!(a.held_slots, b.held_slots, "{ctx}: held slots diverged");
}

#[test]
fn inert_plan_recoverable_run_matches_run_experiment_with_bit_identically() {
    let w = word_count().unwrap();
    let baseline = {
        let mut sim = make_sim(FaultPlan::none(), SEED);
        let mut scaler = dragster::core::Dragster::new(
            w.app.topology.clone(),
            dragster::core::DragsterConfig::saddle_point(),
        );
        let mut arrival = ConstantArrival(w.high_rate.clone());
        run_experiment_with(
            &mut sim,
            &mut scaler,
            &mut arrival,
            SLOTS,
            ExperimentOptions::default(),
        )
        .unwrap()
    };
    let recoverable = run_recoverable(FaultPlan::none(), SEED, SLOTS, RecoveryOptions::default());
    assert_eq!(
        baseline, recoverable,
        "zero-fault recoverable trace must equal the plain harness trace"
    );
    assert_eq!(recoverable.controller_crashes, 0);
    assert!(recoverable.recovery_events.is_empty());
    assert_eq!(recoverable.fallback_slots, 0);
}

#[test]
fn plain_harness_ignores_controller_faults() {
    let w = word_count().unwrap();
    let run = |plan: FaultPlan| {
        let mut sim = make_sim(plan, SEED);
        let mut scaler = dragster::core::Dragster::new(
            w.app.topology.clone(),
            dragster::core::DragsterConfig::saddle_point(),
        );
        let mut arrival = ConstantArrival(w.high_rate.clone());
        run_experiment_with(
            &mut sim,
            &mut scaler,
            &mut arrival,
            SLOTS,
            ExperimentOptions::default(),
        )
        .unwrap()
    };
    let controller_faults = FaultPlan {
        scripted: crash_at(4).scripted,
        rates: FaultRates {
            controller_crash_prob: 0.5,
            ..Default::default()
        },
    };
    let faulted = run(controller_faults);
    assert_eq!(faulted.controller_crashes, 0);
    assert_eq!(
        faulted,
        run(FaultPlan::none()),
        "controller faults must not reach run_experiment_with"
    );
}

#[test]
fn crash_restore_replay_is_bit_identical_at_every_probe_slot() {
    let clean = run_recoverable(FaultPlan::none(), SEED, SLOTS, RecoveryOptions::default());
    for k in [1, SLOTS / 2, SLOTS - 1] {
        let crashed = run_recoverable(crash_at(k), SEED, SLOTS, RecoveryOptions::default());
        assert_eq!(crashed.controller_crashes, 1);
        assert!(
            crashed
                .recovery_events
                .iter()
                .any(|e| e.slot == k && matches!(e.action, RecoveryAction::Restored { .. })),
            "crash at slot {k} should restore, got {:?}",
            crashed.recovery_events
        );
        assert_eq!(crashed.fallback_slots, 0, "restore must not enter fallback");
        assert_data_plane_identical(&clean, &crashed, &format!("crash at slot {k}"));
    }
}

#[test]
fn sparse_checkpoints_replay_journal_records_to_the_crash_point() {
    let rec = RecoveryOptions {
        checkpoint_every: 5,
        ..Default::default()
    };
    let clean = run_recoverable(FaultPlan::none(), SEED, SLOTS, rec);
    // Crash at slot 9: newest checkpoint is slot 5, so slots 6–8 must be
    // rebuilt from the journal.
    let crashed = run_recoverable(crash_at(9), SEED, SLOTS, rec);
    assert!(
        crashed.recovery_events.iter().any(|e| e.slot == 9
            && e.action
                == RecoveryAction::Restored {
                    checkpoint_slot: 5,
                    replayed_slots: 3,
                }),
        "expected restore from checkpoint 5 with 3 replayed slots, got {:?}",
        crashed.recovery_events
    );
    assert_data_plane_identical(&clean, &crashed, "sparse-checkpoint crash at slot 9");
}

#[test]
fn crash_inside_a_retry_backoff_replays_the_backoff() {
    let reconfig_fail = |slot| ScriptedFault {
        slot,
        kind: FaultKind::ReconfigFail,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    };
    let failures = FaultPlan::none()
        .with(reconfig_fail(2))
        .with(reconfig_fail(3))
        .with(reconfig_fail(5));
    let rec = RecoveryOptions {
        checkpoint_every: 4,
        ..Default::default()
    };
    let clean = run_recoverable(failures.clone(), SEED, SLOTS, rec);
    assert!(clean.reconfig_failures >= 2, "{}", clean.reconfig_failures);
    assert!(clean.held_slots >= 1, "backoff must hold at least one slot");
    // Checkpoints land at slots 0, 4 and 8, so every crash replays journal
    // records, some of them failed attempts the backoff depends on.
    for k in 3..9 {
        let mut plan = failures.clone();
        plan.scripted.extend(crash_at(k).scripted);
        let crashed = run_recoverable(plan, SEED, SLOTS, rec);
        assert_eq!(crashed.controller_crashes, 1);
        assert_data_plane_identical(&clean, &crashed, &format!("crash at slot {k}"));
    }
}

#[test]
fn torn_checkpoint_degrades_and_holds_the_deployment() {
    // Corrupt the newest checkpoint in the same slot the crash lands: the
    // restore sees a torn blob and must fall back.
    let plan = crash_at(7).with(ScriptedFault {
        slot: 7,
        kind: FaultKind::CheckpointCorrupt,
        operator: None,
        severity: 1.0,
        duration_slots: 1,
    });
    let rec = RecoveryOptions {
        rewarm_slots: 3,
        ..Default::default()
    };
    let trace = run_recoverable(plan, SEED, SLOTS, rec);
    assert!(
        trace.recovery_events.iter().any(|e| e.slot == 7
            && e.action
                == RecoveryAction::Degraded {
                    reason: DegradeReason::TornCheckpoint,
                }),
        "torn checkpoint should degrade, got {:?}",
        trace.recovery_events
    );
    assert_eq!(trace.fallback_slots, 3, "deployment held for rewarm window");
    // The held window really holds: deployments are frozen over it.
    for t in 7..10 {
        assert_eq!(
            trace.deployments[t], trace.deployments[7],
            "deployment moved during fallback at slot {t}"
        );
    }
    assert!(
        trace
            .recovery_events
            .iter()
            .any(|e| e.action == RecoveryAction::Resumed),
        "fallback window should end with a resume, got {:?}",
        trace.recovery_events
    );
}

#[test]
fn stale_checkpoint_degrades() {
    // Checkpoints only at slot 0; crash at slot 8 exceeds the 2-slot
    // staleness bound.
    let rec = RecoveryOptions {
        checkpoint_every: 100,
        max_checkpoint_age_slots: 2,
        rewarm_slots: 2,
    };
    let trace = run_recoverable(crash_at(8), SEED, SLOTS, rec);
    assert!(
        trace.recovery_events.iter().any(|e| e.slot == 8
            && e.action
                == RecoveryAction::Degraded {
                    reason: DegradeReason::StaleCheckpoint,
                }),
        "stale checkpoint should degrade, got {:?}",
        trace.recovery_events
    );
    assert!(trace.fallback_slots > 0);
}

#[test]
fn controller_crash_layers_onto_data_plane_chaos_without_perturbing_it() {
    let data_plane = FaultPlan {
        scripted: vec![],
        rates: FaultRates {
            pod_crash_prob: 0.1,
            metric_corrupt_prob: 0.15,
            metric_corrupt_factor: 30.0,
            ..Default::default()
        },
    };
    let base = run_recoverable(data_plane.clone(), SEED, SLOTS, RecoveryOptions::default());
    let layered_plan = FaultPlan {
        scripted: crash_at(6).scripted,
        rates: data_plane.rates,
    };
    let layered = run_recoverable(
        layered_plan.clone(),
        SEED,
        SLOTS,
        RecoveryOptions::default(),
    );
    assert_eq!(layered.controller_crashes, 1);
    // The crash restores (checkpoint_every = 1), so decisions — and hence
    // the engine realization — are bit-identical to the crash-free run.
    assert_data_plane_identical(&base, &layered, "controller crash over data-plane chaos");
    let engine_events = |t: &Trace| {
        t.fault_events
            .iter()
            .filter(|e| {
                !matches!(
                    e.kind,
                    FaultKind::ControllerCrash
                        | FaultKind::CheckpointCorrupt
                        | FaultKind::CheckpointStale
                )
            })
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(
        engine_events(&base),
        engine_events(&layered),
        "data-plane fault realization must not shift under controller faults"
    );
    // Determinism: the layered run reproduces itself exactly.
    let again = run_recoverable(layered_plan, SEED, SLOTS, RecoveryOptions::default());
    assert_eq!(layered, again);
}

#[test]
fn scripted_and_stochastic_crash_never_double_fire_in_one_slot() {
    let plan = FaultPlan {
        scripted: crash_at(4).scripted,
        rates: FaultRates {
            controller_crash_prob: 1.0,
            ..Default::default()
        },
    };
    let trace = run_recoverable(plan, SEED, 8, RecoveryOptions::default());
    for t in 0..8 {
        let crashes_at_t = trace
            .fault_events
            .iter()
            .filter(|e| e.slot == t && e.kind == FaultKind::ControllerCrash)
            .count();
        assert_eq!(
            crashes_at_t, 1,
            "slot {t}: scripted + stochastic crash must collapse to one event"
        );
    }
    assert_eq!(trace.controller_crashes, 8);
}

#[test]
fn journal_detects_corruption_and_gaps() {
    let raw = SlotMetrics {
        t: 0,
        sim_time_secs: 0.0,
        throughput: 100.0,
        processed_tuples: 100.0,
        dropped_tuples: 0.0,
        cost_dollars: 1.0,
        pods: 2,
        source_rates: vec![50.0],
        reconfigured: false,
        pause_secs: 0.0,
        operators: vec![],
    };
    let mut journal = DecisionJournal::new();
    for t in 0..5 {
        journal.append(&JournalRecord {
            t,
            raw: SlotMetrics { t, ..raw.clone() },
            deployment_before: vec![1, 1],
            decided: vec![2, 2],
            outcome: ReconfigOutcome::Applied,
        });
    }
    // Intact journal round-trips.
    let records = journal.replay_range(0, 5).unwrap();
    assert_eq!(records.len(), 5);
    assert_eq!(records[3].t, 3);
    assert_eq!(records[3].decided, vec![2, 2]);
    // A flipped byte in record 2 is caught by its checksum.
    journal.corrupt_record(2);
    match journal.replay_range(0, 5) {
        Err(JournalError::Corrupt { index, .. }) => assert_eq!(index, 2),
        other => panic!("expected corrupt-record error, got {other:?}"),
    }
    // A missing slot is reported as a gap.
    let mut sparse = DecisionJournal::new();
    for t in [0usize, 1, 3, 4] {
        sparse.append(&JournalRecord {
            t,
            raw: SlotMetrics { t, ..raw.clone() },
            deployment_before: vec![1, 1],
            decided: vec![1, 1],
            outcome: ReconfigOutcome::Held,
        });
    }
    match sparse.replay_range(0, 5) {
        Err(JournalError::Gap { slot }) => assert_eq!(slot, 2),
        other => panic!("expected gap error, got {other:?}"),
    }
}
