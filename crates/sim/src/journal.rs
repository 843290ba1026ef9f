//! The decision journal: an append-only, checksummed record of every
//! control-plane decision, written by the harness as slots complete.
//!
//! A checkpoint alone can only restore the controller to the last
//! snapshot; the journal closes the gap to the crash point. Each record
//! stores the slot's *raw pre-sanitize* metrics, the deployment the
//! decision saw, the post-projection decision, and the reconfiguration
//! outcome. A restarted controller replays the records after its
//! checkpoint slot — re-running `sanitize` and `decide` on the journaled
//! inputs — which deterministically rebuilds the exact learner and
//! sanitizer state at the crash point (the replay-identity guarantee
//! validated in `tests/recovery.rs`).
//!
//! Records are framed with the same FNV-1a seal as checkpoints
//! ([`crate::checkpoint::seal`]); a torn or missing record is detected at
//! replay time and routes recovery to the degraded fallback instead of
//! silently replaying wrong history.

use crate::checkpoint::{decode_slot_metrics, unseal, write_slot_metrics, CheckpointError};
use crate::json::{self, Json};
use crate::metrics::SlotMetrics;

/// What happened to the reconfiguration decided at a slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigOutcome {
    /// The decided deployment was applied.
    Applied,
    /// The attempt failed (injected fault); backoff advanced.
    Failed,
    /// No attempt was made (backoff window or degraded fallback hold).
    Held,
}

impl ReconfigOutcome {
    fn as_str(self) -> &'static str {
        match self {
            ReconfigOutcome::Applied => "applied",
            ReconfigOutcome::Failed => "failed",
            ReconfigOutcome::Held => "held",
        }
    }

    fn from_str(s: &str) -> Option<ReconfigOutcome> {
        match s {
            "applied" => Some(ReconfigOutcome::Applied),
            "failed" => Some(ReconfigOutcome::Failed),
            "held" => Some(ReconfigOutcome::Held),
            _ => None,
        }
    }
}

/// One slot's journal entry.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalRecord {
    pub t: usize,
    /// Raw engine snapshot *before* sanitization — replay re-runs the
    /// sanitizer so its internal history is rebuilt exactly.
    pub raw: SlotMetrics,
    /// Deployment in effect when the decision was made.
    pub deployment_before: Vec<usize>,
    /// The decided (clamped + budget-projected) target deployment.
    pub decided: Vec<usize>,
    pub outcome: ReconfigOutcome,
}

/// Why a journal range could not be replayed. Like checkpoint failures,
/// these route recovery to the degraded fallback.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// A record failed its checksum or did not decode.
    Corrupt { index: usize, detail: String },
    /// A slot in the requested range has no record.
    Gap { slot: usize },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Corrupt { index, detail } => {
                write!(f, "journal record {index} corrupt: {detail}")
            }
            JournalError::Gap { slot } => {
                write!(f, "journal has no record for slot {slot}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl JournalRecord {
    /// Writes the record's JSON body into `out` without allocating —
    /// byte-identical to the [`Json`] tree this codec originally built
    /// (the journal appends every slot, so the tree construction was on
    /// the controller hot path).
    fn write_body(&self, out: &mut String) {
        out.push_str("{\"t\":");
        json::push_usize(self.t, out);
        out.push_str(",\"raw\":");
        write_slot_metrics(&self.raw, out);
        out.push_str(",\"deployment_before\":[");
        for (i, &x) in self.deployment_before.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_usize(x, out);
        }
        out.push_str("],\"decided\":[");
        for (i, &x) in self.decided.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_usize(x, out);
        }
        out.push_str("],\"outcome\":\"");
        json::escape_into(self.outcome.as_str(), out);
        out.push_str("\"}");
    }

    /// Serializes to a sealed line.
    pub fn encode(&self) -> String {
        let mut body = String::new();
        self.write_body(&mut body);
        let mut line = String::with_capacity(body.len() + 17);
        json::push_u64_hex(json::fnv1a64(body.as_bytes()), &mut line);
        line.push('\n');
        line.push_str(&body);
        line
    }

    /// Deserializes a sealed line.
    pub fn decode(line: &str) -> Result<JournalRecord, String> {
        let body = unseal(line)?;
        let j = json::parse_json(body)?;
        let field = |k: &str| format!("missing/invalid field `{k}`");
        Ok(JournalRecord {
            t: j.get("t")
                .and_then(Json::as_usize)
                .ok_or_else(|| field("t"))?,
            raw: decode_slot_metrics(j.get("raw").ok_or_else(|| field("raw"))?)
                .map_err(|e: CheckpointError| e.to_string())?,
            deployment_before: j
                .get("deployment_before")
                .and_then(json::usize_vec)
                .ok_or_else(|| field("deployment_before"))?,
            decided: j
                .get("decided")
                .and_then(json::usize_vec)
                .ok_or_else(|| field("decided"))?,
            outcome: j
                .get("outcome")
                .and_then(Json::as_str)
                .and_then(ReconfigOutcome::from_str)
                .ok_or_else(|| field("outcome"))?,
        })
    }
}

/// The append-only journal. In-memory (the simulator's "durable" log) —
/// one sealed line per slot, never rewritten.
#[derive(Clone, Debug, Default)]
pub struct DecisionJournal {
    lines: Vec<String>,
    /// Reusable body buffer for [`DecisionJournal::append`]; never part
    /// of the log itself.
    scratch: String,
}

impl DecisionJournal {
    pub fn new() -> DecisionJournal {
        DecisionJournal::default()
    }

    /// Appends one slot's record. The only allocation is the sealed line
    /// itself (the durable log entry); the body is staged in a reused
    /// scratch buffer.
    pub fn append(&mut self, record: &JournalRecord) {
        self.scratch.clear();
        record.write_body(&mut self.scratch);
        let mut line = String::with_capacity(self.scratch.len() + 17);
        json::push_u64_hex(json::fnv1a64(self.scratch.as_bytes()), &mut line);
        line.push('\n');
        line.push_str(&self.scratch);
        self.lines.push(line);
    }

    /// Number of appended records.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Chaos hook: tear the record at `index` (truncated tail, as a crash
    /// mid-append would leave). No-op when out of range.
    pub fn corrupt_record(&mut self, index: usize) {
        if let Some(line) = self.lines.get_mut(index) {
            let keep = line.len() / 2;
            line.truncate(keep);
        }
    }

    /// Decodes and returns the records for slots `from_slot..to_slot`
    /// (half-open), in slot order, verifying checksums and completeness.
    /// Lines are decoded newest-first and the scan stops once every slot
    /// in the range is filled, so records older than the range are never
    /// decoded and a torn record there does not block recovery. When a
    /// slot was journaled twice, the record appended last wins.
    ///
    /// # Errors
    /// An incomplete range reports the lowest-index corrupt line when the
    /// scan met one ([`JournalError::Corrupt`]), else the first missing
    /// slot ([`JournalError::Gap`]).
    pub fn replay_range(
        &self,
        from_slot: usize,
        to_slot: usize,
    ) -> Result<Vec<JournalRecord>, JournalError> {
        let mut by_slot: Vec<Option<JournalRecord>> = vec![None; to_slot.saturating_sub(from_slot)];
        let mut missing = by_slot.len();
        // Scanning backwards, the last corrupt line seen has the lowest
        // index. It only fails the replay if the range ends up incomplete
        // (it may have held a slot we need).
        let mut first_corrupt: Option<(usize, String)> = None;
        for (index, line) in self.lines.iter().enumerate().rev() {
            if missing == 0 {
                break;
            }
            match JournalRecord::decode(line) {
                Ok(rec) => {
                    let cell = rec
                        .t
                        .checked_sub(from_slot)
                        .and_then(|i| by_slot.get_mut(i));
                    if let Some(cell) = cell.filter(|c| c.is_none()) {
                        *cell = Some(rec);
                        missing -= 1;
                    }
                }
                Err(detail) => first_corrupt = Some((index, detail)),
            }
        }
        if missing == 0 {
            return Ok(by_slot.into_iter().flatten().collect());
        }
        // Corruption is the actionable cause when present — the missing
        // slot was likely inside the torn record.
        Err(match first_corrupt {
            Some((index, detail)) => JournalError::Corrupt { index, detail },
            None => JournalError::Gap {
                slot: from_slot + by_slot.iter().position(Option::is_none).unwrap_or(0),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OperatorMetrics;

    fn record(t: usize) -> JournalRecord {
        JournalRecord {
            t,
            raw: SlotMetrics {
                t,
                sim_time_secs: 600.0 * crate::convert::usize_to_f64(t + 1),
                throughput: 90.5,
                processed_tuples: 54_300.0,
                dropped_tuples: 0.0,
                cost_dollars: 0.05,
                pods: 2,
                source_rates: vec![100.0],
                reconfigured: false,
                pause_secs: 0.0,
                operators: vec![OperatorMetrics {
                    name: "op".to_string(),
                    tasks: 2,
                    input_rate: 100.0,
                    input_rates: vec![100.0],
                    output_rate: 90.5,
                    offered_load: 100.0,
                    cpu_util: 0.55,
                    capacity_sample: f64::NAN, // raw records may carry NaN
                    buffer_tuples: 3.25,
                    latency_estimate_secs: 0.02,
                    backpressure: false,
                    degraded: false,
                }],
            },
            deployment_before: vec![2],
            decided: vec![3],
            outcome: ReconfigOutcome::Applied,
        }
    }

    #[test]
    fn record_roundtrip_preserves_nan_payloads() {
        let rec = record(4);
        let back = JournalRecord::decode(&rec.encode()).expect("decode");
        assert_eq!(back.t, rec.t);
        assert_eq!(back.decided, rec.decided);
        assert_eq!(back.outcome, rec.outcome);
        // NaN != NaN, so compare bits explicitly.
        assert_eq!(
            back.raw.operators[0].capacity_sample.to_bits(),
            rec.raw.operators[0].capacity_sample.to_bits()
        );
    }

    #[test]
    fn append_line_is_byte_identical_to_encode() {
        // `append` stages the body in a reused scratch buffer and seals
        // by hand; the stored line must stay byte-identical to the
        // allocating `encode()` path (and to the tree-based codec both
        // were derived from — see `checkpoint::tests`).
        let mut journal = DecisionJournal::new();
        for t in 0..4 {
            journal.append(&record(t));
        }
        for t in 0..4 {
            assert_eq!(journal.lines[t], record(t).encode(), "slot {t}");
        }
        // And the wire form still carries the seal frame.
        let tree_body =
            crate::json::parse_json(crate::checkpoint::unseal(&journal.lines[2]).expect("sealed"));
        assert!(tree_body.is_ok());
    }

    #[test]
    fn replay_range_returns_slots_in_order() {
        let mut journal = DecisionJournal::new();
        for t in 0..10 {
            journal.append(&record(t));
        }
        let recs = journal.replay_range(3, 7).expect("replay");
        assert_eq!(
            recs.iter().map(|r| r.t).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        assert!(journal.replay_range(5, 5).expect("empty range").is_empty());
    }

    #[test]
    fn corrupt_record_fails_replay_loudly() {
        let mut journal = DecisionJournal::new();
        for t in 0..6 {
            journal.append(&record(t));
        }
        journal.corrupt_record(4);
        match journal.replay_range(2, 6) {
            Err(JournalError::Corrupt { index: 4, .. }) => {}
            other => panic!("expected Corrupt at 4, got {other:?}"),
        }
    }

    #[test]
    fn missing_slot_is_a_gap() {
        let mut journal = DecisionJournal::new();
        journal.append(&record(0));
        journal.append(&record(2)); // slot 1 never journaled
        match journal.replay_range(0, 3) {
            Err(JournalError::Gap { slot: 1 }) => {}
            other => panic!("expected Gap at 1, got {other:?}"),
        }
    }

    #[test]
    fn torn_record_before_the_range_does_not_block_replay() {
        let mut journal = DecisionJournal::new();
        for t in 0..8 {
            journal.append(&record(t));
        }
        journal.corrupt_record(1);
        journal.corrupt_record(5);
        journal.append(&JournalRecord {
            decided: vec![9],
            ..record(7)
        });
        // Slot 7 was journaled twice: the later record wins.
        let recs = journal
            .replay_range(6, 8)
            .expect("torn records lie outside the range");
        assert_eq!(recs.iter().map(|r| r.t).collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(recs[1].decided, vec![9]);
        // A range that needs a torn record still fails, naming the lowest
        // corrupt line.
        match journal.replay_range(0, 8) {
            Err(JournalError::Corrupt { index: 1, .. }) => {}
            other => panic!("expected Corrupt at 1, got {other:?}"),
        }
    }
}
