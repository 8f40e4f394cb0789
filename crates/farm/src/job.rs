//! Batch design jobs and their content fingerprints.
//!
//! A [`DesignJob`] pairs one behaviour input (a raw [`BitTrace`] or a
//! prebuilt [`MarkovModel`]) with the [`Designer`] configuration to run it
//! under. The job's [`fingerprint`](DesignJob::fingerprint) is a stable
//! 64-bit FNV-1a digest over everything that determines the resulting
//! design — trace bits, history order, pattern thresholds, minimization
//! algorithm and budget caps — so the farm's cache can treat two jobs with
//! equal fingerprints as the same design.

use crate::fnv::Fnv1a;
use fsmgen::{Designer, MarkovModel};
use fsmgen_logicmin::Algorithm;
use fsmgen_traces::BitTrace;
use std::sync::Arc;

/// Seed distinguishing [`DesignJob::verify_hash`] from
/// [`DesignJob::fingerprint`] (an arbitrary odd constant).
const VERIFY_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Version of the rule that decides where a `max_dfa_states` budget
/// degrades a design. Version 2 charges the budget for the whole
/// history-window machine (`2^(h+1) − 1` states); version 1 charged the
/// states subset construction reached, so a budgeted job can land on a
/// different rung under each. Mixing this word into budgeted digests keeps
/// a store written under version 1 from serving those jobs; unbudgeted
/// fingerprints carry no version and are unchanged.
const DFA_BUDGET_RULES: u64 = 2;

/// The behaviour input a job designs from.
#[derive(Debug, Clone)]
pub enum JobInput {
    /// A 0/1 behaviour trace; the designer builds the Markov model itself.
    /// Shared via `Arc` so a fleet of jobs over one trace (e.g. a history
    /// sweep) costs one allocation.
    Trace(Arc<BitTrace>),
    /// A prebuilt model — the per-branch, global-history models the §7.3
    /// custom-predictor trainer produces.
    Model(MarkovModel),
}

/// One unit of batch work: design a predictor for `input` under
/// `designer`'s configuration.
#[derive(Debug, Clone)]
pub struct DesignJob {
    /// Caller-chosen identifier; results come back keyed by it, in
    /// submission order, regardless of scheduling.
    pub id: u64,
    /// The behaviour to design from.
    pub input: JobInput,
    /// The design-flow configuration.
    pub designer: Designer,
}

impl DesignJob {
    /// A job designing from a shared trace.
    #[must_use]
    pub fn from_trace(id: u64, trace: Arc<BitTrace>, designer: Designer) -> Self {
        DesignJob {
            id,
            input: JobInput::Trace(trace),
            designer,
        }
    }

    /// A job designing from a prebuilt Markov model.
    #[must_use]
    pub fn from_model(id: u64, model: MarkovModel, designer: Designer) -> Self {
        DesignJob {
            id,
            input: JobInput::Model(model),
            designer,
        }
    }

    /// The job's content fingerprint, or `None` when the job is not
    /// cacheable.
    ///
    /// A job with a wall-clock deadline in its budget is *never* cacheable:
    /// its outcome depends on when it runs, so memoizing it would make
    /// batch results scheduling-dependent. Everything else that influences
    /// the produced design is folded in: input bits (or model counts),
    /// history order, pattern thresholds, algorithm, degradation switch
    /// and each budget cap (with presence tags, so `Some(0)` ≠ `None`).
    #[must_use]
    pub fn fingerprint(&self) -> Option<u64> {
        self.digest(Fnv1a::new())
    }

    /// A second, independent digest over the same job contents, used by the
    /// durable store's warm entries to re-verify that a fingerprint match is a
    /// content match and not a 64-bit collision. Same cacheability rule as
    /// [`fingerprint`](DesignJob::fingerprint); the two digests differ only
    /// in their FNV seed, so a collision in one is (with overwhelming
    /// probability) not a collision in the other.
    #[must_use]
    pub fn verify_hash(&self) -> Option<u64> {
        self.digest(Fnv1a::with_seed(VERIFY_SEED))
    }

    /// Walks every content field of the job into `h`. Shared by the cache
    /// fingerprint and the store verification hash.
    fn digest(&self, mut h: Fnv1a) -> Option<u64> {
        let budget = self.designer.design_budget();
        if budget.deadline.is_some() {
            return None;
        }

        // Input: tag the variant, then the canonical contents.
        match &self.input {
            JobInput::Trace(trace) => {
                h.write_u64(1);
                h.write_usize(trace.len());
                for &w in trace.words() {
                    h.write_u64(w);
                }
            }
            JobInput::Model(model) => {
                h.write_u64(2);
                h.write_usize(model.order());
                // BTreeMap iteration order is deterministic by history.
                for (history, counts) in model.iter() {
                    h.write_u64(u64::from(history));
                    h.write_u64(counts.zeros);
                    h.write_u64(counts.ones);
                }
            }
        }

        // Designer configuration.
        h.write_usize(self.designer.history());
        let patterns = self.designer.pattern_settings();
        h.write_f64(patterns.prob_threshold);
        h.write_f64(patterns.dont_care_fraction);
        h.write_u64(u64::from(self.designer.degrade_enabled()));
        match self.designer.minimize_algorithm() {
            Algorithm::Exact => h.write_u64(0),
            Algorithm::Heuristic => h.write_u64(1),
            Algorithm::ShortWindow => h.write_u64(2),
            Algorithm::Auto { exact_up_to } => {
                h.write_u64(3);
                h.write_usize(exact_up_to);
            }
        }

        // Budget caps (deadline ruled out above).
        h.write_opt_usize(budget.max_dfa_states);
        h.write_opt_usize(budget.max_nfa_states);
        h.write_opt_usize(budget.max_minterms);
        h.write_opt_usize(budget.max_primes);
        h.write_opt_usize(budget.max_cover_nodes);
        if budget.max_dfa_states.is_some() {
            h.write_u64(DFA_BUDGET_RULES);
        }

        Some(h.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsmgen::DesignBudget;
    use std::time::{Duration, Instant};

    fn trace() -> Arc<BitTrace> {
        Arc::new("0000 1000 1011 1101 1110 1111".parse().unwrap())
    }

    #[test]
    fn equal_jobs_share_a_fingerprint() {
        let a = DesignJob::from_trace(0, trace(), Designer::new(2));
        let b = DesignJob::from_trace(7, trace(), Designer::new(2));
        // The id is routing information, not content.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert!(a.fingerprint().is_some());
    }

    #[test]
    fn config_fields_separate_fingerprints() {
        let base = DesignJob::from_trace(0, trace(), Designer::new(2));
        let variants = [
            DesignJob::from_trace(0, trace(), Designer::new(3)),
            DesignJob::from_trace(0, trace(), Designer::new(2).prob_threshold(0.75)),
            DesignJob::from_trace(0, trace(), Designer::new(2).dont_care_fraction(0.0)),
            DesignJob::from_trace(0, trace(), Designer::new(2).algorithm(Algorithm::Heuristic)),
            DesignJob::from_trace(0, trace(), Designer::new(2).degrade(false)),
            DesignJob::from_trace(
                0,
                trace(),
                Designer::new(2).budget(DesignBudget {
                    max_dfa_states: Some(64),
                    ..DesignBudget::default()
                }),
            ),
        ];
        for v in &variants {
            assert_ne!(base.fingerprint(), v.fingerprint());
        }
    }

    #[test]
    fn only_dfa_budgeted_fingerprints_moved_with_the_window_rule() {
        // Digests under version 1 of the `max_dfa_states` rule.
        let unbudgeted = DesignJob::from_trace(0, trace(), Designer::new(2));
        assert_eq!(unbudgeted.fingerprint(), Some(0x564e_2e6f_7c22_6a38));
        assert_eq!(unbudgeted.verify_hash(), Some(0x822e_b398_fd6e_1ea9));
        let budgeted = DesignJob::from_trace(
            0,
            trace(),
            Designer::new(2).budget(DesignBudget {
                max_dfa_states: Some(64),
                ..DesignBudget::default()
            }),
        );
        assert_ne!(budgeted.fingerprint(), Some(0x78dd_2e7e_ecec_b1b9));
        assert_ne!(budgeted.verify_hash(), Some(0x8d71_41ee_1a54_fd48));
    }

    #[test]
    fn trace_and_model_never_collide_by_tag() {
        let t = trace();
        let model = MarkovModel::from_bit_trace(2, &t).unwrap();
        let a = DesignJob::from_trace(0, t, Designer::new(2));
        let b = DesignJob::from_model(0, model, Designer::new(2));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn verify_hash_is_independent_of_fingerprint() {
        let job = DesignJob::from_trace(0, trace(), Designer::new(2));
        let fp = job.fingerprint().unwrap();
        let vh = job.verify_hash().unwrap();
        assert_ne!(fp, vh);
        // Both are stable content digests: equal jobs agree on both.
        let twin = DesignJob::from_trace(9, trace(), Designer::new(2));
        assert_eq!(twin.fingerprint(), Some(fp));
        assert_eq!(twin.verify_hash(), Some(vh));
        // And both move when content moves.
        let other = DesignJob::from_trace(0, trace(), Designer::new(3));
        assert_ne!(other.verify_hash(), Some(vh));
    }

    #[test]
    fn deadline_disables_caching() {
        let job = DesignJob::from_trace(
            0,
            trace(),
            Designer::new(2).budget(DesignBudget {
                deadline: Some(Instant::now() + Duration::from_secs(3600)),
                ..DesignBudget::default()
            }),
        );
        assert_eq!(job.fingerprint(), None);
    }
}
