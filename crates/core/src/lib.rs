//! Automated design of finite state machine predictors.
//!
//! This crate implements the primary contribution of Sherwood & Calder,
//! *"Automated Design of Finite State Machine Predictors"* (ISCA 2001): an
//! automated flow that turns a behavioural 0/1 trace into a small Moore
//! machine that predicts the next bit. The flow (§4 of the paper) is:
//!
//! 1. **Modeling** — build an Nth-order [`MarkovModel`] of the trace;
//! 2. **Pattern definition** — partition histories into *predict 1*,
//!    *predict 0* and *don't care* sets ([`PatternSets`]);
//! 3. **Pattern compression** — minimize the resulting truth table to a
//!    sum-of-products cover (via [`fsmgen_logicmin`]);
//! 4. **Regular expression building** — each cube becomes a pattern, and
//!    the language is "anything ending in one of these patterns";
//! 5. **FSM creation** — the history-window DFA built straight from the
//!    cover, then Hopcroft minimization (via [`fsmgen_automata`]). The
//!    regex's Thompson NFA is still built for its budget check; Hopcroft
//!    turns the window DFA into exactly the machine the paper's subset
//!    construction gives;
//! 6. **Start state reduction** — remove start-up states, keeping only the
//!    steady-state machine.
//!
//! The [`Designer`] type orchestrates the flow and the returned [`Design`]
//! exposes every intermediate artifact.
//!
//! The flow can run under a [`DesignBudget`] capping states, cubes and wall
//! clock; budget exhaustion triggers a graceful-degradation ladder recorded
//! in the design's [`Degradation`] report. The [`failpoints`] module
//! injects deterministic faults for testing.
//!
//! # Examples
//!
//! The paper's running example, from trace to Figure 1's 3-state machine:
//!
//! ```
//! use fsmgen::Designer;
//! use fsmgen_traces::BitTrace;
//!
//! let t: BitTrace = "0000 1000 1011 1101 1110 1111".parse().unwrap();
//! let design = Designer::new(2).design_from_trace(&t)?;
//!
//! // §4.4: the minimized cover is (x1) ∨ (1x).
//! assert_eq!(design.cover().len(), 2);
//! // Figure 1: 5 states with start-up states, 3 after reduction.
//! assert_eq!(design.pre_reduction_states(), 5);
//! assert_eq!(design.fsm().num_states(), 3);
//!
//! // The machine predicts 1 unless the last two outcomes were 0, 0.
//! let mut p = design.predictor();
//! p.update(true);
//! p.update(false);
//! assert!(p.predict());
//! # Ok::<(), fsmgen::DesignError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod budget;
mod designer;
mod error;
pub mod failpoints;
mod markov;
mod patterns;
mod sweep;

pub use budget::{Degradation, DegradationStep, DesignBudget, Rung};
pub use designer::{Design, Designer};
pub use error::DesignError;
pub use markov::{HistoryCounts, MarkovModel, MAX_ORDER};
pub use patterns::{PatternConfig, PatternSets};
pub use sweep::{smallest_meeting_accuracy, sweep_histories, SweepPoint};
