//! # sct-core
//!
//! Reference implementation of the speculative operational semantics and
//! the *speculative constant-time* (SCT) security definition from
//! **"Constant-Time Foundations for the New Spectre Era"** (Cauligi,
//! Disselkoen, v. Gleissenthall, Tullsen, Stefan, Rezk, Barthe —
//! PLDI 2020).
//!
//! The semantics models an abstract three-stage machine:
//!
//! * **fetch** moves physical instructions ([`instr::Instr`]) into the
//!   reorder buffer ([`rob::Rob`]) as transient instructions
//!   ([`transient::Transient`]), speculating through branches, indirect
//!   jumps, and returns;
//! * **execute** resolves transient instructions out of order, forwarding
//!   store data to loads and rolling back on mispredictions and memory
//!   hazards;
//! * **retire** commits the oldest instruction to architectural state.
//!
//! All microarchitectural non-determinism (branch prediction, scheduling,
//! alias prediction) is resolved by attacker **directives**
//! ([`directive::Directive`]); every step emits the **observations**
//! ([`observation::Observation`]) a cache/timing attacker can see. A
//! program is *speculatively constant-time* when low-equivalent
//! configurations produce identical observation traces under every
//! schedule ([`sct`]).
//!
//! # Quick example
//!
//! The Spectre v1 gadget of the paper's Figure 1 leaks a secret under
//! speculation even though it is sequentially constant-time:
//!
//! ```
//! use sct_core::examples::fig1;
//! use sct_core::directive::{Directive::*, Schedule};
//! use sct_core::machine::Machine;
//!
//! let (program, config) = fig1();
//! let schedule: Schedule =
//!     [FetchBranch(true), Fetch, Fetch, Execute(2), Execute(3)]
//!         .into_iter()
//!         .collect();
//! let mut m = Machine::new(&program, config);
//! let out = m.run(&schedule).unwrap();
//! assert!(out.trace.first_secret().is_some(), "Spectre v1 leaks");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod digest;
pub mod directive;
pub mod error;
pub mod examples;
pub mod instr;
pub mod label;
pub mod machine;
pub mod mem;
pub mod observation;
pub mod op;
pub mod params;
pub mod proggen;
pub mod reg;
pub mod resolve;
pub mod rob;
pub mod rsb;
mod rules;
pub mod sched;
pub mod sct;
pub mod transient;
pub mod value;

pub use config::Config;
pub use directive::{Directive, Schedule};
pub use error::{ScheduleError, StepError};
pub use instr::{Instr, Operand, Program};
pub use label::{Label, Lattice};
pub use machine::{Machine, RunOutcome};
pub use mem::Memory;
pub use observation::{Observation, Trace};
pub use op::OpCode;
pub use params::{AddrMode, Params, RsbPolicy, StackDiscipline};
pub use reg::{Reg, RegFile};
pub use value::{Pc, Val, Word};
