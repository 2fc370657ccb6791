//! The simple concurrent imperative language of §6 of the paper:
//! abstract syntax (Fig. 6), the labellised small-step trace semantics
//! (Fig. 7–8), traceset extraction `[P]`, a concrete-syntax parser, and
//! a direct state-space explorer for behaviours and data races.
//!
//! # Example
//!
//! Parse and analyse the Fig. 2 original program:
//!
//! ```
//! use transafety_lang::{parse_program, ExploreOptions, ProgramExplorer};
//! use transafety_traces::Value;
//!
//! let src = "r2 := x; y := r2; || r1 := y; x := 1; print r1;";
//! let parsed = parse_program(src)?;
//! let explorer = ProgramExplorer::new(&parsed.program);
//! let b = explorer.behaviours(&ExploreOptions::default());
//! assert!(b.complete);
//! assert!(!b.value.contains(&vec![Value::new(1)]), "the original cannot print 1");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod explore;
mod model;
mod parser;
mod semantics;

pub use ast::{Cond, Operand, Program, Reg, Stmt};
pub use explore::{
    program_loops_are_awaits, Bounded, CfgId, CfgMeta, Configs, ExploreOptions, ProgramExplorer,
    ThreadMove, NOT_STARTED,
};
pub use model::{
    MemoryModel, ModelExplorer, ModelMove, ModelRaceWitness, MoveLabel, Reduced, ReductionGoal,
    ScModel, ScheduleStep,
};
pub use parser::{
    parse_program, parse_program_with_symbols, ParseProgramError, SourceProgram, SymbolTable,
};
pub use semantics::{extract_traceset, ExtractOptions, Extraction, Step, ThreadConfig};
