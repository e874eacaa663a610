//! A textual format for `cvliw` loop data-dependence graphs.
//!
//! The paper's evaluation pipeline starts from compiler IR (the Ictineo
//! research compiler); this crate is the workspace's equivalent front door:
//! a small assembly-like language in which loop bodies can be written by
//! hand, stored in files, and fed to the scheduler — plus a pretty-printer
//! so any programmatically built [`Ddg`] can be dumped back out.
//!
//! # The format
//!
//! ```text
//! // one tap of a FIR filter (comments: `//` or `#`)
//! loop fir {
//!     i:   iadd  i@1        # induction variable, reads itself 1 iter back
//!     a:   iadd  i
//!     x:   load  a
//!     c:   load  a
//!     m:   fmul  x, c
//!     acc: fadd  m, acc@1   # reduction: loop-carried distance 1
//!     s:   store acc, a
//!     mem  s -> x @1        # memory-ordering edge (no register value)
//! }
//! ```
//!
//! * One statement per line: `label: mnemonic operand, operand, ...`.
//! * Operands name the producing statement; `@k` marks a value produced
//!   `k` iterations earlier (default `0`). Forward references are allowed —
//!   recurrences need them.
//! * Mnemonics are the [`cvliw_ddg::OpKind`] mnemonics: `iadd`, `imul`,
//!   `idiv`, `fadd`, `fmul`, `fabs`, `fdiv`, `fsqrt`, `load`, `store`.
//! * `mem a -> b [@k]` adds a memory-ordering dependence.
//!
//! # Example
//!
//! ```
//! use cvliw_ir::{parse_loop, print_loop, same_structure};
//!
//! let l = parse_loop(
//!     "loop saxpy {
//!          i: iadd  i@1
//!          x: load  i
//!          y: load  i
//!          m: fmul  x, y
//!          s: store m, i
//!      }",
//! )?;
//! assert_eq!(l.ddg.node_count(), 5);
//!
//! // Printing produces text that parses back to the same structure.
//! let text = print_loop(&l.name, &l.ddg);
//! assert!(same_structure(&l.ddg, &parse_loop(&text)?.ddg));
//! # Ok::<(), cvliw_ir::ParseError>(())
//! ```

#![forbid(unsafe_code)]
// The daemon parses untrusted input through this crate, so no
// `unwrap`/`expect` may be reachable outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod error;
mod parser;
mod printer;
mod token;

pub use error::{ParseError, ParseErrorKind, Pos};
pub use parser::{parse_loop, parse_module, LoopModule, NamedLoop};
pub use printer::{print_loop, same_structure};

// Re-exported so `cvliw-ir` is usable on its own.
pub use cvliw_ddg::Ddg;
