//! # cods-cli
//!
//! The interactive CODS shell (library part). `commands` implements the
//! command language the binary REPL drives, `remote` the `serve`/`connect`
//! side, and `query` the one query-tail grammar both REPLs share; exposing
//! it as a library makes the whole demo workflow scriptable and testable.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod commands;
pub mod query;
pub mod remote;

pub use commands::{run_command, Outcome, HELP};
pub use remote::{connect_command, connect_repl, serve, ServeOptions};
