//! Error type for the execution engine.

use std::fmt;

/// Errors raised by the execution engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A referenced table is not known to the provider.
    UnknownTable(String),
    /// A referenced column does not exist in the operator's input.
    UnknownColumn(String),
    /// A row's arity or types do not match the table schema.
    RowMismatch(String),
    /// The plan shape is not executable (e.g. wrong child count).
    BadPlan(String),
    /// A scanned table has more rows than the executor can address.
    TableTooLarge(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::UnknownColumn(c) => write!(f, "unknown column `{c}`"),
            EngineError::RowMismatch(msg) => write!(f, "row mismatch: {msg}"),
            EngineError::BadPlan(msg) => write!(f, "bad plan: {msg}"),
            EngineError::TableTooLarge(msg) => write!(f, "table too large: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Convenience result alias.
pub type EngineResult<T> = Result<T, EngineError>;
