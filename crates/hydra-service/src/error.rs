//! Error type for the service layer (server, client and registry).

use hydra_core::error::HydraError;
use hydra_engine::error::EngineError;
use std::fmt;
use std::io;

/// Errors raised by the regeneration service.
#[derive(Debug)]
pub enum ServiceError {
    /// A socket or file operation failed.
    Io(io::Error),
    /// A frame violated the wire protocol (bad length, bad JSON, or an
    /// unexpected message for the current exchange).
    Protocol(String),
    /// The remote side reported an error (`Response::Error` on the wire).
    Remote(String),
    /// A pipeline operation (solve, scenario, generation) failed locally.
    Hydra(HydraError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "i/o error: {e}"),
            ServiceError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ServiceError::Remote(msg) => write!(f, "remote error: {msg}"),
            ServiceError::Hydra(e) => write!(f, "pipeline error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<HydraError> for ServiceError {
    fn from(e: HydraError) -> Self {
        ServiceError::Hydra(e)
    }
}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Hydra(HydraError::Engine(e))
    }
}

impl From<serde_json::Error> for ServiceError {
    fn from(e: serde_json::Error) -> Self {
        ServiceError::Protocol(e.to_string())
    }
}

/// Convenience result alias for the service layer.
pub type ServiceResult<T> = Result<T, ServiceError>;
