//! The engine's typed error: codec failures, persistence failures and the
//! pipelined worker failures, in one enum.
//!
//! Until the durability layer landed, every engine API surfaced
//! [`GdError`] directly; the persist layer adds failure modes (I/O,
//! on-disk corruption) that are not codec errors, and the pipelined
//! ingest path adds two more (the dedicated engine worker failing to
//! start, or dying without a report). [`EngineError`] is their sum, and the
//! engine-level `Result` alias every stream/builder API now returns. `From` impls keep
//! `?` ergonomic across the layers; callers that only ever used the GD
//! backend can match [`EngineError::Gd`] and treat the rest as fatal.

use crate::persist::PersistError;
use zipline_gd::error::GdError;

/// Any failure an engine-level API can surface.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A codec-layer failure (configuration, encoding, decoding).
    Gd(GdError),
    /// A durability-layer failure (I/O or on-disk corruption).
    Persist(PersistError),
    /// The pipelined ingest worker exited without reporting an error —
    /// the engine (and any batches in flight) are lost.
    WorkerLost,
    /// The pipelined ingest worker thread could not be started (the OS
    /// refused the spawn) — the engine moved into it is lost.
    WorkerSpawn(std::io::Error),
}

/// Engine-level result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Gd(e) => write!(f, "codec error: {e}"),
            EngineError::Persist(e) => write!(f, "persistence error: {e}"),
            EngineError::WorkerLost => {
                write!(
                    f,
                    "pipelined engine worker exited without reporting an error"
                )
            }
            EngineError::WorkerSpawn(e) => {
                write!(f, "could not spawn the pipelined engine worker: {e}")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Gd(e) => Some(e),
            EngineError::Persist(e) => Some(e),
            EngineError::WorkerSpawn(e) => Some(e),
            EngineError::WorkerLost => None,
        }
    }
}

impl From<GdError> for EngineError {
    fn from(e: GdError) -> Self {
        EngineError::Gd(e)
    }
}

impl From<PersistError> for EngineError {
    fn from(e: PersistError) -> Self {
        EngineError::Persist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn displays_and_sources_chain() {
        let gd: EngineError = GdError::UnknownIdentifier(7).into();
        assert!(gd.to_string().contains("codec error"));
        assert!(gd.source().is_some());

        let persist: EngineError = PersistError::Corrupt("bad tail".into()).into();
        assert!(persist.to_string().contains("persistence error"));
        assert!(persist.source().unwrap().to_string().contains("bad tail"));

        assert!(EngineError::WorkerLost.source().is_none());
        assert!(EngineError::WorkerLost.to_string().contains("worker"));

        let spawn = EngineError::WorkerSpawn(std::io::Error::other("no threads"));
        assert!(spawn.to_string().contains("spawn"));
        assert!(spawn.source().unwrap().to_string().contains("no threads"));
    }
}
