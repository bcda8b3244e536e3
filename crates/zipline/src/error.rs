//! Error type for the ZipLine system crate.

use std::fmt;

/// Errors produced while assembling or driving a ZipLine deployment.
#[derive(Debug)]
#[non_exhaustive]
pub enum ZipLineError {
    /// An error bubbled up from the GD core.
    Gd(zipline_gd::GdError),
    /// An error bubbled up from the compression engine (persistence,
    /// pipelined-worker loss, or a wrapped codec error).
    Engine(zipline_engine::EngineError),
    /// An error bubbled up from the switch substrate.
    Switch(zipline_switch::SwitchError),
    /// An error bubbled up from the network substrate.
    Net(zipline_net::NetError),
    /// A control-channel message could not be parsed.
    MalformedControlMessage(String),
    /// The experiment or deployment configuration is inconsistent.
    InvalidConfig(String),
    /// An earlier stream failed mid-stream and took the host path's engine
    /// with it; rebuild the path (a durable one warm-restarts).
    EngineLost,
}

impl fmt::Display for ZipLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZipLineError::Gd(e) => write!(f, "GD error: {e}"),
            ZipLineError::Engine(e) => write!(f, "engine error: {e}"),
            ZipLineError::Switch(e) => write!(f, "switch error: {e}"),
            ZipLineError::Net(e) => write!(f, "network error: {e}"),
            ZipLineError::MalformedControlMessage(msg) => {
                write!(f, "malformed control message: {msg}")
            }
            ZipLineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            ZipLineError::EngineLost => {
                write!(f, "engine lost to a stream that failed mid-stream")
            }
        }
    }
}

impl std::error::Error for ZipLineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ZipLineError::Gd(e) => Some(e),
            ZipLineError::Engine(e) => Some(e),
            ZipLineError::Switch(e) => Some(e),
            ZipLineError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<zipline_gd::GdError> for ZipLineError {
    fn from(e: zipline_gd::GdError) -> Self {
        ZipLineError::Gd(e)
    }
}

impl From<zipline_engine::EngineError> for ZipLineError {
    fn from(e: zipline_engine::EngineError) -> Self {
        // A bare codec error inside the engine wrapper is still just a GD
        // error to callers; unwrap it so matching stays uniform.
        match e {
            zipline_engine::EngineError::Gd(e) => ZipLineError::Gd(e),
            other => ZipLineError::Engine(other),
        }
    }
}

impl From<zipline_switch::SwitchError> for ZipLineError {
    fn from(e: zipline_switch::SwitchError) -> Self {
        ZipLineError::Switch(e)
    }
}

impl From<zipline_net::NetError> for ZipLineError {
    fn from(e: zipline_net::NetError) -> Self {
        ZipLineError::Net(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, ZipLineError>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn conversions_and_display() {
        let e: ZipLineError = zipline_gd::GdError::UnknownBasis.into();
        assert!(e.to_string().contains("GD error"));
        assert!(e.source().is_some());

        let e: ZipLineError = zipline_engine::EngineError::WorkerLost.into();
        assert!(e.to_string().contains("engine error"));
        assert!(matches!(e, ZipLineError::Engine(_)));

        // An engine-wrapped codec error unwraps to the plain GD variant.
        let e: ZipLineError =
            zipline_engine::EngineError::Gd(zipline_gd::GdError::UnknownBasis).into();
        assert!(matches!(e, ZipLineError::Gd(_)));

        let e: ZipLineError = zipline_switch::SwitchError::EntryNotFound("x".into()).into();
        assert!(e.to_string().contains("switch error"));

        let e: ZipLineError = zipline_net::NetError::Malformed("y".into()).into();
        assert!(e.to_string().contains("network error"));

        let e = ZipLineError::MalformedControlMessage("short".into());
        assert!(e.to_string().contains("short"));
        assert!(e.source().is_none());

        let e = ZipLineError::InvalidConfig("bad".into());
        assert!(e.to_string().contains("bad"));

        let e = ZipLineError::EngineLost;
        assert!(e.to_string().contains("engine lost"));
        assert!(e.source().is_none());
    }
}
