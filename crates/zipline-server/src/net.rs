//! Transport plumbing shared by the server and client: one [`Conn`] type
//! that is either a TCP or a Unix-domain stream, plus the matching listener
//! and address types. Keeping the enum here lets every other module stay
//! transport-agnostic.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;

use crate::error::{ServerError, ServerResult};

/// Where a server listens / a client connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP socket address.
    Tcp(SocketAddr),
    /// Unix-domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses `tcp://host:port`, `unix://path` or a bare `host:port`
    /// (assumed TCP) — the inverse of [`Display`](fmt::Display).
    pub fn parse(s: &str) -> ServerResult<Self> {
        let tcp = |addr: &str| {
            addr.to_socket_addrs()
                .map_err(|e| ServerError::io(format!("resolving {addr}"), e))?
                .next()
                .map(Endpoint::Tcp)
                .ok_or_else(|| ServerError::Protocol(format!("{addr} resolves to no address")))
        };
        if let Some(addr) = s.strip_prefix("tcp://") {
            tcp(addr)
        } else if let Some(path) = s.strip_prefix("unix://") {
            #[cfg(unix)]
            {
                Ok(Endpoint::Unix(PathBuf::from(path)))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(ServerError::Protocol(
                    "unix:// endpoints need a unix platform".into(),
                ))
            }
        } else {
            tcp(s)
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp://{addr}"),
            #[cfg(unix)]
            Endpoint::Unix(path) => write!(f, "unix://{}", path.display()),
        }
    }
}

/// One accepted or dialed byte-stream connection.
pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn connect(endpoint: &Endpoint) -> ServerResult<Self> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr)
                    .map_err(|e| ServerError::io(format!("connecting to {addr}"), e))?;
                stream
                    .set_nodelay(true)
                    .map_err(|e| ServerError::io("setting TCP_NODELAY", e))?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)
                    .map_err(|e| ServerError::io(format!("connecting to {}", path.display()), e))?;
                Ok(Conn::Unix(stream))
            }
        }
    }

    pub(crate) fn try_clone(&self) -> ServerResult<Self> {
        match self {
            Conn::Tcp(s) => s
                .try_clone()
                .map(Conn::Tcp)
                .map_err(|e| ServerError::io("cloning TCP stream", e)),
            #[cfg(unix)]
            Conn::Unix(s) => s
                .try_clone()
                .map(Conn::Unix)
                .map_err(|e| ServerError::io("cloning Unix stream", e)),
        }
    }

    /// Half- or full-closes the socket; errors are ignored (the peer may
    /// already be gone, which is exactly what shutdown wants to ensure).
    pub(crate) fn shutdown(&self, how: Shutdown) {
        match self {
            Conn::Tcp(s) => drop(s.shutdown(how)),
            #[cfg(unix)]
            Conn::Unix(s) => drop(s.shutdown(how)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Listening socket for either transport.
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    pub(crate) fn bind_tcp(addr: impl ToSocketAddrs) -> ServerResult<Self> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServerError::io("binding TCP listener", e))?;
        Ok(Listener::Tcp(listener))
    }

    #[cfg(unix)]
    pub(crate) fn bind_unix(path: impl Into<PathBuf>) -> ServerResult<Self> {
        let path = path.into();
        // A stale socket file from a previous (crashed) run would otherwise
        // make rebinding fail with AddrInUse even though nobody listens.
        if path.exists() {
            std::fs::remove_file(&path)
                .map_err(|e| ServerError::io("removing stale socket file", e))?;
        }
        let listener =
            UnixListener::bind(&path).map_err(|e| ServerError::io("binding Unix listener", e))?;
        Ok(Listener::Unix(listener, path))
    }

    /// Blocks until a peer connects.
    pub(crate) fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                stream.set_nodelay(true)?;
                Ok(Conn::Tcp(stream))
            }
            #[cfg(unix)]
            Listener::Unix(l, _) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }

    pub(crate) fn endpoint(&self) -> ServerResult<Endpoint> {
        match self {
            Listener::Tcp(l) => l
                .local_addr()
                .map(Endpoint::Tcp)
                .map_err(|e| ServerError::io("reading listener address", e)),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(Endpoint::Unix(path.clone())),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            drop(std::fs::remove_file(path));
        }
    }
}
